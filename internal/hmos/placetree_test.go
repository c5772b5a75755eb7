package hmos

import "testing"

// checkPlaceTree compares PlaceTree's one walk of T_v against the
// single-leaf walk place and the PageIndex recurrence at every leaf:
// processor, level-1 rank r1 and the page at every level 1 … K.
func checkPlaceTree(t testing.TB, s *Scheme, v int) {
	t.Helper()
	qk, K := s.Redundant, s.K
	procs := make([]int32, qk)
	ranks := make([]int32, qk)
	pages := make([]int32, K*qk)
	s.PlaceTree(v, procs, ranks, pages, qk)
	path := make([]int, K)
	for leaf := 0; leaf < qk; leaf++ {
		page, r1, proc := s.place(v, leaf, path)
		if int(procs[leaf]) != proc || int(ranks[leaf]) != r1 {
			t.Fatalf("%+v: var %d leaf %d: PlaceTree (proc %d, r1 %d), place (proc %d, r1 %d)",
				s.Params, v, leaf, procs[leaf], ranks[leaf], proc, r1)
		}
		if int(pages[leaf]) != page {
			t.Fatalf("%+v: var %d leaf %d: level-1 page %d, place says %d", s.Params, v, leaf, pages[leaf], page)
		}
		for lev := 1; lev <= K; lev++ {
			if got, want := int(pages[(lev-1)*qk+leaf]), s.PageIndex(lev, path); got != want {
				t.Fatalf("%+v: var %d leaf %d: level-%d page %d, PageIndex says %d",
					s.Params, v, leaf, lev, got, want)
			}
		}
	}
}

// TestPlaceTreeMatchesPlace pins the one-walk placement to the
// per-leaf oracle: every (v, leaf) of every test scheme (k = 1, 2 and
// 3; q = 3, 4 and 5; side 27 at d = 5), and every 7th variable of the
// paper's side-81, d = 7 point.
func TestPlaceTreeMatchesPlace(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		for v := 0; v < s.M; v++ {
			checkPlaceTree(t, s, v)
		}
	}
	if testing.Short() {
		return
	}
	s := MustNew(Params{Side: 81, Q: 3, D: 7, K: 2})
	for v := 0; v < s.M; v += 7 {
		checkPlaceTree(t, s, v)
	}
}

// TestPlaceTreeOptionalOutputs: nil ranks and pages skip those tables
// without changing the processors, and a stride wider than q^k leaves
// the gaps between levels untouched.
func TestPlaceTreeOptionalOutputs(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 3})
	qk, stride := s.Redundant, s.Redundant+5
	for v := 0; v < s.M; v += 13 {
		want := make([]int32, qk)
		pages := make([]int32, s.K*stride)
		for i := range pages {
			pages[i] = -1
		}
		s.PlaceTree(v, want, nil, pages, stride)
		got := make([]int32, qk)
		s.PlaceTree(v, got, nil, nil, 0)
		for leaf := range want {
			if got[leaf] != want[leaf] {
				t.Fatalf("var %d leaf %d: proc %d without pages, %d with", v, leaf, got[leaf], want[leaf])
			}
		}
		for i, pg := range pages {
			if gap := i%stride >= qk; gap != (pg == -1) {
				t.Fatalf("var %d: pages[%d] = %d (gap %v)", v, i, pg, gap)
			}
		}
	}
}

// TestPlaceTreePageRankBijection: within each level-1 page, the copies'
// ranks r1 are a bijection onto [0, p_1) — the slab store indexes a
// page's cells by r1.
func TestPlaceTreePageRankBijection(t *testing.T) {
	for _, p := range []Params{{Side: 9, Q: 3, D: 3, K: 2}, {Side: 27, Q: 3, D: 4, K: 3}} {
		s := MustNew(p)
		qk := s.Redundant
		procs := make([]int32, qk)
		ranks := make([]int32, qk)
		pages := make([]int32, s.K*qk)
		seen := make([][]bool, s.PageCount(1))
		for v := 0; v < s.Vars(); v++ {
			s.PlaceTree(v, procs, ranks, pages, qk)
			for leaf := 0; leaf < qk; leaf++ {
				page, r1 := pages[leaf], int(ranks[leaf])
				if r1 < 0 || r1 >= s.PagesPer[1] {
					t.Fatalf("%+v: var %d leaf %d: rank %d out of [0,%d)", p, v, leaf, r1, s.PagesPer[1])
				}
				if seen[page] == nil {
					seen[page] = make([]bool, s.PagesPer[1])
				}
				if seen[page][r1] {
					t.Fatalf("%+v: page %d rank %d assigned twice", p, page, r1)
				}
				seen[page][r1] = true
			}
		}
		for page, set := range seen {
			for r1, on := range set {
				if !on {
					t.Fatalf("%+v: page %d rank %d holds no copy", p, page, r1)
				}
			}
		}
	}
}

// FuzzPlaceTree checks the one-walk placement against place and
// PageIndex on any variable of any small scheme the fuzzer finds.
func FuzzPlaceTree(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint8(3), uint32(0))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), uint32(1234))
	f.Add(uint8(4), uint8(3), uint8(2), uint8(2), uint32(77))
	f.Add(uint8(5), uint8(3), uint8(2), uint8(2), uint32(3000))
	f.Add(uint8(3), uint8(4), uint8(1), uint8(2), uint32(5))
	f.Fuzz(func(t *testing.T, q, d, k, e uint8, v uint32) {
		// Side q^e for q ∈ {3, 4, 5}, e ∈ [1, 4]; d ∈ [2, 6], k ∈ [1, 4]:
		// whatever New accepts stays small.
		p := Params{Q: 3 + int(q%3), D: 2 + int(d%5), K: 1 + int(k%4)}
		p.Side = ipow(p.Q, 1+int(e%4))
		if p.Side > 256 {
			return
		}
		s, err := New(p)
		if err != nil {
			return
		}
		checkPlaceTree(t, s, int(v%uint32(s.M)))
	})
}
