package hmos

import (
	"math/rand"
	"testing"

	"meshpram/internal/bibd"
)

// Small but nondegenerate instances used across the tests.
var testParams = []Params{
	{Side: 9, Q: 3, D: 3, K: 2},
	{Side: 9, Q: 3, D: 4, K: 1},
	{Side: 27, Q: 3, D: 4, K: 2},
	{Side: 27, Q: 3, D: 5, K: 2},
	{Side: 27, Q: 3, D: 4, K: 3},
	{Side: 16, Q: 4, D: 3, K: 2},
	{Side: 25, Q: 5, D: 3, K: 2},
}

func TestNewValidation(t *testing.T) {
	bad := []Params{
		{Side: 9, Q: 3, D: 3, K: 0},  // k too small
		{Side: 9, Q: 3, D: 1, K: 1},  // d too small
		{Side: 9, Q: 2, D: 3, K: 1},  // q too small for quorum
		{Side: 9, Q: 6, D: 3, K: 1},  // q not a prime power
		{Side: 10, Q: 3, D: 3, K: 2}, // mesh not divisible by 3^4
		{Side: 9, Q: 3, D: 5, K: 2},  // 3^6 pages > 81 processors
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("params %+v accepted, want error", p)
		}
	}
}

func TestStructuralCounts(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		if s.M != bibd.F(p.Q, p.D) {
			t.Fatalf("%+v: M=%d want f(d)=%d", p, s.M, bibd.F(p.Q, p.D))
		}
		if s.ModCount[0] != s.M {
			t.Fatalf("%+v: m_0=%d", p, s.ModCount[0])
		}
		for i := 1; i <= p.K; i++ {
			if s.ModCount[i] != ipow(p.Q, s.Ds[i-1]) {
				t.Fatalf("%+v: m_%d=%d want q^%d", p, i, s.ModCount[i], s.Ds[i-1])
			}
			// Equation (3): p_i = q·m_{i-1}/m_i exactly (uniform).
			if s.PagesPer[i] != p.Q*s.ModCount[i-1]/s.ModCount[i] {
				t.Fatalf("%+v: p_%d=%d", p, i, s.PagesPer[i])
			}
			// Tessellation count: m_i · q^(K-i) level-i pages.
			wantPages := s.ModCount[i] * ipow(p.Q, p.K-i)
			if s.PageCount(i) != wantPages {
				t.Fatalf("%+v: %d level-%d regions, want %d", p, s.PageCount(i), i, wantPages)
			}
			if s.T[i]*wantPages != s.N {
				t.Fatalf("%+v: t_%d=%d does not tile n", p, i, s.T[i])
			}
			for pg := 0; pg < wantPages; pg++ {
				if r := s.PageRegion(i, pg); r.Size() != s.T[i] {
					t.Fatalf("%+v: level-%d region size %d != t_i %d", p, i, r.Size(), s.T[i])
				}
			}
		}
		if s.Redundant != ipow(p.Q, p.K) {
			t.Fatalf("%+v: redundancy %d", p, s.Redundant)
		}
		if a := s.Alpha(); a <= 0 {
			t.Fatalf("%+v: alpha %f", p, a)
		}
	}
}

// d_{i+1} = ceil(d_i/2)+1 per the paper.
func TestLevelDimensionRecurrence(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 3})
	want := []int{4, 3, 3}
	for i, d := range want {
		if s.Ds[i] != d {
			t.Fatalf("Ds=%v want %v", s.Ds, want)
		}
	}
}

func TestCopyEnumeration(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		slots := map[int64]bool{}
		perProc := make([]int, s.N)
		var buf []Copy
		for v := 0; v < s.M; v++ {
			buf = s.Copies(v, buf[:0])
			if len(buf) != s.Redundant {
				t.Fatalf("%+v: var %d has %d copies", p, v, len(buf))
			}
			for _, c := range buf {
				if slots[c.Slot] {
					t.Fatalf("%+v: duplicate slot %d", p, c.Slot)
				}
				slots[c.Slot] = true
				perProc[c.Proc]++
				// Path adjacency: path[i] adjacent to path[i-1] in Graphs[i].
				prev := v
				for i := 0; i < p.K; i++ {
					if s.Graphs[i].EdgeIndex(prev, c.Path[i]) == -1 {
						t.Fatalf("%+v: var %d leaf %d: path level %d not adjacent", p, v, c.Leaf, i)
					}
					prev = c.Path[i]
				}
				// Processor must lie inside every level's page region.
				for lev := 1; lev <= p.K; lev++ {
					reg := s.PageRegion(lev, s.PageIndex(lev, c.Path))
					if !reg.Contains(s.Mesh(), c.Proc) {
						t.Fatalf("%+v: var %d leaf %d: proc %d outside level-%d page region %v",
							p, v, c.Leaf, c.Proc, lev, reg)
					}
				}
			}
		}
		// Every processor stores a balanced share of copies.
		total := 0
		lo, hi := 1<<30, 0
		for _, cnt := range perProc {
			total += cnt
			if cnt < lo {
				lo = cnt
			}
			if cnt > hi {
				hi = cnt
			}
		}
		if total != s.M*s.Redundant {
			t.Fatalf("%+v: %d copies placed, want %d", p, total, s.M*s.Redundant)
		}
		// Copies per level-1 page = p_1, spread over t_1 processors.
		wantHi := (s.PagesPer[1] + s.T[1] - 1) / s.T[1]
		wantLo := s.PagesPer[1] / s.T[1]
		if lo < wantLo || hi > wantHi {
			t.Fatalf("%+v: per-proc copy counts in [%d,%d], want within [%d,%d]",
				p, lo, hi, wantLo, wantHi)
		}
	}
}

// The implicit tessellation must reproduce the materialized one: for
// every level, PageRegion(level, i) equals SplitQ(q, pageCount)[i].
func TestPageRegionMatchesSplitQ(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		full := s.Mesh().Full()
		for lev := 1; lev <= p.K; lev++ {
			regs, err := full.SplitQ(p.Q, s.PageCount(lev))
			if err != nil {
				t.Fatalf("%+v: SplitQ level %d: %v", p, lev, err)
			}
			for i, want := range regs {
				if got := s.PageRegion(lev, i); got != want {
					t.Fatalf("%+v: PageRegion(%d,%d)=%v, want %v", p, lev, i, got, want)
				}
			}
		}
	}
}

// SlotPlace's (page, r1, proc) must agree with CopyAt's walk.
func TestSlotPlaceRoundtrip(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		for v := 0; v < s.M; v++ {
			for leaf := 0; leaf < s.Redundant; leaf++ {
				c := s.CopyAt(v, leaf)
				page, r1, proc := s.SlotPlace(c.Slot)
				if proc != c.Proc {
					t.Fatalf("%+v: slot %d placed at proc %d, CopyAt says %d", p, c.Slot, proc, c.Proc)
				}
				if want := s.PageIndex(1, c.Path); page != want {
					t.Fatalf("%+v: slot %d page %d, want %d", p, c.Slot, page, want)
				}
				if wr1 := s.Graphs[0].RankOfInput(c.Path[0], v); r1 != wr1 {
					t.Fatalf("%+v: slot %d rank %d, want %d", p, c.Slot, r1, wr1)
				}
			}
		}
	}
}

// Copies of a variable must live in q distinct level-1 modules (the
// BIBD neighbors), and the level-i page regions must nest.
func TestPageNesting(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 2})
	var buf []Copy
	for v := 0; v < 50; v++ {
		buf = s.Copies(v, buf[:0])
		for _, c := range buf {
			inner := s.PageRegion(1, s.PageIndex(1, c.Path))
			outer := s.PageRegion(2, s.PageIndex(2, c.Path))
			if inner.R0 < outer.R0 || inner.C0 < outer.C0 ||
				inner.R0+inner.H > outer.R0+outer.H || inner.C0+inner.W > outer.C0+outer.W {
				t.Fatalf("var %d leaf %d: level-1 region %v not inside level-2 region %v",
					v, c.Leaf, inner, outer)
			}
		}
	}
}

func TestMinTargetSetSize(t *testing.T) {
	cases := []struct{ q, k, i, want int }{
		{3, 2, 0, 9}, {3, 2, 1, 6}, {3, 2, 2, 4},
		{3, 3, 0, 27}, {3, 3, 3, 8},
		{4, 2, 2, 9}, {5, 2, 2, 9}, {5, 2, 0, 16},
	}
	for _, c := range cases {
		if got := MinTargetSetSize(c.q, c.k, c.i); got != c.want {
			t.Errorf("MinTargetSetSize(%d,%d,%d)=%d want %d", c.q, c.k, c.i, got, c.want)
		}
	}
}

func TestSelectTargetSetFullAvail(t *testing.T) {
	for _, p := range testParams {
		s := MustNew(p)
		avail := make([]bool, s.Redundant)
		for i := range avail {
			avail[i] = true
		}
		for i := 0; i <= p.K; i++ {
			sel, ok := selectTS(s, i, avail, nil)
			if !ok {
				t.Fatalf("%+v: no level-%d target set in full leaf set", p, i)
			}
			if !s.IsTargetSet(i, sel) {
				t.Fatalf("%+v: selected set is not a level-%d target set", p, i)
			}
			size := popcount(sel)
			if size != MinTargetSetSize(p.Q, p.K, i) {
				t.Fatalf("%+v: level-%d set size %d, want %d", p, i, size, MinTargetSetSize(p.Q, p.K, i))
			}
			// Minimality: removing any selected leaf must break it.
			for l := range sel {
				if !sel[l] {
					continue
				}
				sel[l] = false
				if s.IsTargetSet(i, sel) {
					t.Fatalf("%+v: level-%d set not minimal (leaf %d removable)", p, i, l)
				}
				sel[l] = true
			}
		}
	}
}

func TestSelectTargetSetRespectsAvailability(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		avail := make([]bool, s.Redundant)
		for i := range avail {
			avail[i] = rng.Intn(3) > 0
		}
		for lvl := 0; lvl <= s.K; lvl++ {
			sel, ok := selectTS(s, lvl, avail, nil)
			if ok != s.IsTargetSet(lvl, avail) {
				t.Fatalf("ok=%v but avail target-set=%v", ok, s.IsTargetSet(lvl, avail))
			}
			if !ok {
				continue
			}
			for l := range sel {
				if sel[l] && !avail[l] {
					t.Fatal("selected unavailable leaf")
				}
			}
			if !s.IsTargetSet(lvl, sel) {
				t.Fatal("selected mask not a target set")
			}
		}
	}
}

func TestSelectTargetSetPrefersMarked(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	avail := make([]bool, s.Redundant)
	for i := range avail {
		avail[i] = true
	}
	// Mark a full minimal plain target set as preferred: the selection
	// must then use preferred leaves only.
	pref, ok := selectTS(s, s.K, avail, nil)
	if !ok {
		t.Fatal("setup failed")
	}
	sel, ok := selectTS(s, s.K, avail, pref)
	if !ok {
		t.Fatal("selection failed")
	}
	for l := range sel {
		if sel[l] && !pref[l] {
			t.Fatalf("leaf %d selected despite a fully-preferred target set existing", l)
		}
	}
}

// The consistency keystone: any two plain target sets intersect.
func TestTargetSetsIntersect(t *testing.T) {
	for _, p := range []Params{{Side: 9, Q: 3, D: 3, K: 2}, {Side: 16, Q: 4, D: 3, K: 2}, {Side: 25, Q: 5, D: 3, K: 2}} {
		s := MustNew(p)
		rng := rand.New(rand.NewSource(int64(p.Q)))
		for trial := 0; trial < 300; trial++ {
			// Two random minimal target sets, biased differently.
			prefA := make([]bool, s.Redundant)
			prefB := make([]bool, s.Redundant)
			avail := make([]bool, s.Redundant)
			for i := range avail {
				avail[i] = true
				prefA[i] = rng.Intn(2) == 0
				prefB[i] = rng.Intn(2) == 0
			}
			a, _ := selectTS(s, s.K, avail, prefA)
			b, _ := selectTS(s, s.K, avail, prefB)
			inter := false
			for l := range a {
				if a[l] && b[l] {
					inter = true
					break
				}
			}
			if !inter {
				t.Fatalf("%+v trial %d: disjoint target sets", p, trial)
			}
		}
	}
}

// A minimal level-i target set contains a plain target set (§3.2).
func TestLevelTargetContainsPlainTarget(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 3})
	avail := make([]bool, s.Redundant)
	for i := range avail {
		avail[i] = true
	}
	for lvl := 0; lvl <= s.K; lvl++ {
		sel, ok := selectTS(s, lvl, avail, nil)
		if !ok {
			t.Fatalf("level %d: no set", lvl)
		}
		if !s.AccessedRoot(sel) {
			t.Fatalf("level-%d target set does not access the root", lvl)
		}
	}
}

// Level-i target sets are nested in strength: a level-i set is also a
// level-j target set for every j ≥ i.
func TestTargetSetMonotonicity(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		avail := make([]bool, s.Redundant)
		for i := range avail {
			avail[i] = rng.Intn(2) == 0
		}
		for i := 0; i <= s.K; i++ {
			if !s.IsTargetSet(i, avail) {
				continue
			}
			for j := i; j <= s.K; j++ {
				if !s.IsTargetSet(j, avail) {
					t.Fatalf("mask is level-%d but not level-%d target set", i, j)
				}
			}
		}
	}
}

func TestPageIndexDistribution(t *testing.T) {
	// Every level-1 page must receive exactly p_1 copies overall.
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	counts := make([]int, s.PageCount(1))
	var buf []Copy
	for v := 0; v < s.M; v++ {
		buf = s.Copies(v, buf[:0])
		for _, c := range buf {
			counts[s.PageIndex(1, c.Path)]++
		}
	}
	for i, c := range counts {
		if c != s.PagesPer[1] {
			t.Fatalf("level-1 page %d holds %d copies, want p_1=%d", i, c, s.PagesPer[1])
		}
	}
}

func popcount(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func BenchmarkCopyAt(b *testing.B) {
	s := MustNew(Params{Side: 27, Q: 3, D: 5, K: 2})
	for i := 0; i < b.N; i++ {
		s.CopyAt(i%s.M, i%s.Redundant)
	}
}

func BenchmarkSelectTargetSet(b *testing.B) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 3})
	avail := make([]bool, s.Redundant)
	for i := range avail {
		avail[i] = true
	}
	cost := make([]int64, s.TargetSetScratch())
	sel := make([]bool, s.Redundant)
	for i := 0; i < b.N; i++ {
		s.SelectTargetSet(i%(s.K+1), avail, nil, cost, sel)
	}
}
