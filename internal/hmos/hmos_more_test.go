package hmos

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Larger field orders: q = 7 on a 49-side mesh and q = 9 on an 81-side
// mesh (q = p^e extension field).
func TestLargerFieldSchemes(t *testing.T) {
	for _, p := range []Params{
		{Side: 49, Q: 7, D: 2, K: 2},
		{Side: 81, Q: 9, D: 2, K: 2},
	} {
		s := MustNew(p)
		if s.Redundant != p.Q*p.Q {
			t.Fatalf("q=%d: redundancy %d", p.Q, s.Redundant)
		}
		// Spot-check copy placement over all variables.
		perProc := make(map[int]int)
		var buf []Copy
		for v := 0; v < s.Vars(); v++ {
			buf = s.Copies(v, buf[:0])
			seen := map[int]bool{}
			for _, c := range buf {
				if seen[c.Leaf] {
					t.Fatalf("q=%d: duplicate leaf", p.Q)
				}
				seen[c.Leaf] = true
				perProc[c.Proc]++
			}
		}
		total := 0
		for _, c := range perProc {
			total += c
		}
		if total != s.Vars()*s.Redundant {
			t.Fatalf("q=%d: %d copies placed", p.Q, total)
		}
		// Quorum arithmetic: ⌊q/2⌋+2 ≤ q.
		if Extensive(p.Q) > p.Q {
			t.Fatalf("q=%d: extensive quorum %d exceeds q", p.Q, Extensive(p.Q))
		}
	}
}

// Deep hierarchy: K = 4 at q = 3 (the toy polylog-redundancy regime).
func TestDeepHierarchyK4(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 3, K: 4})
	if s.Redundant != 81 {
		t.Fatalf("redundancy %d", s.Redundant)
	}
	if got, want := MinTargetSetSize(3, 4, 4), 16; got != want {
		t.Fatalf("minimal target set %d, want %d", got, want)
	}
	// All four tessellations must nest: the level-1 region of any copy
	// sits inside its level-2 region, and so on.
	var buf []Copy
	for v := 0; v < 50; v++ {
		buf = s.Copies(v, buf[:0])
		for _, c := range buf {
			for lvl := 1; lvl < s.K; lvl++ {
				in := s.PageRegion(lvl, s.PageIndex(lvl, c.Path))
				out := s.PageRegion(lvl+1, s.PageIndex(lvl+1, c.Path))
				if in.R0 < out.R0 || in.C0 < out.C0 ||
					in.R0+in.H > out.R0+out.H || in.C0+in.W > out.C0+out.W {
					t.Fatalf("var %d leaf %d: level %d not nested in %d", v, c.Leaf, lvl, lvl+1)
				}
			}
		}
	}
}

// Property: for random (variable, leaf) pairs the copy's processor is
// stable and within range, and PageIndex(K) equals the level-k module.
func TestQuickCopyPlacement(t *testing.T) {
	s := MustNew(Params{Side: 27, Q: 3, D: 4, K: 2})
	prop := func(rv, rl uint16) bool {
		v := int(rv) % s.Vars()
		leaf := int(rl) % s.Redundant
		c := s.CopyAt(v, leaf)
		if c.Proc < 0 || c.Proc >= s.N {
			return false
		}
		if s.PageIndex(s.K, c.Path) != c.Path[s.K-1] {
			return false
		}
		// Idempotent.
		c2 := s.CopyAt(v, leaf)
		return c.Proc == c2.Proc && c.Slot == c2.Slot
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// MapBytes is independent of memory size (the constructivity claim).
func TestMapBytesIndependentOfM(t *testing.T) {
	a := MustNew(Params{Side: 27, Q: 3, D: 4, K: 2})
	b := MustNew(Params{Side: 27, Q: 3, D: 5, K: 2})
	if a.MapBytes() != b.MapBytes() {
		t.Fatalf("map bytes depend on M: %d vs %d", a.MapBytes(), b.MapBytes())
	}
	c := MustNew(Params{Side: 27, Q: 3, D: 4, K: 3})
	if c.MapBytes() <= a.MapBytes() {
		t.Fatal("map bytes should grow with K")
	}
}

// Random subsets that ARE target sets must be found by SelectTargetSet
// with any preference mask.
func TestQuickSelectWithRandomPreference(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		avail := make([]bool, s.Redundant)
		pref := make([]bool, s.Redundant)
		for i := range avail {
			avail[i] = rng.Intn(4) > 0
			pref[i] = rng.Intn(2) == 0
		}
		sel, ok := selectTS(s, s.K, avail, pref)
		if ok != s.IsTargetSet(s.K, avail) {
			t.Fatal("ok inconsistent with availability")
		}
		if ok && !s.IsTargetSet(s.K, sel) {
			t.Fatal("selection is not a target set")
		}
	}
}
