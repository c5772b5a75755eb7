package culling

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"meshpram/internal/hmos"
)

// Culling is deterministic: identical inputs yield identical selections
// and identical charged steps.
func TestCullingDeterministic(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 4, K: 2})
	rng := rand.New(rand.NewSource(6))
	reqs := randomRequests(s, m.N, 400, rng)
	a := run(s, m, reqs)
	b := run(s, m, append([]Request(nil), reqs...))
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) {
		t.Fatal("selections differ between identical runs")
	}
}

// Partial batches (fewer requests than processors) must work and
// respect the same bounds.
func TestCullingPartialBatches(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 5, K: 2})
	for _, count := range []int{1, 2, 17, 100, 729} {
		rng := rand.New(rand.NewSource(int64(count)))
		reqs := randomRequests(s, m.N, count, rng)
		res := run(s, m, reqs)
		if len(res.Selected) != count {
			t.Fatalf("count %d: %d selections", count, len(res.Selected))
		}
		for i := 1; i <= s.K; i++ {
			load, bound := res.MaxLoad(i)
			if load > bound {
				t.Fatalf("count %d level %d: load %d > bound %d", count, i, load, bound)
			}
		}
	}
}

// A K=3 scheme under the module-hot adversary.
func TestCullingK3ModuleHot(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 4, K: 3})
	// All requests share level-1 module 0 (the module-hot adversary).
	g := s.Graphs[0]
	count := g.Degree(0)
	if count > m.N {
		count = m.N
	}
	reqs := make([]Request, count)
	for r := 0; r < count; r++ {
		reqs[r] = Request{Origin: r, Var: g.InputAtRank(0, r)}
	}
	res := run(s, m, reqs)
	for i := 1; i <= 3; i++ {
		load, bound := res.MaxLoad(i)
		if load > bound {
			t.Fatalf("level %d: load %d > bound %d", i, load, bound)
		}
	}
	minSize := hmos.MinTargetSetSize(3, 3, 3)
	for r, sel := range res.Selected {
		if len(sel) != minSize {
			t.Fatalf("request %d: %d copies selected, want %d", r, len(sel), minSize)
		}
	}
}

// The culled selection must be a subset of the variable's copy tree at
// valid locations even under q = 4 and q = 5 schemes (even/odd majority
// arithmetic).
func TestCullingOtherFieldOrders(t *testing.T) {
	for _, p := range []hmos.Params{{Side: 16, Q: 4, D: 3, K: 2}, {Side: 25, Q: 5, D: 3, K: 2}} {
		s, m := scheme(t, p)
		rng := rand.New(rand.NewSource(2))
		reqs := randomRequests(s, m.N, m.N/2, rng)
		res := run(s, m, reqs)
		for r, sel := range res.Selected {
			mask := make([]bool, s.Redundant)
			for _, c := range sel {
				mask[c.Leaf] = true
			}
			if !s.AccessedRoot(mask) {
				t.Fatalf("q=%d request %d: selection does not access root", p.Q, r)
			}
			if len(sel) != hmos.MinTargetSetSize(p.Q, p.K, p.K) {
				t.Fatalf("q=%d request %d: size %d", p.Q, r, len(sel))
			}
		}
	}
}

// Certifies is the step verdict: nothing returned never certifies;
// under the majority disciplines the returned leaves must access the
// root; under read-one/write-all a read needs its one copy back and a
// write every copy it selected.
func TestCertifies(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	reqs := []Request{{Origin: 0, Var: 3}, {Origin: 1, Var: 8, Write: true}}
	pl := Place(s, m, reqs)
	for _, d := range []Discipline{Culled, Unculled, Hardened, ReadOneWriteAll} {
		res := pl.Select(d, nil)
		for r := range reqs {
			full := make([]bool, s.Redundant)
			for _, c := range res.Selected[r] {
				full[c.Leaf] = true
			}
			short := slices.Clone(full)
			short[res.Selected[r][0].Leaf] = false
			if res.Certifies(r, nil) {
				t.Errorf("discipline %d request %d: certified with nothing returned", d, r)
			}
			if !res.Certifies(r, full) {
				t.Errorf("discipline %d request %d: its whole selection does not certify", d, r)
			}
			want := s.AccessedRoot(short)
			if d == ReadOneWriteAll {
				want = false // the read lost its only copy, the write one of all
			}
			if got := res.Certifies(r, short); got != want {
				t.Errorf("discipline %d request %d: one copy short certifies %v, want %v", d, r, got, want)
			}
		}
	}
	// A read-one/write-all read is certified by any returned copy.
	res := pl.Select(ReadOneWriteAll, nil)
	other := make([]bool, s.Redundant)
	other[(res.Selected[0][0].Leaf+1)%s.Redundant] = true
	if !res.Certifies(0, other) {
		t.Error("read-one/write-all read not certified by a returned copy")
	}
}
