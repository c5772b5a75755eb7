package culling

import (
	"math/rand"
	"sort"
	"testing"

	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
)

func scheme(t testing.TB, p hmos.Params) (*hmos.Scheme, *mesh.Machine) {
	t.Helper()
	s, err := hmos.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, mesh.MustNew(p.Side)
}

func randomRequests(s *hmos.Scheme, n int, count int, rng *rand.Rand) []Request {
	perm := rng.Perm(s.Vars())
	if count > len(perm) {
		count = len(perm)
	}
	reqs := make([]Request, count)
	for i := 0; i < count; i++ {
		reqs[i] = Request{Origin: i % n, Var: perm[i]}
	}
	return reqs
}

// run places the batch and selects by the paper's discipline.
func run(s *hmos.Scheme, m *mesh.Machine, reqs []Request) *Result {
	return Place(s, m, reqs).Select(Culled, nil)
}

func TestRunProducesTargetSets(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	rng := rand.New(rand.NewSource(1))
	reqs := randomRequests(s, m.N, m.N, rng)
	res := run(s, m, reqs)
	if len(res.Selected) != len(reqs) {
		t.Fatalf("selected %d, want %d", len(res.Selected), len(reqs))
	}
	minSize := hmos.MinTargetSetSize(s.Q, s.K, s.K)
	for r, sel := range res.Selected {
		if len(sel) != minSize {
			t.Fatalf("request %d selected %d copies, want minimal plain target set of %d", r, len(sel), minSize)
		}
		mask := make([]bool, s.Redundant)
		for _, c := range sel {
			mask[c.Leaf] = true
		}
		if !s.AccessedRoot(mask) {
			t.Fatalf("request %d: selected copies do not access the root", r)
		}
		// Every selected copy must live where the scheme says.
		for _, c := range sel {
			want := s.CopyAt(reqs[r].Var, c.Leaf)
			page, r1, proc := s.SlotPlace(want.Slot)
			if c.Proc != want.Proc || c.Proc != proc {
				t.Fatalf("request %d leaf %d: proc %d, want %d", r, c.Leaf, c.Proc, want.Proc)
			}
			if int(c.Page) != page || int(c.Rank) != r1 {
				t.Fatalf("request %d leaf %d: (page %d, rank %d), want (%d, %d)", r, c.Leaf, c.Page, c.Rank, page, r1)
			}
		}
	}
	if res.Steps <= 0 {
		t.Fatal("culling charged no steps")
	}
}

// Theorem 3: after iteration i no level-i page holds more than
// 4q^k·n^{1−1/2^i} selected copies — for random and adversarial sets.
func TestTheorem3Bound(t *testing.T) {
	params := []hmos.Params{
		{Side: 9, Q: 3, D: 3, K: 2},
		{Side: 27, Q: 3, D: 4, K: 2},
		{Side: 27, Q: 3, D: 5, K: 2},
		{Side: 16, Q: 4, D: 3, K: 2},
		{Side: 27, Q: 3, D: 4, K: 3},
	}
	for _, p := range params {
		s, m := scheme(t, p)
		rng := rand.New(rand.NewSource(42))
		sets := map[string][]Request{
			"random": randomRequests(s, m.N, m.N, rng),
			"dense":  denseRequests(s, m.N),
		}
		for name, reqs := range sets {
			res := run(s, m, reqs)
			for i := 1; i <= s.K; i++ {
				load, bound := res.MaxLoad(i)
				if load > bound {
					t.Errorf("%+v %s: level-%d max page load %d exceeds Theorem 3 bound %d",
						p, name, i, load, bound)
				}
			}
		}
	}
}

// denseRequests targets variables that share level-1 modules as much as
// the BIBD allows: consecutive variable indexes (same h-block) collide
// heavily in early modules.
func denseRequests(s *hmos.Scheme, n int) []Request {
	count := n
	if count > s.Vars() {
		count = s.Vars()
	}
	reqs := make([]Request, count)
	for i := 0; i < count; i++ {
		reqs[i] = Request{Origin: i % n, Var: i}
	}
	return reqs
}

func TestRunValidation(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	mustPanic := func(name string, reqs []Request) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		run(s, m, reqs)
	}
	mustPanic("duplicate var", []Request{{Origin: 0, Var: 5}, {Origin: 1, Var: 5}})
	mustPanic("bad var", []Request{{Origin: 0, Var: s.Vars()}})
	mustPanic("bad origin", []Request{{Origin: -1, Var: 0}})
}

func TestEmptyAndSingleton(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	res := run(s, m, nil)
	if len(res.Selected) != 0 {
		t.Fatal("nonempty selection for empty request set")
	}
	res = run(s, m, []Request{{Origin: 3, Var: 7}})
	if len(res.Selected) != 1 {
		t.Fatal("singleton selection missing")
	}
	if got, want := len(res.Selected[0]), hmos.MinTargetSetSize(3, 2, 2); got != want {
		t.Fatalf("singleton selected %d copies, want %d", got, want)
	}
}

// Culling must never select copies outside the variable's copy tree and
// must stay within the initial level-0 target set chain (C^i ⊆ C^{i-1}
// ⊆ ... ⊆ full tree) — verified here by the weaker observable property
// that selected leaves are valid and distinct.
func TestSelectedLeavesDistinct(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 4, K: 2})
	rng := rand.New(rand.NewSource(3))
	reqs := randomRequests(s, m.N, 300, rng)
	res := run(s, m, reqs)
	for r, sel := range res.Selected {
		seen := map[int]bool{}
		for _, c := range sel {
			if c.Leaf < 0 || c.Leaf >= s.Redundant {
				t.Fatalf("request %d: leaf %d out of range", r, c.Leaf)
			}
			if seen[c.Leaf] {
				t.Fatalf("request %d: leaf %d selected twice", r, c.Leaf)
			}
			seen[c.Leaf] = true
		}
	}
}

// The ablation baseline must produce valid target sets too (it only
// skips congestion control).
func TestSelectWithoutCulling(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	rng := rand.New(rand.NewSource(8))
	reqs := randomRequests(s, m.N, m.N, rng)
	res := Place(s, m, reqs).Select(Unculled, nil)
	if res.Steps != 0 {
		t.Fatal("baseline charged steps")
	}
	for r, sel := range res.Selected {
		mask := make([]bool, s.Redundant)
		for _, c := range sel {
			mask[c.Leaf] = true
		}
		if !s.AccessedRoot(mask) {
			t.Fatalf("baseline request %d: not a target set", r)
		}
	}
}

// Culling's charged cost must scale like k·q^k·√n (equation 2): doubling
// k roughly doubles it on the same machine.
func TestCostShape(t *testing.T) {
	s2, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 4, K: 2})
	s3, _ := scheme(t, hmos.Params{Side: 27, Q: 3, D: 4, K: 3})
	rng := rand.New(rand.NewSource(4))
	reqs2 := randomRequests(s2, m.N, 500, rng)
	reqs3 := make([]Request, len(reqs2))
	copy(reqs3, reqs2)
	c2 := run(s2, m, reqs2).Steps
	c3 := run(s3, m, reqs3).Steps
	if c3 <= c2 {
		t.Fatalf("k=3 culling (%d) not more expensive than k=2 (%d)", c3, c2)
	}
	// Ratio should be near (3·27)/(2·9) = 4.5; allow a broad envelope.
	ratio := float64(c3) / float64(c2)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("cost ratio %f outside [2,8]", ratio)
	}
}

func BenchmarkCullingFullMachine(b *testing.B) {
	s, _ := hmos.New(hmos.Params{Side: 27, Q: 3, D: 4, K: 2})
	m := mesh.MustNew(27)
	rng := rand.New(rand.NewSource(1))
	reqs := randomRequests(s, m.N, m.N, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(s, m, reqs)
	}
}

// TestRunAllocsIndependentOfBatch pins the allocation count of placing
// and culling a batch to O(K): a 10-request batch and a full
// 729-request batch at side 27 make the same number of allocations,
// because every per-copy table is one flat slice per batch.
func TestRunAllocsIndependentOfBatch(t *testing.T) {
	s, m := scheme(t, hmos.Params{Side: 27, Q: 3, D: 5, K: 2})
	rng := rand.New(rand.NewSource(6))
	full := randomRequests(s, m.N, m.N, rng)
	small := full[:10]
	allocs := func(reqs []Request) float64 {
		return testing.AllocsPerRun(5, func() { Place(s, m, reqs).Select(Culled, nil) })
	}
	a, b := allocs(small), allocs(full)
	if a != b {
		t.Fatalf("culling allocates %v objects for 10 requests but %v for %d", a, b, len(full))
	}
	t.Logf("culling: %v allocations per batch at K=%d", a, s.K)
}

// TestMarkFirstMatchesSortedOrder pins the congestion marking against
// its definition: sort the selected copies by (page, request, leaf) and
// mark the first limit of every page. Full batches never reach the cap
// (page loads stay far below 2q^k·n^{1−1/2^i}), so the marking is
// checked here directly, with caps small enough to bind.
func TestMarkFirstMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		size, pageCount := 1+rng.Intn(200), 1+rng.Intn(12)
		limit := rng.Intn(6)
		masks := make([]bool, size)
		pages := make([]int32, size)
		for idx := range masks {
			masks[idx] = rng.Intn(3) > 0
			pages[idx] = int32(rng.Intn(pageCount))
		}
		// Reference: the (page, request, leaf) sort the procedure names;
		// idx = request·q^k + leaf orders requests, then leaves.
		var refs []int
		for idx, on := range masks {
			if on {
				refs = append(refs, idx)
			}
		}
		sort.Slice(refs, func(a, b int) bool {
			if pages[refs[a]] != pages[refs[b]] {
				return pages[refs[a]] < pages[refs[b]]
			}
			return refs[a] < refs[b]
		})
		want := make([]bool, size)
		for j := 0; j < len(refs); {
			e := j
			for e < len(refs) && pages[refs[e]] == pages[refs[j]] {
				e++
			}
			for t := j; t < min(j+limit, e); t++ {
				want[refs[t]] = true
			}
			j = e
		}
		marked := make([]bool, size)
		for idx := range marked {
			marked[idx] = rng.Intn(2) == 0 // stale scratch must be overwritten
		}
		seen := make([]int, pageCount)
		markFirst(masks, pages, limit, seen, marked)
		for idx := range want {
			if marked[idx] != want[idx] {
				t.Fatalf("trial %d (limit %d): copy %d marked %v, want %v", trial, limit, idx, marked[idx], want[idx])
			}
		}
	}
}
