package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"meshpram/internal/mesh"
)

// Sorting must work on strongly rectangular regions (aspect ratio q
// arises from odd tessellation depths).
func TestSortSnakeRectangularRegions(t *testing.T) {
	m := mesh.MustNew(12)
	rng := rand.New(rand.NewSource(23))
	for _, r := range []mesh.Region{
		{R0: 0, C0: 0, H: 3, W: 12},
		{R0: 2, C0: 0, H: 4, W: 12},
		{R0: 0, C0: 3, H: 12, W: 3},
		{R0: 5, C0: 5, H: 2, W: 6},
	} {
		eachSnakeSort(func(name string, sort snakeSort, _ func(mesh.Region, int) int64) {
			items := scatterItems(m, r, 3*r.Size(), rng)
			out, _, _ := sort(m, r, items, func(v item) uint64 { return v.key })
			all := collect(m, r, out)
			for i := 1; i < len(all); i++ {
				if all[i-1].key > all[i].key {
					t.Fatalf("%s: region %v not sorted", name, r)
				}
			}
		})
	}
}

// RouteStaged with parts=1 degenerates to sort + route in one region.
func TestRouteStagedSinglePart(t *testing.T) {
	m := mesh.MustNew(6)
	rng := rand.New(rand.NewSource(29))
	items := scatterItems(m, m.Full(), 40, rng)
	want := map[int]int{}
	for p := range items {
		for _, it := range items[p] {
			want[it.dest]++
		}
	}
	delivered, cost := RouteStaged(m, m.Full(), 3, 1, items, func(v item) int { return v.dest })
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != want[p] {
			t.Fatalf("proc %d: %d vs %d", p, len(delivered[p]), want[p])
		}
	}
	if cost.Total() <= 0 {
		t.Fatal("no cost charged")
	}
}

// Property: the greedy router delivers every packet exactly once, regardless
// of load distribution.
func TestQuickGreedyRouteConservation(t *testing.T) {
	m := mesh.MustNew(6)
	r := m.Full()
	prop := func(seed int64, loadRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		load := int(loadRaw)%80 + 1
		items := make([][]item, m.N)
		want := map[int]int{}
		for i := 0; i < load; i++ {
			src := rng.Intn(m.N)
			dst := rng.Intn(m.N)
			items[src] = append(items[src], item{dest: dst, id: i})
			want[dst]++
		}
		delivered, _ := greedyRoute(m, r, items, func(v item) int { return v.dest })
		got := 0
		for p := range delivered {
			for _, v := range delivered[p] {
				if v.dest != p {
					return false
				}
			}
			got += len(delivered[p])
			if len(delivered[p]) != want[p] {
				return false
			}
		}
		return got == load
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Greedy routing is deterministic: identical inputs give identical step
// counts and deliveries.
func TestGreedyRouteDeterministic(t *testing.T) {
	m := mesh.MustNew(8)
	rng := rand.New(rand.NewSource(41))
	mk := func() [][]item {
		lr := rand.New(rand.NewSource(7))
		items := make([][]item, m.N)
		for i := 0; i < 100; i++ {
			items[lr.Intn(m.N)] = append(items[lr.Intn(m.N)], item{dest: lr.Intn(m.N), id: i})
		}
		return items
	}
	_ = rng
	d1, s1 := greedyRoute(m, m.Full(), mk(), func(v item) int { return v.dest })
	d2, s2 := greedyRoute(m, m.Full(), mk(), func(v item) int { return v.dest })
	if s1 != s2 {
		t.Fatalf("steps %d vs %d", s1, s2)
	}
	for p := range d1 {
		if len(d1[p]) != len(d2[p]) {
			t.Fatalf("proc %d: %d vs %d", p, len(d1[p]), len(d2[p]))
		}
		for j := range d1[p] {
			if d1[p][j] != d2[p][j] {
				t.Fatalf("proc %d slot %d differs", p, j)
			}
		}
	}
}

// A permutation's routing time is near the distance bound: for a plain
// permutation, greedy XY needs at most ~2·side + queueing.
func TestGreedyRoutePermutationEfficiency(t *testing.T) {
	m := mesh.MustNew(16)
	for seed := int64(0); seed < 5; seed++ {
		perm := rand.New(rand.NewSource(seed)).Perm(m.N)
		items := make([][]item, m.N)
		for p := 0; p < m.N; p++ {
			items[p] = append(items[p], item{dest: perm[p], id: p})
		}
		_, steps := greedyRoute(m, m.Full(), items, func(v item) int { return v.dest })
		// Greedy on random permutations is known to finish in
		// 2·side + o(side) with overwhelming probability; allow 4×.
		if steps > int64(4*2*m.Side) {
			t.Fatalf("seed %d: permutation took %d steps (side %d)", seed, steps, m.Side)
		}
	}
}

// The staged router must keep all phase costs non-negative and the
// delivered multiset intact on a rectangular region.
func TestRouteStagedRectangularRegion(t *testing.T) {
	m := mesh.MustNew(12)
	r := mesh.Region{R0: 0, C0: 0, H: 6, W: 12} // aspect 2
	rng := rand.New(rand.NewSource(3))
	items := make([][]item, m.N)
	count := 50
	for i := 0; i < count; i++ {
		src := r.ProcAtSnake(m, rng.Intn(r.Size()))
		dst := r.ProcAtSnake(m, rng.Intn(r.Size()))
		items[src] = append(items[src], item{dest: dst, id: i})
	}
	delivered, cost := RouteStaged(m, r, 2, 4, items, func(v item) int { return v.dest })
	got := 0
	for p := range delivered {
		got += len(delivered[p])
	}
	if got != count {
		t.Fatalf("delivered %d of %d", got, count)
	}
	if cost.Sort < 0 || cost.Rank < 0 || cost.Coarse < 0 || cost.Fine < 0 {
		t.Fatalf("negative phase in %+v", cost)
	}
}
