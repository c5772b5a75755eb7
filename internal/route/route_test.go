package route

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"meshpram/internal/mesh"
)

type item struct {
	key  uint64
	dest int
	id   int
}

func scatterItems(m *mesh.Machine, r mesh.Region, count int, rng *rand.Rand) [][]item {
	items := make([][]item, m.N)
	for i := 0; i < count; i++ {
		p := r.ProcAtSnake(m, rng.Intn(r.Size()))
		d := r.ProcAtSnake(m, rng.Intn(r.Size()))
		items[p] = append(items[p], item{key: rng.Uint64() >> 1, dest: d, id: i})
	}
	return items
}

func collect(m *mesh.Machine, r mesh.Region, items [][]item) []item {
	var all []item
	for i := 0; i < r.Size(); i++ {
		all = append(all, items[r.ProcAtSnake(m, i)]...)
	}
	return all
}

func TestSortSnakeSortsIntoSnakeOrder(t *testing.T) {
	m := mesh.MustNew(8)
	rng := rand.New(rand.NewSource(3))
	eachSnakeSort(func(name string, sort snakeSort, cost func(mesh.Region, int) int64) {
		for _, r := range []mesh.Region{m.Full(), {R0: 2, C0: 2, H: 4, W: 4}, {R0: 0, C0: 0, H: 1, W: 8}, {R0: 0, C0: 3, H: 8, W: 1}} {
			for _, count := range []int{0, 1, 7, 50, 150} {
				items := scatterItems(m, r, count, rng)
				out, L, steps := sort(m, r, items, func(v item) uint64 { return v.key })
				all := collect(m, r, out)
				if len(all) != count {
					t.Fatalf("%s region %v count %d: %d items after sort", name, r, count, len(all))
				}
				for i := 1; i < len(all); i++ {
					if all[i-1].key > all[i].key {
						t.Fatalf("%s region %v count %d: not sorted at %d", name, r, count, i)
					}
				}
				if count > 0 {
					if L == 0 {
						t.Fatalf("%s region %v: zero block length for %d items", name, r, count)
					}
					if steps != cost(r, L) {
						t.Fatalf("%s region %v: steps=%d, cost=%d", name, r, steps, cost(r, L))
					}
					requireBlocked(t, m, r, out, L)
				}
			}
		}
	})
}

// requireBlocked fails unless the item of global rank j sits at snake
// position j/L of the region.
func requireBlocked(t *testing.T, m *mesh.Machine, r mesh.Region, out [][]item, L int) {
	t.Helper()
	rank := 0
	for i := 0; i < r.Size(); i++ {
		p := r.ProcAtSnake(m, i)
		for range out[p] {
			if rank/L != i {
				t.Fatalf("region %v: rank %d on snake proc %d, want %d", r, rank, i, rank/L)
			}
			rank++
		}
	}
}

// requireSameLayout fails unless a and b hold the same items in the
// same order on every processor of the region.
func requireSameLayout(t *testing.T, m *mesh.Machine, r mesh.Region, a, b [][]item) {
	t.Helper()
	for i := 0; i < r.Size(); i++ {
		p := r.ProcAtSnake(m, i)
		if !slices.Equal(a[p], b[p]) {
			t.Fatalf("region %v proc %d: %v vs %v", r, p, a[p], b[p])
		}
	}
}

// TestSortSnakeFastEquivalence checks every charged snake sort, which
// charges its network without running it, against the round-by-round
// network reference: same layout, block length and steps.
func TestSortSnakeFastEquivalence(t *testing.T) {
	m := mesh.MustNew(6)
	rng := rand.New(rand.NewSource(11))
	regions := []mesh.Region{m.Full(), {R0: 1, C0: 1, H: 4, W: 2}, {R0: 0, C0: 0, H: 1, W: 6}, {R0: 1, C0: 2, H: 4, W: 4}}
	for _, ss := range snakeSorts {
		for _, r := range regions {
			for trial := 0; trial < 10; trial++ {
				count := rng.Intn(80)
				items := scatterItems(m, r, count, rng)
				// Unique keys so the orders must agree exactly.
				seen := map[uint64]bool{}
				for p := range items {
					for j := range items[p] {
						for seen[items[p][j].key] {
							items[p][j].key++
						}
						seen[items[p][j].key] = true
					}
				}
				clone := cloneItems(items)
				a, la, sa := ss.net(m, r, items, func(v item) uint64 { return v.key })
				b, lb, sb := ss.sort(m, r, clone, func(v item) uint64 { return v.key })
				if la != lb || sa != sb {
					t.Fatalf("%s region %v: (L,steps) mismatch network (%d,%d) fast (%d,%d)", ss.name, r, la, sa, lb, sb)
				}
				requireSameLayout(t, m, r, a, b)
			}
		}

		// Repeated keys (baseline and staged routing sort on destinations
		// alone): the sort must keep the stable order, i.e. match a
		// stable sort of the items in row-major collection order dealt
		// into snake-ordered blocks of the maximum initial load.
		for _, r := range regions {
			for trial := 0; trial < 20; trial++ {
				items := scatterItems(m, r, 1+rng.Intn(80), rng)
				var all []item
				L := 0
				for row := r.R0; row < r.R0+r.H; row++ {
					for col := r.C0; col < r.C0+r.W; col++ {
						p := m.IDOf(row, col)
						for j := range items[p] {
							items[p][j].key = uint64(rng.Intn(1 + trial%6))
						}
						all = append(all, items[p]...)
						L = max(L, len(items[p]))
					}
				}
				slices.SortStableFunc(all, func(x, y item) int { return cmp.Compare(x.key, y.key) })
				want := make([][]item, m.N)
				for rank, v := range all {
					p := r.ProcAtSnake(m, rank/L)
					want[p] = append(want[p], v)
				}
				got, lb, _ := ss.sort(m, r, items, func(v item) uint64 { return v.key })
				if lb != L {
					t.Fatalf("%s region %v: block length %d, want %d", ss.name, r, lb, L)
				}
				requireSameLayout(t, m, r, got, want)
			}
		}
	}
}

func TestSortCostProperties(t *testing.T) {
	r := mesh.Region{H: 16, W: 16}
	if SortCost(r, 0) != 0 {
		t.Fatal("SortCost with L=0 should be 0")
	}
	if SortCost(r, 2) != 2*SortCost(r, 1) {
		t.Fatal("SortCost not linear in L")
	}
	line := mesh.Region{H: 1, W: 16}
	if SortCost(line, 3) != 48 {
		t.Fatalf("line SortCost = %d, want 48", SortCost(line, 3))
	}
}

func TestGreedyRouteDeliversPermutation(t *testing.T) {
	m := mesh.MustNew(8)
	r := m.Full()
	perm := rand.New(rand.NewSource(5)).Perm(m.N)
	items := make([][]item, m.N)
	maxDist := 0
	for p := 0; p < m.N; p++ {
		items[p] = append(items[p], item{dest: perm[p], id: p})
		if d := m.Dist(p, perm[p]); d > maxDist {
			maxDist = d
		}
	}
	delivered, steps := greedyRoute(m, r, items, func(v item) int { return v.dest })
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != 1 {
			t.Fatalf("proc %d received %d packets", p, len(delivered[p]))
		}
		if delivered[p][0].dest != p {
			t.Fatalf("proc %d received packet for %d", p, delivered[p][0].dest)
		}
	}
	if steps < int64(maxDist) {
		t.Fatalf("steps=%d < max distance %d", steps, maxDist)
	}
	if steps > int64(8*m.Side) {
		t.Fatalf("steps=%d unreasonably high for a permutation on side %d", steps, m.Side)
	}
}

func TestGreedyRouteAllToOne(t *testing.T) {
	m := mesh.MustNew(6)
	r := m.Full()
	items := make([][]item, m.N)
	for p := 0; p < m.N; p++ {
		items[p] = append(items[p], item{dest: 0, id: p})
	}
	delivered, steps := greedyRoute(m, r, items, func(v item) int { return v.dest })
	if len(delivered[0]) != m.N {
		t.Fatalf("received %d packets at hotspot, want %d", len(delivered[0]), m.N)
	}
	// All-to-one must take at least n-ish cycles at the receiver links:
	// node 0 has 2 incoming links, so ≥ (n−1)/2 cycles.
	if steps < int64((m.N-1)/2) {
		t.Fatalf("steps=%d below receiver bandwidth bound %d", steps, (m.N-1)/2)
	}
}

func TestGreedyRouteEmptyAndSelf(t *testing.T) {
	m := mesh.MustNew(4)
	r := m.Full()
	items := make([][]item, m.N)
	delivered, steps := greedyRoute(m, r, items, func(v item) int { return v.dest })
	if steps != 0 {
		t.Fatalf("empty routing took %d steps", steps)
	}
	// Self-delivery is free.
	items[5] = append(items[5], item{dest: 5})
	delivered, steps = greedyRoute(m, r, items, func(v item) int { return v.dest })
	if steps != 0 || len(delivered[5]) != 1 {
		t.Fatalf("self delivery: steps=%d delivered=%d", steps, len(delivered[5]))
	}
}

func TestGreedyRouteStaysInsideRegion(t *testing.T) {
	// Packets between opposite corners of a subregion; if the router
	// left the region it would panic on map bookkeeping only at
	// destinations, so verify by construction: destinations inside, and
	// a packet whose destination is outside must panic.
	m := mesh.MustNew(6)
	r := mesh.Region{R0: 2, C0: 2, H: 3, W: 3}
	items := make([][]item, m.N)
	items[m.IDOf(2, 2)] = append(items[m.IDOf(2, 2)], item{dest: m.IDOf(4, 4)})
	delivered, _ := greedyRoute(m, r, items, func(v item) int { return v.dest })
	if len(delivered[m.IDOf(4, 4)]) != 1 {
		t.Fatal("in-region packet not delivered")
	}
	items2 := make([][]item, m.N)
	items2[m.IDOf(2, 2)] = append(items2[m.IDOf(2, 2)], item{dest: m.IDOf(0, 0)})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-region destination did not panic")
		}
	}()
	greedyRoute(m, r, items2, func(v item) int { return v.dest })
}

func TestRouteL1L2Delivers(t *testing.T) {
	m := mesh.MustNew(8)
	r := m.Full()
	rng := rand.New(rand.NewSource(9))
	items := make([][]item, m.N)
	// (2, 8)-routing: every proc sends 2, destinations concentrated on
	// a quarter of the procs.
	want := map[int]int{}
	for p := 0; p < m.N; p++ {
		for j := 0; j < 2; j++ {
			d := rng.Intn(m.N / 4)
			items[p] = append(items[p], item{dest: d, id: p*2 + j})
			want[d]++
		}
	}
	delivered, cost := RouteL1L2(m, r, items, func(v item) int { return v.dest })
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != want[p] {
			t.Fatalf("proc %d received %d, want %d", p, len(delivered[p]), want[p])
		}
		for _, v := range delivered[p] {
			if v.dest != p {
				t.Fatalf("proc %d received packet for %d", p, v.dest)
			}
		}
	}
	if cost.Sort <= 0 || cost.Fine <= 0 {
		t.Fatalf("cost breakdown %+v has empty phases", cost)
	}
}

func TestRouteStagedDelivers(t *testing.T) {
	m := mesh.MustNew(9)
	r := m.Full()
	rng := rand.New(rand.NewSource(13))
	items := make([][]item, m.N)
	want := map[int]int{}
	for p := 0; p < m.N; p++ {
		for j := 0; j < 3; j++ {
			d := rng.Intn(m.N)
			items[p] = append(items[p], item{dest: d, id: p*3 + j})
			want[d]++
		}
	}
	delivered, cost := RouteStaged(m, r, 3, 9, items, func(v item) int { return v.dest })
	got := 0
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != want[p] {
			t.Fatalf("proc %d received %d, want %d", p, len(delivered[p]), want[p])
		}
		for _, v := range delivered[p] {
			if v.dest != p {
				t.Fatalf("proc %d received packet for %d", p, v.dest)
			}
		}
		got += len(delivered[p])
	}
	if got != 3*m.N {
		t.Fatalf("delivered %d packets, want %d", got, 3*m.N)
	}
	if cost.Sort <= 0 || cost.Rank <= 0 || cost.Coarse <= 0 || cost.Fine <= 0 {
		t.Fatalf("cost breakdown %+v has empty phases", cost)
	}
	if cost.Total() != cost.Sort+cost.Rank+cost.Coarse+cost.Fine {
		t.Fatal("Total mismatch")
	}
}

// The staged router must beat plain greedy when l2 is large but per-
// submesh congestion δ is small: l2 = m.N/16 packets to one proc per
// submesh quadrant would violate that; instead spread heavy receivers
// across submeshes.
func TestRouteStagedBeatsDirectOnSkewedReceivers(t *testing.T) {
	m := mesh.MustNew(16)
	r := m.Full()
	rng := rand.New(rand.NewSource(21))
	subs, _ := r.SplitQ(2, 16)
	mk := func() [][]item {
		items := make([][]item, m.N)
		// Each submesh receives exactly its share, but inside the
		// submesh all packets go to one processor: l2 large, δ small.
		id := 0
		for si, sub := range subs {
			hot := sub.ProcAtSnake(m, 0)
			for j := 0; j < 16; j++ {
				src := rng.Intn(m.N)
				items[src] = append(items[src], item{dest: hot, id: id + si*100 + j})
			}
		}
		return items
	}
	_, direct := greedyRoute(m, r, mk(), func(v item) int { return v.dest })
	_, staged := RouteStaged(m, r, 2, 16, mk(), func(v item) int { return v.dest })
	// Not a strict theorem at this size; assert the staged fine phase is
	// small relative to its total, i.e. congestion was confined.
	if staged.Fine > staged.Total()/2 {
		t.Fatalf("staged fine phase %d dominates total %d", staged.Fine, staged.Total())
	}
	_ = direct
}

func TestSortSnakeDuplicateKeysMultiset(t *testing.T) {
	m := mesh.MustNew(4)
	r := m.Full()
	rng := rand.New(rand.NewSource(17))
	items := make([][]item, m.N)
	var ref []uint64
	for i := 0; i < 40; i++ {
		k := uint64(rng.Intn(5))
		p := rng.Intn(m.N)
		items[p] = append(items[p], item{key: k})
		ref = append(ref, k)
	}
	out, _, _ := SortSnake(m, r, items, func(v item) uint64 { return v.key })
	var got []uint64
	for i := 0; i < r.Size(); i++ {
		for _, v := range out[r.ProcAtSnake(m, i)] {
			got = append(got, v.key)
		}
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if len(got) != len(ref) {
		t.Fatalf("lost items: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("multiset mismatch at %d", i)
		}
	}
}

func TestSortSnakeRejectsMaxKey(t *testing.T) {
	m := mesh.MustNew(2)
	items := make([][]item, m.N)
	items[0] = append(items[0], item{key: MaxKey})
	defer func() {
		if recover() == nil {
			t.Fatal("MaxKey item did not panic")
		}
	}()
	SortSnake(m, m.Full(), items, func(v item) uint64 { return v.key })
}

func BenchmarkGreedyRoutePermutation(b *testing.B) {
	m := mesh.MustNew(32)
	r := m.Full()
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(m.N)
	for i := 0; i < b.N; i++ {
		items := make([][]item, m.N)
		for p := 0; p < m.N; p++ {
			items[p] = append(items[p], item{dest: perm[p]})
		}
		greedyRoute(m, r, items, func(v item) int { return v.dest })
	}
}

func BenchmarkSortSnakeNetwork(b *testing.B) {
	m := mesh.MustNew(16)
	r := m.Full()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		items := scatterItems(m, r, 2*m.N, rng)
		sortSnakeNet(m, r, items, func(v item) uint64 { return v.key })
	}
}

func BenchmarkSortSnake(b *testing.B) {
	m := mesh.MustNew(16)
	r := m.Full()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		items := scatterItems(m, r, 2*m.N, rng)
		SortSnake(m, r, items, func(v item) uint64 { return v.key })
	}
}
