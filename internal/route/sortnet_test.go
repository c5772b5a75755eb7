package route

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"meshpram/internal/mesh"
)

// The round-by-round merge-split networks the charged snake sorts are
// checked against. SortSnake and SortSnakeRotate sort once and charge
// SortCost or RotateSortCost; the references below run every
// odd-even transposition round and every row rotation, and return the
// steps the schedule takes.

// rowLine returns the processor ids of relative row j of r, in snake
// direction (left-to-right for even j).
func rowLine(m *mesh.Machine, r mesh.Region, j int) []int {
	line := make([]int, r.W)
	for c := range line {
		line[c] = m.IDOf(r.R0+j, r.C0+c)
	}
	if j%2 == 1 {
		slices.Reverse(line)
	}
	return line
}

// colLine returns the processor ids of relative column c of r, top to
// bottom.
func colLine(m *mesh.Machine, r mesh.Region, c int) []int {
	line := make([]int, r.H)
	for j := range line {
		line[j] = m.IDOf(r.R0+j, r.C0+c)
	}
	return line
}

// elem wraps an item with its key; pad elements carry key MaxKey.
type elem[T any] struct {
	key uint64
	val T
}

// loadBlocks builds padded, locally sorted blocks of exactly L slots,
// indexed by processor id.
func loadBlocks[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T], L int) [][]elem[T] {
	blocks := make([][]elem[T], m.N)
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			b := make([]elem[T], 0, L)
			for _, v := range items[p] {
				k := key(v)
				if k == MaxKey {
					panic("route: item key equals MaxKey (reserved)")
				}
				b = append(b, elem[T]{k, v})
			}
			slices.SortStableFunc(b, func(x, y elem[T]) int { return cmp.Compare(x.key, y.key) })
			var zero T
			for len(b) < L {
				b = append(b, elem[T]{MaxKey, zero})
			}
			blocks[p] = b
		}
	}
	return blocks
}

// storeBlocks strips pads and writes blocks back into the items layout.
func storeBlocks[T any](m *mesh.Machine, r mesh.Region, items [][]T, blocks [][]elem[T]) [][]T {
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			items[p] = items[p][:0]
			for _, e := range blocks[p] {
				if e.key != MaxKey {
					items[p] = append(items[p], e.val)
				}
			}
		}
	}
	return items
}

// oetLine performs odd-even transposition with merge-split blocks along
// the given line of processors: len(line) rounds, each exchanging and
// splitting neighboring blocks so that the lower-index processor keeps
// the L smallest of the 2L combined items.
func oetLine[T any](blocks [][]elem[T], line []int, L int) {
	n := len(line)
	merged := make([]elem[T], 0, 2*L)
	for round := 0; round < n; round++ {
		start := round % 2
		for i := start; i+1 < n; i += 2 {
			merged = mergeSplit(blocks, line[i], line[i+1], L, merged)
		}
	}
}

// mergeSplit merges the sorted blocks at processors lo and hi and
// splits the result, smallest L items to lo. merged is scratch space,
// returned for reuse.
func mergeSplit[T any](blocks [][]elem[T], lo, hi, L int, merged []elem[T]) []elem[T] {
	a, b := blocks[lo], blocks[hi]
	merged = merged[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].key <= b[j].key {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	copy(a, merged[:L])
	copy(b, merged[L:])
	return merged
}

// sortSnakeNet is the shearsort merge-split network simulated round by
// round — odd-even transposition along every row and column for
// shearSortPhases(H) iterations, then one final row pass. It has
// SortSnake's contract and returns the block length and SortCost of the
// same region.
func sortSnakeNet[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	L := maxLoad(m, r, items)
	if L == 0 {
		return items, 0, 0
	}
	blocks := loadBlocks(m, r, items, key, L)
	if r.H == 1 || r.W == 1 {
		var line []int
		if r.H == 1 {
			line = rowLine(m, r, 0)
		} else {
			line = colLine(m, r, 0)
		}
		oetLine(blocks, line, L)
	} else {
		for p := 0; p < shearSortPhases(r.H); p++ {
			for j := 0; j < r.H; j++ {
				oetLine(blocks, rowLine(m, r, j), L)
			}
			for c := 0; c < r.W; c++ {
				oetLine(blocks, colLine(m, r, c), L)
			}
		}
		for j := 0; j < r.H; j++ {
			oetLine(blocks, rowLine(m, r, j), L)
		}
	}
	return storeBlocks(m, r, items, blocks), L, SortCost(r, L)
}

// rotPkt carries one element of a rotating block to its target column.
type rotPkt[T any] struct {
	e elem[T]
	d int
}

// sortSnakeRotateNet is the RotateSort network (rotatesort.go)
// simulated round by round: every column sort and row pass runs its
// merge-split rounds, and every row rotation is routed by the greedy
// router, so steps counts the cycles of the slowest window of each
// rotation as routed, not as RotateSortCost computes them. Like
// SortSnakeRotate it falls back to the shearsort network where
// CanRotateSort(r) is false.
func sortSnakeRotateNet[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	if !CanRotateSort(r) {
		return sortSnakeNet(m, r, items, key)
	}
	L := maxLoad(m, r, items)
	if L == 0 {
		return items, 0, 0
	}
	blocks := loadBlocks(m, r, items, key, L)
	side := r.H
	v := isqrt(side)

	// sortColsBands sorts every column independently within horizontal
	// bands of height h (band b covers rows [b·h, (b+1)·h)). All columns
	// and bands operate in parallel: one charge of h·L.
	sortColsBands := func(h int) {
		for b := 0; b < side/h; b++ {
			for c := 0; c < side; c++ {
				line := make([]int, h)
				for j := 0; j < h; j++ {
					line[j] = m.IDOf(r.R0+b*h+j, r.C0+c)
				}
				oetLine(blocks, line, L)
			}
		}
		steps += int64(h) * int64(L)
	}

	// rotateRowsWindows rotates every row within column windows of
	// width w (window s covers cols [s·w, (s+1)·w)) by shift(row mod
	// period) positions. All rows and windows run in parallel; the
	// routing cost of the worst window is charged once.
	eng := NewEngine[rotPkt[T]](m)
	pkts := make([][]rotPkt[T], m.N)
	dlv := make([][]rotPkt[T], m.N)
	rotateRowsWindows := func(w, period int, shift func(rel int) int) {
		var maxCost int64
		for j := 0; j < side; j++ {
			s := shift(j%period) % w
			if s == 0 {
				continue
			}
			row := r.R0 + j
			for win := 0; win < side/w; win++ {
				c0 := win * w
				line := mesh.Region{R0: row, C0: r.C0 + c0, H: 1, W: w}
				for c := 0; c < w; c++ {
					src := m.IDOf(row, r.C0+c0+c)
					dst := m.IDOf(row, r.C0+c0+(c+s)%w)
					for _, e := range blocks[src] {
						pkts[src] = append(pkts[src], rotPkt[T]{e, dst})
					}
				}
				_, cost := eng.Route(dlv, Tile(line), pkts, func(p rotPkt[T]) int { return p.d })
				maxCost = max(maxCost, cost)
				for c := 0; c < w; c++ {
					p := m.IDOf(row, r.C0+c0+c)
					blk := blocks[p][:0]
					for _, pk := range dlv[p] {
						blk = append(blk, pk.e)
					}
					blocks[p] = blk
					dlv[p] = dlv[p][:0]
				}
			}
		}
		steps += maxCost
	}

	// rowPass runs odd-even transposition along every row: in snake
	// order (odd rows descending) when snake is set, else ascending.
	rowPass := func(snake bool) {
		for j := 0; j < side; j++ {
			line := rowLine(m, r, j)
			if !snake && j%2 == 1 {
				slices.Reverse(line)
			}
			oetLine(blocks, line, L)
		}
		steps += int64(side) * int64(L)
	}

	unblock := func() {
		rotateRowsWindows(side, side, func(rel int) int { return (rel * v) % side })
		sortColsBands(side)
	}

	// 1. balance vertical slices (side×v each, in parallel).
	sortColsBands(side)
	rotateRowsWindows(v, side, func(rel int) int { return rel % v })
	sortColsBands(side)
	// 2. unblock.
	unblock()
	// 3. balance horizontal slices (v×side each, in parallel).
	sortColsBands(v)
	rotateRowsWindows(side, v, func(rel int) int { return rel % side })
	sortColsBands(v)
	// 4. unblock.
	unblock()
	// 5. shear ×3.
	for range 3 {
		rowPass(true)
		sortColsBands(side)
	}
	// 6. final row sort ascending (row-major order).
	rowPass(false)
	// Convert row-major to snake: odd rows descending.
	for j := 1; j < side; j += 2 {
		oetLine(blocks, rowLine(m, r, j), L)
	}
	steps += int64(side) * int64(L)

	return storeBlocks(m, r, items, blocks), L, steps
}

// snakeSort is the signature every snake sort shares.
type snakeSort func(*mesh.Machine, mesh.Region, [][]item, Key[item]) ([][]item, int, int64)

// snakeSorts pairs each charged snake sort with its round-by-round
// network reference and the cost both must report, for the tests every
// snake sort must pass.
var snakeSorts = []struct {
	name      string
	sort, net snakeSort
	cost      func(mesh.Region, int) int64
}{
	{"shearsort", SortSnake[item], sortSnakeNet[item], SortCost},
	{"rotatesort", SortSnakeRotate[item], sortSnakeRotateNet[item], RotateSortCost},
}

// eachSnakeSort calls f with every charged sort and every network
// reference of snakeSorts, named, and the cost it must report.
func eachSnakeSort(f func(name string, sort snakeSort, cost func(mesh.Region, int) int64)) {
	for _, ss := range snakeSorts {
		f(ss.name, ss.sort, ss.cost)
		f(ss.name+" network", ss.net, ss.cost)
	}
}

// unevenItems gives every processor of the machine 0…maxLoad items,
// one chosen processor exactly maxLoad, keyed key(i) for the i-th item
// dealt.
func unevenItems(m *mesh.Machine, maxLoad int, rng *rand.Rand, key func(i int) uint64) [][]item {
	items := make([][]item, m.N)
	full := rng.Intn(m.N)
	n := 0
	for p := range items {
		l := rng.Intn(maxLoad + 1)
		if p == full {
			l = maxLoad
		}
		for range l {
			items[p] = append(items[p], item{key: key(n), id: n})
			n++
		}
	}
	return items
}

// adversarialKeys are key patterns over the i-th item dealt:
// presorted, reversed and three with many equal keys.
var adversarialKeys = []struct {
	name string
	key  func(i int) uint64
}{
	{"sorted", func(i int) uint64 { return uint64(i) }},
	{"reversed", func(i int) uint64 { return uint64(1<<20 - i) }},
	{"constant", func(int) uint64 { return 7 }},
	{"binary", func(i int) uint64 { return uint64(i % 2) }},
	{"sawtooth", func(i int) uint64 { return uint64(i % 9) }},
}

// TestSnakeSortsMatchNetworks is the sorting oracle at scale: on full
// meshes of sides 4–49 with uneven loads, every charged sort must equal
// its round-by-round network — the same layout, block length and steps
// for distinct keys, and for the adversarialKeys patterns a sorted,
// blocked layout of the same keys with the same block length and
// steps. For rotatesort this checks RotateSortCost's uniform rotation
// instances against the rotations the network routes. One side-81
// case with distinct keys runs outside the race detector.
func TestSnakeSortsMatchNetworks(t *testing.T) {
	type sortCase struct {
		side     int
		maxLoads []int
	}
	cases := []sortCase{{4, []int{1, 2, 3, 5}}, {9, []int{1, 2, 3, 5}}, {16, []int{1, 2, 3, 5}}, {25, []int{1, 3, 5}}, {36, []int{2}}, {49, []int{3}}}
	if !raceEnabled {
		cases = append(cases, sortCase{81, []int{3}})
	}
	for _, ss := range snakeSorts {
		for _, tc := range cases {
			m := mesh.MustNew(tc.side)
			r := m.Full()
			rng := rand.New(rand.NewSource(int64(tc.side)))
			for _, L := range tc.maxLoads {
				perm := rng.Perm(m.N * L)
				items := unevenItems(m, L, rng, func(i int) uint64 { return uint64(perm[i]) })
				a, la, sa := ss.net(m, r, cloneItems(items), func(v item) uint64 { return v.key })
				b, lb, sb := ss.sort(m, r, items, func(v item) uint64 { return v.key })
				if la != L || lb != L || sa != sb {
					t.Fatalf("%s side %d load %d: network (L %d, %d steps), sort (L %d, %d steps)", ss.name, tc.side, L, la, sa, lb, sb)
				}
				requireSameLayout(t, m, r, a, b)
				if tc.side == 81 {
					continue
				}
				for _, pat := range adversarialKeys {
					items := unevenItems(m, L, rng, pat.key)
					a, la, sa := ss.net(m, r, cloneItems(items), func(v item) uint64 { return v.key })
					b, lb, sb := ss.sort(m, r, items, func(v item) uint64 { return v.key })
					if la != lb || sa != sb {
						t.Fatalf("%s side %d load %d %s: network (L %d, %d steps), sort (L %d, %d steps)", ss.name, tc.side, L, pat.name, la, sa, lb, sb)
					}
					ka, kb := collect(m, r, a), collect(m, r, b)
					if len(ka) != len(kb) {
						t.Fatalf("%s side %d load %d %s: %d items after the network, %d after the sort", ss.name, tc.side, L, pat.name, len(ka), len(kb))
					}
					for i := range ka {
						if ka[i].key != kb[i].key || (i > 0 && ka[i-1].key > ka[i].key) {
							t.Fatalf("%s side %d load %d %s: rank %d keys network %d, sort %d", ss.name, tc.side, L, pat.name, i, ka[i].key, kb[i].key)
						}
					}
					requireBlocked(t, m, r, a, la)
					requireBlocked(t, m, r, b, lb)
				}
			}
		}
	}
}

// TestSortBufReuse sorts a run of regions of different sizes, loads and
// key patterns through one SortBuf, as core does within a step, and
// checks every call against a fresh one-shot sort: the same layout,
// block length and steps. Between calls the buffer holds no item.
func TestSortBufReuse(t *testing.T) {
	m := mesh.MustNew(27)
	rng := rand.New(rand.NewSource(3))
	var buf SortBuf[item]
	key := func(v item) uint64 { return v.key }
	for i, c := range []struct {
		r    mesh.Region
		load int
		key  func(i int) uint64
	}{
		{m.Full(), 4, func(i int) uint64 { return uint64(rng.Intn(1 << 20)) }},
		{mesh.Region{R0: 3, C0: 9, H: 3, W: 9}, 2, adversarialKeys[2].key},
		{mesh.Region{R0: 0, C0: 0, H: 9, W: 9}, 5, adversarialKeys[4].key},
		{m.Full(), 1, adversarialKeys[1].key},
	} {
		for _, rotate := range []bool{false, true} {
			items := unevenItems(m, c.load, rng, c.key)
			for p := range items {
				if !c.r.Contains(m, p) {
					items[p] = nil
				}
			}
			wantSort, gotSort := SortSnake[item], buf.SortSnake
			if rotate {
				wantSort, gotSort = SortSnakeRotate[item], buf.SortSnakeRotate
			}
			want, wantL, wantS := wantSort(m, c.r, cloneItems(items), key)
			got, gotL, gotS := gotSort(m, c.r, items, key)
			if gotL != wantL || gotS != wantS || !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d (%v, rotate %v): reused buffer gave L %d, %d steps; fresh L %d, %d steps; layouts equal %v",
					i, c.r, rotate, gotL, gotS, wantL, wantS, reflect.DeepEqual(got, want))
			}
			for j, v := range buf.vals[:cap(buf.vals)] {
				if v != (item{}) {
					t.Fatalf("call %d: buffer keeps item %v at %d", i, v, j)
				}
			}
		}
	}
}
