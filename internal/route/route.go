// Package route implements the mesh algorithms the simulation scheme is
// built from (paper §2): sorting into snake order, ranking via prefix
// sums, cycle-accurate greedy (dimension-ordered) packet routing, the
// general (l1,l2)-routing, and the submesh-staged (l1,l2,δ,m)-routing
// whose superiority under bounded submesh congestion is the engine of
// the access protocol.
//
// Greedy routing is one persistent Engine with two calls, both over a
// tiling (Tiles) of disjoint submeshes that route in parallel and are
// charged at the slowest one: Route on a healthy network, and
// RouteFault, which honors the machine's fault map and reports the
// packets it loses.
//
// Every algorithm is a pure function over per-processor item slices
// (indexed by absolute processor id) confined to a mesh.Region. It
// returns the number of machine steps the operation takes under the
// cost model of DESIGN.md §6 and does not charge the machine itself;
// callers compose costs (summing sequential phases, taking the maximum
// over submeshes that operate in parallel) and charge the total. When
// the machine carries a trace.Ledger, each algorithm additionally opens
// an observe-only span recording its own rounds and packet counts for
// per-submesh audit — observed steps never enter ledger totals, so the
// charging discipline above is unchanged.
//
// Sorting is charged as a data-oblivious merge-split network —
// shearsort (SortSnake) or RotateSort (SortSnakeRotate) — so its step
// count is a function of the region and block size only. Both produce
// the networks' common result with one global sort and charge the
// chosen network's exact cost (SortCost, RotateSortCost) without
// simulating its rounds; the tests keep both round-by-round networks as
// the references the sorts are checked against.
package route

import (
	"cmp"
	"slices"

	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// MaxKey is reserved for padding; item keys must be strictly smaller.
const MaxKey = ^uint64(0)

// Key extracts a sort key from an item. Keys must be < MaxKey.
type Key[T any] func(T) uint64

// maxLoad returns the maximum number of items held by a processor of
// the region.
func maxLoad[T any](m *mesh.Machine, r mesh.Region, items [][]T) int {
	L := 0
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			if l := len(items[m.IDOf(row, col)]); l > L {
				L = l
			}
		}
	}
	return L
}

// totalLoad returns the number of items held in the region.
func totalLoad[T any](m *mesh.Machine, r mesh.Region, items [][]T) int {
	t := 0
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			t += len(items[m.IDOf(row, col)])
		}
	}
	return t
}

// shearSortPhases returns the number of (row,col) iterations shearsort
// performs for a region of height h.
func shearSortPhases(h int) int {
	p := 1
	for v := 1; v < h; v *= 2 {
		p++
	}
	return p
}

// SortCost returns the step count of SortSnake on region r with block
// length L (data-oblivious, so cost is exact, not a bound).
func SortCost(r mesh.Region, L int) int64 {
	if L == 0 {
		return 0
	}
	if r.H == 1 {
		return int64(r.W) * int64(L)
	}
	if r.W == 1 {
		return int64(r.H) * int64(L)
	}
	it := shearSortPhases(r.H)
	return int64(it)*(int64(r.W)+int64(r.H))*int64(L) + int64(r.W)*int64(L)
}

// SortSnake sorts all items of the region into snake order by key. On
// return every processor holds a block of exactly blockLen slots in the
// padded layout with pads stripped, so the item at local index i of the
// processor with snake index s has global rank s·blockLen + i, and the
// items occupying the lowest ranks are the smallest. steps is the exact
// cost of the shearsort merge-split network (= SortCost(r, blockLen)),
// whose blockLen is the maximum initial load.
//
// The network is data-oblivious, so SortSnake charges it without
// simulating its rounds: it sorts all items of the region globally and
// deals them into snake-ordered blocks. The sort moves (key, input
// index) pairs, not the items: the index breaks key ties, so the order
// is the stable order of the network, and the values are gathered once
// at the end. The round-by-round network is kept in the tests as the
// reference SortSnake is checked against.
func SortSnake[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	return sortSnake(m, r, items, key, "sortsnake", SortCost)
}

// sortSnake is the one snake sort behind SortSnake and SortSnakeRotate:
// it deals the items of the region, globally sorted by (key, input
// index), into snake-ordered blocks of the maximum initial load L and
// charges cost(r, L) under a sort span of the given name.
func sortSnake[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T], name string, cost func(mesh.Region, int) int64) (out [][]T, blockLen int, steps int64) {
	sp := m.Ledger().Begin(name, trace.PhaseSort)
	defer func() {
		sp.Observe(steps)
		sp.End()
	}()
	L := maxLoad(m, r, items)
	if L == 0 {
		return items, 0, 0
	}
	total := totalLoad(m, r, items)
	vals := make([]T, 0, total)
	order := make([]keyIdx, 0, total)
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for _, v := range items[p] {
				k := key(v)
				if k == MaxKey {
					panic("route: item key equals MaxKey (reserved)")
				}
				order = append(order, keyIdx{k, len(vals)})
				vals = append(vals, v)
			}
			items[p] = items[p][:0]
		}
	}
	slices.SortFunc(order, func(a, b keyIdx) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	out = items
	for rank, e := range order {
		p := r.ProcAtSnake(m, rank/L)
		out[p] = append(out[p], vals[e.idx])
	}
	return out, L, cost(r, L)
}

// keyIdx is sortSnake's sort record: an item's key and its index
// in collection order.
type keyIdx struct {
	key uint64
	idx int
}
