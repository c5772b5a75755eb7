package route

import (
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// Cost is the per-phase step breakdown of a routing operation. Parallel
// submesh phases are already reduced to their maximum.
type Cost struct {
	Sort   int64 // sorting packets by destination (submesh)
	Rank   int64 // ranking / prefix-sum passes
	Coarse int64 // routing to the destination submesh (balanced)
	Fine   int64 // routing within submeshes to the final processor
}

// Total returns the summed step count.
func (c Cost) Total() int64 { return c.Sort + c.Rank + c.Coarse + c.Fine }

// destPkt pairs an item with a destination processor.
type destPkt[T any] struct {
	val T
	d   int
}

// stagedPkt additionally carries the destination submesh index and the
// balanced intermediate position of the coarse phase.
type stagedPkt[T any] struct {
	val   T
	d     int
	sub   int
	inter int
}

// RouteL1L2 performs general (l1,l2)-routing inside the region: packets
// are first sorted by destination into balanced snake blocks (the
// derandomized substitute for the randomized smoothing phase of [SK93])
// and then routed greedily. Theorem 2 promises √(l1·l2·n) + O(l1·√n);
// experiment E5 checks the measured envelope.
func RouteL1L2[T any](m *mesh.Machine, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, cost Cost) {
	sp := m.Ledger().Begin("l1l2-routing", trace.PhaseForward)
	defer func() {
		sp.Observe(cost.Total())
		sp.End()
	}()
	wrapped := make([][]destPkt[T], m.N)
	forRegion(m, r, func(p int) {
		for _, v := range items[p] {
			wrapped[p] = append(wrapped[p], destPkt[T]{v, dest(v)})
		}
		items[p] = items[p][:0]
	})
	sorted, _, sortSteps := SortSnake(m, r, wrapped, func(p destPkt[T]) uint64 { return uint64(p.d) })
	cost.Sort = sortSteps
	routed, routeSteps := NewEngine[destPkt[T]](m).Route(nil, Tile(r), sorted, func(p destPkt[T]) int { return p.d })
	cost.Fine = routeSteps

	delivered = make([][]T, m.N)
	forRegion(m, r, func(p int) {
		for _, pk := range routed[p] {
			delivered[p] = append(delivered[p], pk.val)
		}
	})
	return delivered, cost
}

// RouteStaged performs (l1,l2,δ,m)-routing (§2 of the paper): the
// region is tessellated into `parts` submeshes (parts a power of q);
// packets are sorted and ranked by destination submesh, routed to a
// balanced position inside it (rank mod submesh size), and finally
// routed within each submesh — all submeshes operating in parallel, so
// the fine phase is charged as the maximum over submeshes.
func RouteStaged[T any](m *mesh.Machine, r mesh.Region, q, parts int, items [][]T, dest func(T) int) (delivered [][]T, cost Cost) {
	sp := m.Ledger().BeginPar("staged-routing", trace.PhaseForward)
	defer func() {
		sp.Observe(cost.Total())
		sp.End()
	}()
	subs, err := r.SplitQ(q, parts)
	if err != nil {
		panic(err)
	}
	wrapped := make([][]stagedPkt[T], m.N)
	forRegion(m, r, func(p int) {
		for _, v := range items[p] {
			d := dest(v)
			wrapped[p] = append(wrapped[p], stagedPkt[T]{val: v, d: d, sub: r.SubRegionIndex(m, q, parts, d)})
		}
		items[p] = items[p][:0]
	})

	// Sort by (submesh, destination) so packets for one submesh are
	// contiguous in snake order.
	keyOf := func(p stagedPkt[T]) uint64 { return uint64(p.sub)<<32 | uint64(uint32(p.d)) }
	sorted, _, sortSteps := SortSnake(m, r, wrapped, keyOf)
	cost.Sort = sortSteps

	// Rank within each destination-submesh group (a segmented prefix
	// pass, charged as one snake prefix-sum).
	cost.Rank = 3*int64(r.W-1) + int64(r.H-1)
	rankSp := m.Ledger().Begin("rank", trace.PhaseRank)
	rankSp.Observe(cost.Rank)
	groupSeen := make(map[int]int, parts)
	for i := 0; i < r.Size(); i++ {
		p := r.ProcAtSnake(m, i)
		for j := range sorted[p] {
			pk := &sorted[p][j]
			rank := groupSeen[pk.sub]
			groupSeen[pk.sub] = rank + 1
			sub := subs[pk.sub]
			pk.inter = sub.ProcAtSnake(m, rank%sub.Size())
		}
	}
	rankSp.End()

	// Coarse phase: route to balanced intermediate positions.
	eng := NewEngine[stagedPkt[T]](m)
	coarse, coarseSteps := eng.Route(nil, Tile(r), sorted, func(p stagedPkt[T]) int { return p.inter })
	cost.Coarse = coarseSteps

	// Fine phase: within each submesh, in parallel; charge the slowest.
	tiles := Tiles{N: len(subs), At: func(i int) mesh.Region { return subs[i] }}
	fine, fineSteps := eng.Route(nil, tiles, coarse, func(p stagedPkt[T]) int { return p.d })
	cost.Fine = fineSteps
	delivered = make([][]T, m.N)
	forRegion(m, r, func(p int) {
		for _, pk := range fine[p] {
			delivered[p] = append(delivered[p], pk.val)
		}
	})
	return delivered, cost
}

// forRegion invokes fn for every processor id in the region, row-major.
func forRegion(m *mesh.Machine, r mesh.Region, fn func(p int)) {
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			fn(m.IDOf(row, col))
		}
	}
}
