package route

import (
	"fmt"
	"slices"
	"unsafe"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// Engine is the persistent, allocation-lean greedy router: cycle-accurate
// dimension-ordered (column-first) routing, in which every directed link
// carries at most one packet per cycle, chosen by farthest remaining
// distance first (ties by injection order), over unbounded
// store-and-forward buffers. It keeps every buffer it needs across
// calls, so a hot loop (a protocol stage per PRAM step, a baseline
// batch, a repair scrub) routes without rebuilding queue or arrival
// storage.
//
// It has two routing calls, both over a tiling (Tiles) of disjoint
// submeshes routed in parallel and charged at the slowest one: Route on
// a healthy network, and RouteFault, which honors the machine's fault
// map and reports the packets it loses.
//
// Layout and algorithm:
//
//   - packets live in a flat struct-of-arrays slab (value, destination,
//     remaining distance, outgoing direction, previous hop), indexed by
//     slot id; slot ids are assigned in injection order, so the slot id
//     doubles as the deterministic tie-break key;
//   - per-node queues hold slot ids and keep their capacity across
//     calls (the free-list: the slab and all queues are truncated, not
//     freed, when a call completes);
//   - an active-node worklist holds exactly the occupied nodes, sorted
//     into region row-major order each cycle, so a cycle costs
//     O(occupied nodes + queued packets) instead of O(region);
//   - each packet caches its (direction, remaining distance): the
//     distance decreases by one per hop and the direction is only
//     recomputed when the packet crosses its destination column (or,
//     after a fault detour, at the new position, and at the destination
//     row for a packet a detour moved off its column).
//
// The engine runs on the caller's goroutine: a sweep selects each
// node's winners in worklist order into one arrival buffer, and the
// merge applies them in that order (DESIGN.md §10).
//
// A healthy mesh tile does not sweep the region at all: it solves each
// row and column pipeline on its own (lines.go, DESIGN.md §17), one
// packet at a time in static priority order, each packet taking every
// link at the first cycle no higher-priority packet uses. Charged
// cycles, delivered contents and delivery order are bit-identical to
// the cycle loop on a healthy machine; only the executed iteration
// count (Executed, and the ledger's Exec counter) differs, never
// exceeding the charged cycles. A fault map that marks only dead
// modules blocks no link, so such RouteFault calls take the line solver
// too (linesSafe). The torus (a wrap tiling), whose rings have no
// static priority order, and every faulted network run the engine's one
// cycle-stepped loop (DESIGN.md §11): it sweeps every charged cycle, so
// there Executed counts sweeps and equals the charged cycles.
//
// An Engine is not safe for concurrent use; give each goroutine its
// own. The zero value is not usable — construct with NewEngine.
type Engine[T any] struct {
	m *mesh.Machine

	// Struct-of-arrays packet slab, truncated (capacity kept) per call.
	// Slot i was the i-th routed packet injected, so slot order is the
	// historical seq order.
	val   []T
	dests []int32
	dcol  []int32 // cached destination column of each slot
	dist  []int32
	dir   []int8
	from  []int32 // previous hop (-1 at injection); fault path only

	queues  [][]int32 // region-local node id → queued slot ids
	inQ     []bool    // region-local node id → on the worklist
	active  []int32   // worklist: occupied region-local node ids
	scratch []int32   // worklist double-buffer for the rebuild pass

	arr []engArrival // this cycle's hops, in sweep order

	execs int64 // executed iterations of the last call

	// Line-decomposed healthy path (lines.go); the n-entry queue and
	// worklist tables above are not used by it.
	rowAt     []int32    // slab offset of each region row's first packet
	colAt     []int32    // column-line bucket bounds in colq
	colq      []uint64   // column-line entries: entry cycle<<32 | slot
	lnKeys    []uint64   // a mesh row line's sort keys (lnKey)
	lnPk      []lnPacket // a mesh line's packets in priority order
	dBits     []uint64   // mesh line: links taken, per diagonal; zero at rest
	lBits     []uint64   // mesh line: cycles taken, per link; zero at rest
	lnRuns    []uint64   // the runs this line marked: diagonal<<32 | x<<16 | y
	lnFlushed int        // how many of lnRuns are copied into lBits
	dcnt      []int32    // per destination node: delivery group bounds
	dorder    []int32    // routed slots grouped by destination

	// Local-knowledge fault dissemination (nil view = global knowledge,
	// the historical bit-identical behavior). A sweep collects
	// discoveries, drops and the wait count; flushLocal folds them in
	// after the sweep (DESIGN.md §13).
	view  *faultview.View
	ptry  []int8                // per-slot failed-probe count
	pwait []int64               // per-slot earliest next probe cycle
	disc  []faultview.Discovery // this sweep's discoveries
	dropq []engDrop             // this sweep's probe-budget drops
	wcnt  int                   // this sweep's backoff-waiting slots

	cycleLoop bool // test seam: never take the line solver (ForceCycleLoop)
}

// SetFaultView installs a local-knowledge fault view: the fault-aware
// routing paths then consult each node's gossip-updated belief instead
// of the machine's global fault map, with stale-view detours, bounded
// rediscovery probes and propagation-latency losses. Nil restores the
// global (omniscient) behavior, as does a machine without a fault map.
// The view advances one gossip round per charged fault-routing cycle.
func (e *Engine[T]) SetFaultView(v *faultview.View) { e.view = v }

// Executed returns the physically executed iterations of the most
// recent routing call, the most of any of its tiles: the sweeps of the
// cycle loop, or on the line solver the most free runs any one packet
// made on a mesh line (one, plus one per wait). It is ≤ the call's
// charged cycle count, with equality wherever the engine sweeps.
func (e *Engine[T]) Executed() int64 { return e.execs }

// engArrival is one packet crossing into a new processor this cycle.
type engArrival struct {
	to    int32 // absolute destination processor of the hop
	slot  int32
	fromP int32 // node that sent it (fault path: backtrack demotion)
	// detour marks a hop off the preferred dimension-ordered direction;
	// the merge then recomputes the packet's cached (dir, dist) from
	// scratch instead of updating incrementally.
	detour bool
}

// engDrop is one packet whose rediscovery budget ran out, recorded by
// the sweep and removed from its queue by flushLocal.
type engDrop struct {
	lp   int32 // region-local node holding the packet
	slot int32
}

// engProbeBudget is how many failed physical probes a packet tolerates
// (with exponential backoff between them) before it is charged as lost.
const engProbeBudget = 8

// NewEngine creates a reusable greedy router for the machine.
func NewEngine[T any](m *mesh.Machine) *Engine[T] {
	return &Engine[T]{m: m}
}

// Tiles is the tiling one routing call routes in: N disjoint regions,
// tile i being At(i), routed one after another in index order. Every
// packet must be bound for a processor of the tile it starts in. Wrap
// marks the tiling whose one tile is the full machine with wrap-around
// links (the torus; see Whole).
type Tiles struct {
	N    int
	At   func(i int) mesh.Region
	Wrap bool
}

// Whole returns the tiling whose one tile is the full machine m, routed
// over wrap-around links when wrap is set.
func Whole(m *mesh.Machine, wrap bool) Tiles {
	t := Tile(m.Full())
	t.Wrap = wrap
	return t
}

// Tile returns the tiling whose one tile is r.
func Tile(r mesh.Region) Tiles {
	return Tiles{N: 1, At: func(int) mesh.Region { return r }}
}

// Route delivers every item of the tiles of t to its destination
// processor over healthy links, into dst (nil allocates), ignoring any
// fault map the machine carries. The tiles are disjoint, so they route
// in parallel on the machine: Route returns the delivered items per
// processor and the slowest tile's cycle count. One greedy span covers
// the call: it observes the slowest tile's cycles, counts the packets of
// every tile, and executes the most iterations any one tile executed.
// Each tile is routed exactly as a call on Tile(r) would route it, in
// index order; a destination outside the packet's own tile panics.
func (e *Engine[T]) Route(dst [][]T, t Tiles, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	//detlint:ignore checkederr a nil fault map loses no packet
	delivered, steps, _ = e.route(dst, t, items, dest, nil)
	return delivered, steps
}

// RouteFault is Route consulting the machine's fault map
// (mesh.Machine.Faults):
//
//   - a packet whose preferred dimension-ordered link is dead (or leads
//     to a dead node) detours: the remaining directions are tried in
//     order of resulting distance to the destination (ties by direction
//     index), staying inside the tile (wrap links on the torus), with
//     backtrack demotion;
//   - a slow link with factor f carries one packet only on cycles
//     divisible by f;
//   - retries are bounded: a packet still undelivered after the detour
//     budget (16·(H+W) + 4·#packets cycles) is dropped and counted in
//     the returned lost figure, as is a packet whose destination node
//     is dead at injection.
//
// Every cycle spent detouring or waiting is a charged machine step, so
// fault-induced slowdown lands in the ledger exactly like healthy
// routing cost. lost counts the packets lost in all tiles. With a nil
// (or empty) fault map the decisions are bit-identical to Route. When
// the machine's network has no fault — its fault map, if any, marks
// only dead modules, and a local view has never held a node or link
// fault — a tile is solved by the healthy line solver instead, with the
// same deliveries, order, charged cycles and gossip rounds. Under a
// local fault view the gossip advances tile by tile, as it would over
// one call per tile.
func (e *Engine[T]) RouteFault(dst [][]T, t Tiles, items [][]T, dest func(T) int) (delivered [][]T, steps int64, lost int) {
	return e.route(dst, t, items, dest, e.m.Faults())
}

// ForceCycleLoop makes every later routing call of e run the cycle
// loop, even where the line solver gives the same result. It is for
// tests only: the identity matrices use a forced engine as their
// reference. No configuration, scenario or flag reaches it, and
// detlint's deadcode check keeps it so: once production code calls it,
// this directive goes stale and ignoreaudit fails.
//
//detlint:ignore deadcode test seam: the identity matrices' forced-cycle-loop reference
func (e *Engine[T]) ForceCycleLoop() { e.cycleLoop = true }

// ensure sizes the per-node state for region r and truncates the slab.
func (e *Engine[T]) ensure(r mesh.Region) {
	nl := r.H * r.W
	if nl > len(e.queues) {
		if nl <= cap(e.queues) {
			e.queues = e.queues[:nl]
		} else {
			nq := make([][]int32, nl)
			copy(nq, e.queues)
			e.queues = nq
		}
	}
	if nl > len(e.inQ) {
		e.inQ = make([]bool, nl) // all-false at rest by invariant
	}
	e.resetSlab()
}

// resetSlab truncates the packet slab and the per-call counters.
func (e *Engine[T]) resetSlab() {
	e.val = e.val[:0]
	e.dests = e.dests[:0]
	e.dcol = e.dcol[:0]
	e.dist = e.dist[:0]
	e.dir = e.dir[:0]
	e.from = e.from[:0]
	e.execs = 0
}

// cleanup truncates every touched queue and clears the worklist, so the
// engine is back to its at-rest invariant (all queues empty, all inQ
// false) whatever state the routing loop ended in.
func (e *Engine[T]) cleanup() {
	for _, lp := range e.active {
		e.queues[lp] = e.queues[lp][:0]
		e.inQ[lp] = false
	}
	e.active = e.active[:0]
}

// Release drops every retained buffer of the engine — the packet slab,
// per-node queues, sweep buffers and line buffers — returning it to
// its just-constructed footprint. The engine stays fully usable: every
// buffer is lazily regrown by the next routing call. Call it only
// between routing calls (the at-rest invariant of cleanup must hold);
// it exists so a long-lived simulator can reach a compact quiescent
// state for snapshots and memory accounting.
func (e *Engine[T]) Release() {
	e.val, e.dests, e.dcol, e.dist, e.dir, e.from = nil, nil, nil, nil, nil, nil
	e.queues, e.inQ, e.active, e.scratch, e.arr = nil, nil, nil, nil, nil
	e.rowAt, e.colAt, e.colq, e.dcnt, e.dorder = nil, nil, nil, nil, nil
	e.lnKeys, e.lnPk, e.dBits, e.lBits, e.lnRuns = nil, nil, nil, nil, nil
	e.ptry, e.pwait, e.disc, e.dropq = nil, nil, nil, nil
}

// MemBytes returns the resident heap bytes retained by the engine's
// buffers (capacities, not lengths — the free-list keeps capacity
// across calls). The shared machine and fault view are not counted.
func (e *Engine[T]) MemBytes() int64 {
	var sz int64
	sz += int64(cap(e.val)) * int64(unsafe.Sizeof(*new(T)))
	sz += int64(cap(e.dests)+cap(e.dcol)+cap(e.dist)+cap(e.from)) * 4
	sz += int64(cap(e.dir)) * 1
	sz += int64(cap(e.queues)) * 24
	for _, q := range e.queues {
		sz += int64(cap(q)) * 4
	}
	sz += int64(cap(e.inQ))
	sz += int64(cap(e.active)+cap(e.scratch)) * 4
	sz += int64(cap(e.arr)) * int64(unsafe.Sizeof(engArrival{}))
	sz += int64(cap(e.ptry)) + int64(cap(e.pwait))*8
	sz += int64(cap(e.disc)) * int64(unsafe.Sizeof(faultview.Discovery{}))
	sz += int64(cap(e.dropq)) * int64(unsafe.Sizeof(engDrop{}))
	sz += int64(cap(e.rowAt)+cap(e.colAt)+cap(e.dcnt)+cap(e.dorder)) * 4
	sz += int64(cap(e.colq)+cap(e.lnKeys)+cap(e.dBits)+cap(e.lBits)+cap(e.lnRuns)) * 8
	sz += int64(cap(e.lnPk)) * int64(unsafe.Sizeof(lnPacket{}))
	return sz
}

// localOf maps an absolute processor id to its region-local index.
func (e *Engine[T]) localOf(p int, r mesh.Region) int {
	return (e.m.RowOf(p)-r.R0)*r.W + (e.m.ColOf(p) - r.C0)
}

// absOf maps a region-local index back to the absolute processor id.
func (e *Engine[T]) absOf(lp int, r mesh.Region) int {
	return e.m.IDOf(r.R0+lp/r.W, r.C0+lp%r.W)
}

// stepBounded returns the neighbor one hop in direction dir (0=-col,
// 1=+col, 2=-row, 3=+row), wrapping on the torus, where the region is
// the full machine; ok=false when the hop leaves region r. Preferred
// dimension-ordered hops never leave it.
func (e *Engine[T]) stepBounded(p, dir int, r mesh.Region, wrap bool) (int, bool) {
	m := e.m
	row, col := m.RowOf(p), m.ColOf(p)
	switch dir {
	case 0:
		col--
	case 1:
		col++
	case 2:
		row--
	default:
		row++
	}
	if wrap {
		s := m.Side
		return m.IDOf((row+s)%s, (col+s)%s), true
	}
	if row < r.R0 || row >= r.R0+r.H || col < r.C0 || col >= r.C0+r.W {
		return 0, false
	}
	return m.IDOf(row, col), true
}

// enqueue appends slot to node lp's queue, adding lp to the worklist
// being built when it was not occupied.
func (e *Engine[T]) enqueue(lp int, slot int32, wl []int32) []int32 {
	e.queues[lp] = append(e.queues[lp], slot)
	if !e.inQ[lp] {
		e.inQ[lp] = true
		wl = append(wl, int32(lp))
	}
	return wl
}

// inject drains items into the slab and queues. Packets already at
// their destination are delivered immediately; with a fault map f
// (RouteFault only — Route passes nil even on a faulted machine),
// packets to dead nodes are lost at injection. Returns the number of
// routed (queued) packets, which is also the slab length, and the
// injection losses.
func (e *Engine[T]) inject(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int, wrap bool, f *fault.Map) (active, lost int) {
	m := e.m
	wl := e.active
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for _, v := range items[p] {
				d := e.target(v, dest, r)
				if f != nil && e.view != nil {
					// Local knowledge: the origin refuses the send only if
					// *it believes* the destination is dead. A stale-alive
					// belief injects the packet toward a dead node (it is
					// lost in flight, discovering the death); a stale-dead
					// belief drops a deliverable packet — both are the
					// propagation-latency losses of DESIGN.md §13.
					if e.view.BeliefAt(p).NodeDead(d) {
						lost++
						continue
					}
				} else if f.NodeDead(d) {
					lost++ // undeliverable: the destination is dead
					continue
				}
				if d == p {
					delivered[p] = append(delivered[p], v)
					continue
				}
				slot := int32(len(e.val))
				e.push(v, p, d, wrap, -1)
				wl = e.enqueue(e.localOf(p, r), slot, wl)
				active++
			}
			items[p] = items[p][:0]
		}
	}
	e.active = wl
	return active, lost
}

// target returns v's destination, which must lie inside r.
func (e *Engine[T]) target(v T, dest func(T) int, r mesh.Region) int {
	d := dest(v)
	if !r.Contains(e.m, d) {
		panic(fmt.Sprintf("route: destination %d outside region %v", d, r))
	}
	return d
}

// push appends a packet at p bound for d to the slab, with the given
// from field, and returns its cached direction.
func (e *Engine[T]) push(v T, p, d int, wrap bool, from int32) int8 {
	dr := nextDir(e.m, p, d, wrap)
	e.val = append(e.val, v)
	e.dests = append(e.dests, int32(d))
	e.dcol = append(e.dcol, int32(e.m.ColOf(d)))
	e.dist = append(e.dist, int32(hopDist(e.m, p, d, wrap)))
	e.dir = append(e.dir, dr)
	e.from = append(e.from, from)
	return dr
}

// sweep runs one cycle's selection over the sorted worklist into
// e.arr: per occupied node, pick at most one packet per outgoing
// direction by farthest-remaining-distance first (ties by injection
// order = slot id), then compact the queue in place. With a fault map
// f a packet whose preferred link is unusable detours; with a nil map
// every packet takes its preferred hop. Returns the number of hops
// chosen.
func (e *Engine[T]) sweep(r mesh.Region, wrap bool, f *fault.Map, cycle int64) int {
	arr := e.arr[:0]
	local := f != nil && e.view != nil
	if local {
		e.disc = e.disc[:0]
		e.dropq = e.dropq[:0]
		e.wcnt = 0
	}
	for _, lpp := range e.active {
		lp := int(lpp)
		q := e.queues[lp]
		if len(q) == 0 {
			continue
		}
		p := e.absOf(lp, r)
		// best[dir] = queue index of chosen packet, -1 none.
		var best [4]int
		var bestDist [4]int32
		best[0], best[1], best[2], best[3] = -1, -1, -1, -1
		for qi, slot := range q {
			d := int(e.dir[slot])
			if local {
				d = e.localDir(slot, p, r, wrap, cycle, f)
				if d == -1 {
					continue // waiting, blocked, or freshly dropped
				}
			} else if f != nil {
				// Preferred healthy hop first (bit-identical when up),
				// then a detour.
				if to, _ := e.stepBounded(p, d, r, wrap); !usableLink(f, p, to, cycle) {
					d = e.detour(slot, p, r, wrap, cycle, f)
					if d == -1 {
						continue // blocked this cycle; wait
					}
				}
			}
			dd := e.dist[slot]
			if b := best[d]; b == -1 || dd > bestDist[d] ||
				(dd == bestDist[d] && slot < q[b]) {
				best[d] = qi
				bestDist[d] = dd
			}
		}
		picked := 0
		for d := 0; d < 4; d++ {
			if best[d] >= 0 {
				slot := q[best[d]]
				to, _ := e.stepBounded(p, d, r, wrap)
				arr = append(arr, engArrival{
					to: int32(to), slot: slot, fromP: int32(p),
					detour: int8(d) != e.dir[slot],
				})
				picked++
			}
		}
		if picked > 0 {
			// Compact in place, dropping the selected indexes.
			out := q[:0]
			for qi := range q {
				if qi != best[0] && qi != best[1] && qi != best[2] && qi != best[3] {
					out = append(out, q[qi])
				}
			}
			e.queues[lp] = out
		}
	}
	e.arr = arr
	return len(arr)
}

// detour picks the hop of the packet in slot at p when its preferred
// link is unusable under fault map f (the global map, or p's belief):
// the usable in-region neighbor closest to the destination, ties to the
// lower direction. The hop that undoes the previous move is a last
// resort — otherwise a packet blocked broadside ping-pongs between two
// nodes until the budget kills it. Returns -1 when no link is usable.
func (e *Engine[T]) detour(slot int32, p int, r mesh.Region, wrap bool, cycle int64, f *fault.Map) int {
	d, back := -1, -1
	var bd int32
	for cand := 0; cand < 4; cand++ {
		to, ok := e.stepBounded(p, cand, r, wrap)
		if !ok || !usableLink(f, p, to, cycle) {
			continue
		}
		if int32(to) == e.from[slot] {
			back = cand
			continue
		}
		dd := int32(hopDist(e.m, to, int(e.dests[slot]), wrap))
		if d == -1 || dd < bd {
			d, bd = cand, dd
		}
	}
	if d == -1 {
		return back
	}
	return d
}

// usableLink reports whether the p→to link may carry a packet this
// cycle: alive on both ends, not dead, and — for slow links — on a
// cycle divisible by the slow factor.
func usableLink(f *fault.Map, p, to int, cycle int64) bool {
	if !f.LinkUp(p, to) {
		return false
	}
	return cycle%int64(f.LinkDelay(p, to)) == 0
}

// localDir is the local-knowledge replacement for the global detour
// scan: the packet at node p picks its hop against p's *belief* (the
// gossip view), then the chosen hop is checked against the physical
// truth. A physically blocked hop the belief allowed — or a probe of a
// believed-dead link — is a discovery: the mismatch is recorded for
// Integrate, the packet backs off exponentially, and after
// engProbeBudget failed probes it is dropped (charged lost). Returns
// the chosen direction, or -1 when the packet does not move this
// cycle.
func (e *Engine[T]) localDir(slot int32, p int, r mesh.Region, wrap bool, cycle int64, f *fault.Map) int {
	if e.pwait[slot] > cycle {
		e.wcnt++
		return -1 // backing off until the next probe window
	}
	bel := e.view.BeliefAt(p)
	d := int(e.dir[slot])
	probe := false
	if to, _ := e.stepBounded(p, d, r, wrap); !usableLink(bel, p, to, cycle) {
		// Stale-view detour: the global candidate scan, but against the
		// local belief.
		nd := e.detour(slot, p, r, wrap, cycle, bel)
		if nd == -1 {
			// Nothing believed usable: probe the preferred link anyway —
			// the bounded rediscovery that corrects stale-dead beliefs.
			probe = true
			nd = d
		}
		d = nd
	}
	to, ok := e.stepBounded(p, d, r, wrap)
	if !ok {
		return -1 // probe of a region edge: nowhere to go this cycle
	}
	if !usableLink(f, p, to, cycle) {
		// The belief allowed a hop the physics refuses (or the probe
		// found the component still down): discover, back off, and give
		// up after the budget.
		e.discover(p, to, f)
		e.ptry[slot]++
		if e.ptry[slot] >= engProbeBudget {
			e.dropq = append(e.dropq, engDrop{lp: int32(e.localOf(p, r)), slot: slot})
			e.pwait[slot] = 1 << 60 // off the board until flushed
		} else {
			b := e.ptry[slot]
			if b > 4 {
				b = 4
			}
			e.pwait[slot] = cycle + int64(1)<<b
		}
		return -1
	}
	if probe {
		// The probe went through: the belief was stale-dead (or wrong
		// about the slow factor). Record the correction.
		e.discoverRevive(p, to, f, bel)
	}
	return d
}

// discover records the physical fault that blocked a hop the belief
// allowed, witnessed by the node holding the packet.
func (e *Engine[T]) discover(p, to int, f *fault.Map) {
	d := faultview.Discovery{Witness: p}
	switch {
	case f.NodeDead(to):
		d.Kind, d.P = fault.EvKillNode, to
	case !f.LinkUp(p, to):
		d.Kind, d.P, d.Q = fault.EvKillLink, p, to
	default:
		d.Kind, d.P, d.Q, d.Factor = fault.EvSlowLink, p, to, f.LinkDelay(p, to)
	}
	e.disc = append(e.disc, d)
}

// discoverRevive records the correction when a probe of a
// believed-unusable link physically succeeded.
func (e *Engine[T]) discoverRevive(p, to int, f, bel *fault.Map) {
	d := faultview.Discovery{Witness: p}
	switch {
	case bel.NodeDead(to):
		d.Kind, d.P = fault.EvReviveNode, to
	case !bel.LinkUp(p, to):
		d.Kind, d.P, d.Q = fault.EvReviveLink, p, to
	default:
		// The believed slow factor blocked this cycle but the link
		// carried the probe: correct the factor.
		if td := f.LinkDelay(p, to); td == 1 {
			d.Kind, d.P, d.Q = fault.EvHealLink, p, to
		} else {
			d.Kind, d.P, d.Q, d.Factor = fault.EvSlowLink, p, to, td
		}
	}
	e.disc = append(e.disc, d)
}

// flushLocal runs after each local-mode sweep: it removes the packets
// whose probe budget ran out (charged lost), integrates the sweep's
// discoveries into the gossip log, and advances one gossip round.
// Emptied nodes stay on the worklist (sweeps skip them; the next merge
// prunes them). Returns (packets dropped, backoff-waiting packets).
func (e *Engine[T]) flushLocal(f *fault.Map) (dropped, waiting int) {
	for _, dr := range e.dropq {
		q := e.queues[dr.lp]
		out := q[:0]
		for _, s := range q {
			if s != dr.slot {
				out = append(out, s)
			}
		}
		e.queues[dr.lp] = out
	}
	e.view.Integrate(e.disc, f)
	e.view.Tick(f)
	return len(e.dropq), e.wcnt
}

// merge applies one cycle's arrivals in sweep order:
// deliver packets that reached their destination, update each mover's
// cached (dir, dist) — incrementally after a preferred hop, anew after
// a detour — re-queue the rest, and rebuild the worklist
// (prune emptied nodes, add newly occupied ones). The worklist is kept
// sorted incrementally: pruning preserves order, and the tail of newly
// occupied nodes is sorted on its own and merged back in, so no cycle
// ever sorts the whole worklist. Returns the number of packets
// delivered this cycle.
func (e *Engine[T]) merge(delivered [][]T, r mesh.Region, wrap bool, f *fault.Map) int {
	m := e.m
	local := f != nil && e.view != nil
	done := 0
	// Prune first: a node emptied by the sweep leaves the worklist
	// unless an arrival below re-occupies it.
	wl := e.scratch[:0]
	for _, lp := range e.active {
		if len(e.queues[lp]) > 0 {
			wl = append(wl, lp)
		} else {
			e.inQ[lp] = false
		}
	}
	sorted := len(wl) // prune preserved order; enqueue appends after here
	for _, a := range e.arr {
		slot := a.slot
		to := int(a.to)
		e.from[slot] = a.fromP
		if local && e.ptry[slot] != 0 {
			// The packet moved: its rediscovery budget refills.
			e.ptry[slot] = 0
			e.pwait[slot] = 0
		}
		if a.detour {
			d := int(e.dests[slot])
			if to == d {
				delivered[to] = append(delivered[to], e.val[slot])
				done++
				continue
			}
			if e.dir[slot] >= 2 {
				// A detour off the vertical leg keeps the packet moving
				// vertically, beside the blocked column: the column-first
				// hop would lead straight back into it.
				e.dir[slot] = rowDirAfterCol(m, to, d, wrap)
			} else {
				e.dir[slot] = nextDir(m, to, d, wrap)
			}
			e.dist[slot] = int32(hopDist(m, to, d, wrap))
			wl = e.enqueue(e.localOf(to, r), slot, wl)
			continue
		}
		nd := e.dist[slot] - 1
		if nd == 0 {
			delivered[to] = append(delivered[to], e.val[slot])
			done++
			continue
		}
		e.dist[slot] = nd
		d := int(e.dests[slot])
		if e.dir[slot] <= 1 {
			if m.ColOf(to) == int(e.dcol[slot]) {
				e.dir[slot] = rowDirAfterCol(m, to, d, wrap)
			}
		} else if m.RowOf(to) == m.RowOf(d) {
			// Moving vertically beside its column after a detour, the
			// packet turns onto its row at the destination row.
			e.dir[slot] = nextDir(m, to, d, wrap)
		}
		wl = e.enqueue(e.localOf(to, r), slot, wl)
	}
	if tail := wl[sorted:]; len(tail) > 0 {
		if sorted == 0 {
			// Full rebuild (every node drained and re-occupied).
			e.scratch = e.active[:0]
			e.active = wl
			e.sortWorklist(r)
			return done
		}
		slices.Sort(tail)
		// Two-pointer merge of the sorted runs into the retired
		// worklist buffer (disjoint backing, and the runs share no
		// value: tail nodes were unoccupied when appended).
		out := e.active[:0]
		head := wl[:sorted]
		i, j := 0, 0
		for i < len(head) && j < len(tail) {
			if head[i] < tail[j] {
				out = append(out, head[i])
				i++
			} else {
				out = append(out, tail[j])
				j++
			}
		}
		out = append(out, head[i:]...)
		out = append(out, tail[j:]...)
		e.scratch = wl[:0]
		e.active = out
		return done
	}
	e.scratch = e.active[:0]
	e.active = wl
	return done
}

// sortWorklist restores region-row-major worklist order after a merge
// that rebuilt the whole worklist. It is an LSD radix sort — byte-wise
// counting passes over node ids, stable and deterministic — rather than
// a comparison sort; small worklists fall back to slices.Sort.
func (e *Engine[T]) sortWorklist(r mesh.Region) {
	a := e.active
	if len(a) < 64 {
		slices.Sort(a)
		return
	}
	if cap(e.scratch) < len(a) {
		e.scratch = make([]int32, len(a), cap(e.active))
	}
	b := e.scratch[:len(a)]
	var cnt [256]int32
	for shift := uint(0); (r.H*r.W-1)>>shift > 0; shift += 8 {
		for i := range cnt {
			cnt[i] = 0
		}
		for _, v := range a {
			cnt[uint8(v>>shift)]++
		}
		pos := int32(0)
		for i, c := range cnt {
			cnt[i] = pos
			pos += c
		}
		for _, v := range a {
			b[cnt[uint8(v>>shift)]] = v
			cnt[uint8(v>>shift)]++
		}
		a, b = b, a
	}
	if &a[0] != &e.active[0] {
		e.active, e.scratch = a, b[:0]
	}
}

// linesSafe reports, in O(1), whether routeLines solves a call over
// tile r of a tiling with or without wrap links under fault map f
// exactly as the cycle loop would. That holds when the tiling has no
// wrap links (a torus ring has no static priority order), the region
// fits the line encoding, f has no dead node, dead link or slow link,
// and a local view in use has never held one: then no injection is
// refused, no belief or link blocks a hop, and no probe or detour
// fires, so both deliver the same packets in the same order after the
// same cycles. (The loop's retry budget, 16·(H+W) + 4·#packets
// cycles, is far above what a healthy network needs: no route of the
// identity matrices reaches it.)
func (e *Engine[T]) linesSafe(r mesh.Region, wrap bool, f *fault.Map) bool {
	if e.cycleLoop || wrap || max(r.H, r.W) > lnMaxSide || !f.NetworkHealthy() {
		return false
	}
	return f == nil || e.view == nil || !e.view.NetworkFaultSeen()
}

// route is shared by Route and RouteFault; f is the fault map the call
// honors (nil for Route, even on a faulted machine).
// It routes the tiles of t one by one (routeTile) under one greedy span.
// A 1×1 tile holds only packets already at their target, so where
// linesSafe holds the line solver would deliver them in place and
// charge nothing; route does that without solving. Elsewhere a 1×1
// tile still takes the cycle loop, which can lose a packet at a dead
// node.
func (e *Engine[T]) route(dst [][]T, t Tiles, items [][]T, dest func(T) int, f *fault.Map) (delivered [][]T, steps int64, lost int) {
	m := e.m
	sp := m.Ledger().Begin("greedy", trace.PhaseForward)
	var execs int64
	defer func() {
		e.execs = execs
		sp.Observe(steps)
		sp.Exec(execs)
		if lost > 0 {
			sp.SetAttr("lost", int64(lost))
		}
		sp.End()
	}()
	if dst == nil {
		dst = make([][]T, m.N)
	}
	delivered = dst
	if t.Wrap && (t.N != 1 || t.At(0) != m.Full()) {
		panic("route: a wrap tiling has one tile, the full machine")
	}
	for i := range t.N {
		r := t.At(i)
		lines := e.linesSafe(r, t.Wrap, f)
		if lines && r.H == 1 && r.W == 1 {
			p := m.IDOf(r.R0, r.C0)
			for _, v := range items[p] {
				e.target(v, dest, r)
			}
			delivered[p] = append(delivered[p], items[p]...)
			items[p] = items[p][:0]
			continue
		}
		tileSteps, tileLost := e.routeTile(delivered, r, items, dest, t.Wrap, f, lines)
		sp.AddPackets(int64(len(e.val)))
		steps, lost, execs = max(steps, tileSteps), lost+tileLost, max(execs, e.execs)
	}
	return delivered, steps, lost
}

// routeTile routes the items of one tile r. Where linesSafe allows
// (lines), it solves the tile line by line (routeLines) and, under a
// local fault view, advances the gossip by the charged cycles in one
// batch. Otherwise it runs the engine's one cycle-stepped loop: one
// sweep and merge per charged cycle. With a fault map f that loop
// detours around dead links and nodes, waits on slow links, stops at
// the retry budget (16·(H+W) + 4·#packets cycles) or at the wedge break
// after a full slow period of silence, and counts the packets it loses;
// every cycle spent detouring or waiting is a charged machine step.
// Under a local fault view it advances one gossip round per cycle. With
// a nil map every packet takes its dimension-ordered path, exactly as
// routeLines solves it.
func (e *Engine[T]) routeTile(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int, wrap bool, f *fault.Map, lines bool) (steps int64, lost int) {
	local := f != nil && e.view != nil
	if lines {
		steps = e.routeLines(delivered, r, items, dest)
		if local {
			e.view.TickN(f, steps)
		}
		return steps, 0
	}
	e.ensure(r)
	active, lost := e.inject(delivered, r, items, dest, wrap, f)
	if local {
		// Per-slot probe state for this tile's slab, zeroed.
		n := len(e.val)
		if cap(e.ptry) < n {
			e.ptry = make([]int8, n)
			e.pwait = make([]int64, n)
		} else {
			e.ptry = e.ptry[:n]
			e.pwait = e.pwait[:n]
			for i := range e.ptry {
				e.ptry[i] = 0
				e.pwait[i] = 0
			}
		}
	}

	budget := int64(16*(r.H+r.W) + 4*active)
	maxDelay := int64(f.MaxDelay())
	idle := int64(0)
	for active > 0 && steps < budget {
		steps++
		e.execs++
		if e.sweep(r, wrap, f, steps) == 0 {
			// Nothing moved. With slow links a packet may be waiting for
			// its cycle; after a full slow period of silence the network
			// is provably wedged and the survivors are lost.
			if local {
				dropped, waiting := e.flushLocal(f)
				lost += dropped
				active -= dropped
				if waiting > 0 {
					// Backoff windows (up to 16 cycles) outlast the slow
					// period; the retry budget still bounds the loop.
					idle = -1
				}
			}
			idle++
			if idle >= maxDelay {
				break
			}
			continue
		}
		idle = 0
		active -= e.merge(delivered, r, wrap, f)
		if local {
			dropped, _ := e.flushLocal(f)
			lost += dropped
			active -= dropped
		}
	}
	lost += active // budget exhausted or wedged: survivors are dropped
	e.cleanup()
	return steps, lost
}
