package route

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// Engine is a persistent, allocation-lean greedy router. It simulates
// the same cycle-accurate dimension-ordered routing as GreedyRoute —
// bit-identically: delivered contents, per-processor delivery order,
// cycle counts and ledger spans all match the historical per-call
// router — but keeps every buffer it needs across Route calls, so a
// hot loop (a protocol stage per PRAM step, a baseline batch, a repair
// scrub) routes without rebuilding queue or arrival storage.
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
//     after a fault detour, from scratch at the new position) — the
//     per-cycle topology interface calls of the old router are gone;
//   - with mesh workers > 1 the selection sweep runs sharded: the
//     sorted worklist is cut into contiguous row-ordered strips of
//     roughly equal queued-packet counts, dispatched to a persistent
//     worker pool, and the per-worker arrival buffers are concatenated
//     in strip order. Selection is node-local and the strip order
//     equals the sequential sweep order, so the parallel sweep is
//     bit-identical to the sequential one by construction (DESIGN.md
//     §10).
//
// In the default ModeEvent the healthy path (Route, RouteTorus) does
// not sweep the region at all: it solves each row and column pipeline
// on its own (lines.go, DESIGN.md §17), and Executed is the most
// iterations any single line ran. The fault path is a
// discrete-event simulator of the cycle machine (DESIGN.md §11):
// whenever the last sweep saw no contention it computes the next-event
// horizon — the earliest future cycle at which any packet could change
// another packet's behaviour (a phase collision on a shared corridor, a
// fault hazard, an external schedule event, the retry budget) — and
// fast-forwards every in-flight packet along its cached (dir, dist)
// trajectory by k hops in one batch, charging k cycles at once; there
// Executed counts sweeps plus batches. Either way charged cycles,
// delivered contents and delivery order are bit-identical to ModeCycle,
// and only the executed iteration count (Executed, and the ledger's
// Exec counter) differs, never exceeding the charged cycles.
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

	arr  [][]engArrival // per-shard arrival buffers, merged in shard order
	csd  []bool         // per-shard contested flag for the last sweep
	cuts []int32        // shard boundaries (worklist indexes) of the last plan

	mode   EngineMode
	hsrc   HorizonSource
	vbkt   [][]uint64  // per-line packed trajectory-segment buckets (2·side lines)
	vtouch []int32     // lines touched by the current horizon attempt
	trjH   []int32     // per-slot horizontal hops, cached by skipHorizon
	trjV   []int8      // per-slot vertical direction, cached by skipHorizon
	delq   []engDel    // batched deliveries, sorted into cycle order
	haz    []engHazard // fault hazards of the current routeFault call
	hbuf   []fault.LinkHazard
	execs  int64 // executed iterations of the last call

	// Line-decomposed healthy path (lines.go); the n-entry queue and
	// worklist tables above are not used by it.
	rowAt  []int32    // slab offset of each region row's first packet
	colAt  []int32    // column-line bucket bounds in colq
	colq   []uint64   // column-line entries: entry cycle<<32 | slot
	lq     [][]uint64 // per line position: queued entries, winner last
	occ    []uint64   // occupied line positions
	lnMove []uint64   // free-run scratch: (position, entry) pairs
	dcnt   []int32    // per destination node: delivery group bounds
	dorder []int32    // routed slots grouped by destination

	lastContested bool
	// wlUnsorted marks a worklist left in first-occurrence order by a
	// batch advance. Only the selection sweep observes worklist order
	// (sweep order and arrival concatenation); batches read values,
	// never order, so sorting is deferred until the next sweep.
	wlUnsorted bool

	// Local-knowledge fault dissemination (nil view = global knowledge,
	// the historical bit-identical behavior). Per-slot probe state is
	// written only by the shard owning the packet's node; discoveries,
	// drops and wait counts are collected shard-locally and folded in at
	// a sequential point after each sweep, so the local mode stays
	// bit-identical at every worker width (DESIGN.md §13).
	view    *faultview.View
	ptry    []int8                  // per-slot failed-probe count
	pwait   []int64                 // per-slot earliest next probe cycle
	disc    [][]faultview.Discovery // per-shard in-flight discoveries
	dropq   [][]engDrop             // per-shard probe-budget drops
	wcnt    []int32                 // per-shard count of backoff-waiting slots
	discAll []faultview.Discovery   // sequential integration buffer
	hazLog  int                     // notice count e.haz was built against

	jobs   chan engJob[T] // persistent sweep worker pool
	pooled int
	wg     sync.WaitGroup
}

// EngineMode selects how the engine spends wall-clock iterations; both
// modes simulate the identical cycle machine.
type EngineMode uint8

const (
	// ModeEvent (the default) fast-forwards contention-free stretches:
	// executed iterations ≤ charged cycles, results bit-identical.
	ModeEvent EngineMode = iota
	// ModeCycle executes every charged cycle as one worklist sweep —
	// the reference semantics the event mode is validated against.
	ModeCycle
)

// HorizonSource bounds the event engine's epoch skips with external
// events the engine cannot see (e.g. a fault-schedule cursor).
type HorizonSource interface {
	// NextEventIn returns how many further cycles may safely be batched
	// before the next external event, given the cycles already charged
	// in the current routing call. Non-positive disables batching for
	// the current attempt; the engine then advances cycle by cycle and
	// asks again.
	NextEventIn(elapsed int64) int64
}

// FixedHorizon is a HorizonSource capping every skip at a constant
// number of cycles (tests and diagnostics).
type FixedHorizon int64

// NextEventIn implements HorizonSource.
func (h FixedHorizon) NextEventIn(int64) int64 { return int64(h) }

// SetMode selects the execution mode for subsequent calls.
func (e *Engine[T]) SetMode(m EngineMode) { e.mode = m }

// Mode returns the engine's execution mode.
func (e *Engine[T]) Mode() EngineMode { return e.mode }

// SetHorizonSource installs an external bound on epoch skips (nil
// removes it). The source is consulted on every batch attempt.
func (e *Engine[T]) SetHorizonSource(h HorizonSource) { e.hsrc = h }

// SetFaultView installs a local-knowledge fault view: the fault-aware
// routing paths then consult each node's gossip-updated belief instead
// of the machine's global fault map, with stale-view detours, bounded
// rediscovery probes and propagation-latency losses. Nil restores the
// global (omniscient) behavior. The view is shared between engines of
// one simulator and advances one gossip round per charged fault-routing
// cycle.
func (e *Engine[T]) SetFaultView(v *faultview.View) { e.view = v }

// FaultView returns the installed local-knowledge view (nil = global).
func (e *Engine[T]) FaultView() *faultview.View { return e.view }

// Executed returns the physically executed iterations of the most
// recent routing call: sweeps plus epoch-skip batches, or on the
// healthy ModeEvent path the most iterations any single line ran (one
// per contended cycle, one per free run). It is ≤ the call's charged
// cycle count, with equality in ModeCycle.
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

// A trajectory segment is one straight stretch of a packet's remaining
// path. Segments are bucketed per corridor line (column × vertical
// direction) and keyed within a line by phase (position ∓ time), so
// two segments share a (line, key) exactly when their packets would
// occupy the same node at the same time moving in the same direction
// (the phase argument of DESIGN.md §11). A segment is packed into one
// uint64 — phase<<24 | entry<<12 | exit — so sorting a line's bucket
// into (phase, entry) order is a comparator-free slices.Sort. The
// 12-bit offset fields bound the mesh side at engMaxEventSide.
const engMaxEventSide = 1 << 11

func engSeg(key uint64, entry, exit int32) uint64 {
	return key<<24 | uint64(entry)<<12 | uint64(exit)
}

// engDel is one delivery inside an epoch-skip batch, sorted into the
// exact order the cycle-stepped engine would append it: by arrival
// cycle, then sender worklist position, then the sender's outgoing
// direction, then slot id.
type engDel struct {
	t      int32 // arrival offset within the batch
	sender int32 // region-local id of the final hop's sender
	slot   int32
	fdir   int8 // direction of the final hop
}

// engHazard is a fault.LinkHazard with pre-split coordinates.
type engHazard struct {
	ar, ac, br, bc int32
	delay          int32 // 0 = dead edge
}

// engDrop is one packet whose rediscovery budget ran out, recorded by
// the shard that owns its node and removed at the sequential point.
type engDrop struct {
	lp   int32 // region-local node holding the packet
	slot int32
}

// engProbeBudget is how many failed physical probes a packet tolerates
// (with exponential backoff between them) before it is charged as lost.
const engProbeBudget = 8

// engJob is one sweep strip dispatched to the persistent worker pool.
// It carries the engine pointer so pool goroutines hold only the job
// channel between sweeps — an abandoned engine stays collectible and
// its finalizer retires the pool.
type engJob[T any] struct {
	e            *Engine[T]
	w, lo, hi    int
	r            mesh.Region
	topo         topology
	wrap, faulty bool
	cycle        int64
	wg           *sync.WaitGroup
}

func engWorker[T any](jobs <-chan engJob[T]) {
	//detlint:ignore chanorder job intake only: each job writes its own worker arena slot and the caller merges arenas in shard-index order after the barrier
	for j := range jobs {
		j.e.sweepRange(j.w, j.lo, j.hi, j.r, j.topo, j.wrap, j.faulty, j.cycle)
		j.wg.Done()
	}
}

// engShardPackets is the minimum queued-packet count per parallel
// shard; below it the sweep stays sequential (dispatch overhead would
// dominate the node-local selection work).
const engShardPackets = 192

// NewEngine creates a reusable greedy router for the machine, in the
// event-driven execution mode.
func NewEngine[T any](m *mesh.Machine) *Engine[T] {
	return &Engine[T]{m: m}
}

// Route delivers every item to its destination processor inside region
// r over plain mesh links, exactly like GreedyRoute, into dst (nil
// allocates). It returns the delivered items per processor and the
// cycle count.
func (e *Engine[T]) Route(dst [][]T, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	return e.route(dst, r, items, dest, meshTopo{e.m}, false)
}

// RouteTorus is Route on the full machine with wrap-around links.
func (e *Engine[T]) RouteTorus(dst [][]T, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	return e.route(dst, e.m.Full(), items, dest, torusTopo{e.m}, true)
}

// RouteFault is the fault-aware routing of GreedyRouteFaultInto on the
// engine: detours around dead links/nodes with backtrack demotion,
// slow-link waiting, a bounded retry budget, and lost-packet
// accounting, all bit-identical to the per-call router.
func (e *Engine[T]) RouteFault(dst [][]T, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, steps int64, lost int) {
	return e.routeFault(dst, r, items, dest, meshTopo{e.m}, false)
}

// RouteTorusFault is RouteFault on the full machine with wrap-around
// links.
func (e *Engine[T]) RouteTorusFault(dst [][]T, items [][]T, dest func(T) int) (delivered [][]T, steps int64, lost int) {
	return e.routeFault(dst, e.m.Full(), items, dest, torusTopo{e.m}, true)
}

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
	e.wlUnsorted = false
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
// per-node queues, shard arenas, trajectory buckets, hazard caches and
// line buffers —
// returning it to its just-constructed footprint. The engine stays
// fully usable: every buffer is lazily regrown by the next routing
// call. Call it only between routing calls (the at-rest invariant of
// cleanup must hold); it exists so a long-lived simulator can reach a
// compact quiescent state for snapshots and memory accounting.
func (e *Engine[T]) Release() {
	e.val, e.dests, e.dcol, e.dist, e.dir, e.from = nil, nil, nil, nil, nil, nil
	e.queues, e.inQ, e.active, e.scratch = nil, nil, nil, nil
	e.arr, e.csd, e.cuts = nil, nil, nil
	e.vbkt, e.vtouch, e.trjH, e.trjV, e.delq = nil, nil, nil, nil, nil
	e.haz, e.hbuf = nil, nil
	e.rowAt, e.colAt, e.colq, e.lq, e.occ, e.lnMove, e.dcnt, e.dorder = nil, nil, nil, nil, nil, nil, nil, nil
	e.ptry, e.pwait, e.disc, e.dropq, e.wcnt, e.discAll = nil, nil, nil, nil, nil, nil
	e.hazLog = -1 // the hazard union must be rebuilt from the view
}

// MemBytes returns the resident heap bytes retained by the engine's
// buffers (capacities, not lengths — the free-list keeps capacity
// across calls). The shared machine, fault view and worker pool are
// not counted.
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
	sz += int64(cap(e.active)+cap(e.scratch)+cap(e.cuts)) * 4
	sz += int64(cap(e.arr)) * 24
	for _, a := range e.arr {
		sz += int64(cap(a)) * int64(unsafe.Sizeof(engArrival{}))
	}
	sz += int64(cap(e.csd))
	sz += int64(cap(e.vbkt)) * 24
	for _, b := range e.vbkt {
		sz += int64(cap(b)) * 8
	}
	sz += int64(cap(e.vtouch))*4 + int64(cap(e.trjH))*4 + int64(cap(e.trjV))
	sz += int64(cap(e.delq)) * int64(unsafe.Sizeof(engDel{}))
	sz += int64(cap(e.haz)) * int64(unsafe.Sizeof(engHazard{}))
	sz += int64(cap(e.hbuf)) * int64(unsafe.Sizeof(fault.LinkHazard{}))
	sz += int64(cap(e.ptry)) + int64(cap(e.pwait))*8
	sz += int64(cap(e.disc)) * 24
	for _, d := range e.disc {
		sz += int64(cap(d)) * int64(unsafe.Sizeof(faultview.Discovery{}))
	}
	sz += int64(cap(e.dropq)) * 24
	for _, d := range e.dropq {
		sz += int64(cap(d)) * int64(unsafe.Sizeof(engDrop{}))
	}
	sz += int64(cap(e.wcnt)) * 4
	sz += int64(cap(e.discAll)) * int64(unsafe.Sizeof(faultview.Discovery{}))
	sz += int64(cap(e.rowAt)+cap(e.colAt)+cap(e.dcnt)+cap(e.dorder)) * 4
	sz += int64(cap(e.colq)+cap(e.occ)+cap(e.lnMove)) * 8
	sz += int64(cap(e.lq)) * 24
	for _, q := range e.lq {
		sz += int64(cap(q)) * 8
	}
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

// stepTo returns the neighbor one hop in direction dir (0=-col, 1=+col,
// 2=-row, 3=+row), wrapping on the torus. The caller guarantees the hop
// stays inside the region (preferred dimension-ordered hops always do).
func (e *Engine[T]) stepTo(p, dir int, wrap bool) int {
	m := e.m
	if !wrap {
		switch dir {
		case 0:
			return p - 1
		case 1:
			return p + 1
		case 2:
			return p - m.Side
		default:
			return p + m.Side
		}
	}
	s := m.Side
	row, col := m.RowOf(p), m.ColOf(p)
	switch dir {
	case 0:
		col = (col - 1 + s) % s
	case 1:
		col = (col + 1) % s
	case 2:
		row = (row - 1 + s) % s
	default:
		row = (row + 1) % s
	}
	return m.IDOf(row, col)
}

// stepBounded is stepTo with region bounds: ok=false when the hop
// leaves the region (wrap allowed on the torus, where the region is the
// full machine). It is the engine port of the fault router's neighborOf.
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

// rowDirAfterCol returns the cached direction for a packet that just
// reached its destination column: the row direction topo.next would
// choose at p.
func rowDirAfterCol(m *mesh.Machine, p, dest int, wrap bool) int8 {
	if !wrap {
		if m.RowOf(p) > m.RowOf(dest) {
			return 2
		}
		return 3
	}
	step, _ := torusTopo{m}.axis(m.RowOf(p), m.RowOf(dest), m.Side)
	if step < 0 {
		return 2
	}
	return 3
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
// (fault path only — the healthy path passes nil even on a faulted
// machine, like GreedyRoute always did), packets to dead nodes are
// lost at injection. Returns the number of routed (queued) packets,
// which is also the slab length, and the injection losses.
func (e *Engine[T]) inject(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int, topo topology, f *fault.Map) (active, lost int) {
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
				e.push(v, p, d, topo, -1)
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
func (e *Engine[T]) push(v T, p, d int, topo topology, from int32) int8 {
	dr, _ := topo.next(p, d)
	e.val = append(e.val, v)
	e.dests = append(e.dests, int32(d))
	e.dcol = append(e.dcol, int32(e.m.ColOf(d)))
	e.dist = append(e.dist, int32(topo.dist(p, d)))
	e.dir = append(e.dir, int8(dr))
	e.from = append(e.from, from)
	return int8(dr)
}

// shardPlan returns how many parallel shards this cycle's sweep uses:
// 1 (sequential) unless the machine's engine width and the queued
// packet count both warrant sharding.
func (e *Engine[T]) shardPlan(queued int) int {
	wk := e.m.Workers()
	if wk <= 1 {
		return 1
	}
	s := queued / engShardPackets
	if s > wk {
		s = wk
	}
	if s > len(e.active) {
		s = len(e.active)
	}
	if s < 2 {
		return 1
	}
	return s
}

// ensurePool grows the persistent sweep worker pool to n goroutines.
// Workers hold only the job channel, never the engine, so an abandoned
// engine remains collectible; its finalizer closes the channel and the
// workers exit.
func (e *Engine[T]) ensurePool(n int) {
	if e.jobs == nil {
		e.jobs = make(chan engJob[T], 64)
		runtime.SetFinalizer(e, func(ee *Engine[T]) { close(ee.jobs) })
	}
	for e.pooled < n {
		go engWorker(e.jobs)
		e.pooled++
	}
}

// sweep runs one selection sweep over the sorted worklist — sequential
// or sharded per shardPlan — filling e.arr[0:shards]. The sweep only
// reads packet state and fault/topology data and only writes its own
// shard's queues and arrival buffer, so shards race on nothing; the
// concatenation of the shard buffers equals the sequential arrival
// order because the worklist is sorted and shards are contiguous.
// Shard boundaries are cut at roughly equal cumulative queue lengths
// (not node counts), so skewed loads (hotspots) still balance. Shards
// ≥ 1 run on the persistent pool; shard 0 runs on the caller.
// Returns (shards, total arrivals) and records the contested flag.
func (e *Engine[T]) sweep(r mesh.Region, topo topology, wrap, faulty bool, cycle int64, queued int) (int, int) {
	if e.wlUnsorted {
		e.sortWorklist(r)
		e.wlUnsorted = false
	}
	shards := e.shardPlan(queued)
	for len(e.arr) < shards {
		e.arr = append(e.arr, nil)
	}
	for len(e.csd) < shards {
		e.csd = append(e.csd, false)
	}
	if e.view != nil {
		for len(e.disc) < shards {
			e.disc = append(e.disc, nil)
		}
		for len(e.dropq) < shards {
			e.dropq = append(e.dropq, nil)
		}
		for len(e.wcnt) < shards {
			e.wcnt = append(e.wcnt, 0)
		}
	}
	n := len(e.active)
	if shards == 1 {
		e.sweepRange(0, 0, n, r, topo, wrap, faulty, cycle)
		e.lastContested = e.csd[0]
		return 1, len(e.arr[0])
	}
	cuts := e.cuts[:0]
	cuts = append(cuts, 0)
	cum, next := 0, 1
	for i, lp := range e.active {
		cum += len(e.queues[lp])
		if next < shards && cum >= next*queued/shards {
			cuts = append(cuts, int32(i+1))
			next++
		}
	}
	for len(cuts) < shards+1 {
		cuts = append(cuts, int32(n))
	}
	cuts[shards] = int32(n)
	e.cuts = cuts
	e.ensurePool(shards - 1)
	wg := &e.wg
	for w := 1; w < shards; w++ {
		lo, hi := int(cuts[w]), int(cuts[w+1])
		if lo >= hi {
			e.arr[w] = e.arr[w][:0]
			e.csd[w] = false
			continue
		}
		wg.Add(1)
		e.jobs <- engJob[T]{e: e, w: w, lo: lo, hi: hi, r: r, topo: topo,
			wrap: wrap, faulty: faulty, cycle: cycle, wg: wg}
	}
	e.sweepRange(0, 0, int(cuts[1]), r, topo, wrap, faulty, cycle)
	wg.Wait()
	total := 0
	contested := false
	for w := 0; w < shards; w++ {
		total += len(e.arr[w])
		contested = contested || e.csd[w]
	}
	e.lastContested = contested
	return shards, total
}

// sweepRange performs the selection sweep for worklist[lo:hi] into
// arrival buffer w: per occupied node, pick at most one packet per
// outgoing direction by farthest-remaining-distance first (ties by
// injection order = slot id), then compact the queue in place. It
// records in e.csd[w] whether the strip saw contention — a packet left
// behind, or any blocked/slow fault hop — which gates the event mode's
// next horizon attempt.
func (e *Engine[T]) sweepRange(w, lo, hi int, r mesh.Region, topo topology, wrap, faulty bool, cycle int64) {
	f := e.m.Faults()
	arr := e.arr[w][:0]
	cst := false
	local := faulty && e.view != nil
	if local {
		e.disc[w] = e.disc[w][:0]
		e.dropq[w] = e.dropq[w][:0]
		e.wcnt[w] = 0
	}
	for _, lpp := range e.active[lo:hi] {
		lp := int(lpp)
		q := e.queues[lp]
		if len(q) == 0 {
			continue
		}
		p := e.absOf(lp, r)
		if !faulty && len(q) == 1 {
			// Lone packet on a healthy mesh: it wins its out-link
			// unopposed — skip the per-direction selection scan.
			slot := q[0]
			arr = append(arr, engArrival{
				to:    int32(e.stepTo(p, int(e.dir[slot]), wrap)),
				slot:  slot,
				fromP: int32(p),
			})
			e.queues[lp] = q[:0]
			continue
		}
		// best[dir] = queue index of chosen packet, -1 none.
		var best [4]int
		var bestDist [4]int32
		best[0], best[1], best[2], best[3] = -1, -1, -1, -1
		for qi, slot := range q {
			d := int(e.dir[slot])
			if local {
				d = e.localDir(w, slot, p, r, topo, wrap, cycle, f, &cst)
				if d == -1 {
					continue // waiting, blocked, or freshly dropped
				}
			} else if faulty {
				// Preferred healthy hop first (bit-identical when up),
				// then detour candidates by (distance, direction). The
				// hop that undoes the previous move is a last resort —
				// otherwise a packet blocked broadside ping-pongs
				// between two nodes until the budget kills it.
				if !usableLink(f, p, e.stepTo(p, d, wrap), cycle) {
					cst = true
					d = -1
					var bd int32
					back := -1
					for cand := 0; cand < 4; cand++ {
						to2, ok := e.stepBounded(p, cand, r, wrap)
						if !ok || !usableLink(f, p, to2, cycle) {
							continue
						}
						if int32(to2) == e.from[slot] {
							back = cand
							continue
						}
						d2 := int32(topo.dist(to2, int(e.dests[slot])))
						if d == -1 || d2 < bd {
							d, bd = cand, d2
						}
					}
					if d == -1 {
						d = back
					}
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
				var to int
				if faulty {
					to, _ = e.stepBounded(p, d, r, wrap)
				} else {
					to = e.stepTo(p, d, wrap)
				}
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
			if len(out) > 0 {
				cst = true // somebody lost a (node, dir) selection
			}
		}
	}
	e.arr[w] = arr
	e.csd[w] = cst
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
// cycle. Writes only shard-local buffers and the per-slot probe state
// of packets this shard owns.
func (e *Engine[T]) localDir(w int, slot int32, p int, r mesh.Region, topo topology, wrap bool, cycle int64, f *fault.Map, cst *bool) int {
	if e.pwait[slot] > cycle {
		*cst = true
		e.wcnt[w]++
		return -1 // backing off until the next probe window
	}
	bel := e.view.BeliefAt(p)
	d := int(e.dir[slot])
	probe := false
	if !usableLink(bel, p, e.stepTo(p, d, wrap), cycle) {
		// Stale-view detour: mirror the global candidate scan, but
		// against the local belief.
		*cst = true
		nd := -1
		var bd int32
		back := -1
		for cand := 0; cand < 4; cand++ {
			to2, ok := e.stepBounded(p, cand, r, wrap)
			if !ok || !usableLink(bel, p, to2, cycle) {
				continue
			}
			if int32(to2) == e.from[slot] {
				back = cand
				continue
			}
			d2 := int32(topo.dist(to2, int(e.dests[slot])))
			if nd == -1 || d2 < bd {
				nd, bd = cand, d2
			}
		}
		if nd == -1 {
			nd = back
		}
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
		*cst = true
		return -1 // probe of a region edge: nowhere to go this cycle
	}
	if !usableLink(f, p, to, cycle) {
		// The belief allowed a hop the physics refuses (or the probe
		// found the component still down): discover, back off, and give
		// up after the budget.
		*cst = true
		e.discover(w, p, to, f)
		e.ptry[slot]++
		if e.ptry[slot] >= engProbeBudget {
			e.dropq[w] = append(e.dropq[w], engDrop{lp: int32(e.localOf(p, r)), slot: slot})
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
		e.discoverRevive(w, p, to, f, bel)
	}
	return d
}

// discover records the physical fault that blocked a hop the belief
// allowed, witnessed by the node holding the packet.
func (e *Engine[T]) discover(w, p, to int, f *fault.Map) {
	d := faultview.Discovery{Witness: p}
	switch {
	case f.NodeDead(to):
		d.Kind, d.P = fault.EvKillNode, to
	case !f.LinkUp(p, to):
		d.Kind, d.P, d.Q = fault.EvKillLink, p, to
	default:
		d.Kind, d.P, d.Q, d.Factor = fault.EvSlowLink, p, to, f.LinkDelay(p, to)
	}
	e.disc[w] = append(e.disc[w], d)
}

// discoverRevive records the correction when a probe of a
// believed-unusable link physically succeeded.
func (e *Engine[T]) discoverRevive(w, p, to int, f, bel *fault.Map) {
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
	e.disc[w] = append(e.disc[w], d)
}

// flushLocal is the sequential point after each local-mode cycle: it
// removes the packets whose probe budget ran out (charged lost),
// integrates the sweep's discoveries into the gossip log, and advances
// one gossip round. shards is the sweep's shard count (0 when no sweep
// ran this cycle). Returns (packets dropped, backoff-waiting packets).
func (e *Engine[T]) flushLocal(shards int, f *fault.Map) (dropped, waiting int) {
	drops := 0
	for w := 0; w < shards; w++ {
		drops += len(e.dropq[w])
		waiting += int(e.wcnt[w])
	}
	if drops > 0 {
		// Collect and order the drops so removal is width-independent,
		// then delete each slot from its queue. Emptied nodes stay on
		// the worklist (sweeps skip them; the next merge prunes them).
		all := make([]engDrop, 0, drops)
		for w := 0; w < shards; w++ {
			all = append(all, e.dropq[w]...)
			e.dropq[w] = e.dropq[w][:0]
		}
		slices.SortFunc(all, func(a, b engDrop) int {
			if a.lp != b.lp {
				return int(a.lp - b.lp)
			}
			return int(a.slot - b.slot)
		})
		for _, dr := range all {
			q := e.queues[dr.lp]
			out := q[:0]
			for _, s := range q {
				if s != dr.slot {
					out = append(out, s)
				}
			}
			e.queues[dr.lp] = out
		}
		dropped = drops
	}
	n := 0
	for w := 0; w < shards; w++ {
		n += len(e.disc[w])
	}
	if n > 0 {
		e.discAll = e.discAll[:0]
		for w := 0; w < shards; w++ {
			e.discAll = append(e.discAll, e.disc[w]...)
			e.disc[w] = e.disc[w][:0]
		}
		e.view.Integrate(e.discAll, f)
	}
	e.view.Tick(f)
	return dropped, waiting
}

// localHazards rebuilds e.haz as the union of the physical hazards and
// the quiet-state belief hazards whenever the notice log grew. The
// union is what makes local-mode epoch skips sound: within the skip
// window no packet crosses an edge that either the truth or any live
// belief treats as down or slow, so every in-window hop is the
// preferred dimension-ordered one and probes, detours and discoveries
// cannot occur.
func (e *Engine[T]) localHazards(f *fault.Map) {
	m := e.m
	if e.hazLog == e.view.NoticeCount() {
		return
	}
	e.hazLog = e.view.NoticeCount()
	e.haz = e.haz[:0]
	e.hbuf = f.AppendLinkHazards(e.hbuf)
	for _, hz := range e.hbuf {
		e.haz = append(e.haz, engHazard{
			ar: int32(m.RowOf(hz.A)), ac: int32(m.ColOf(hz.A)),
			br: int32(m.RowOf(hz.B)), bc: int32(m.ColOf(hz.B)),
			delay: int32(hz.Delay),
		})
	}
	e.hbuf = e.view.AppendBeliefHazards(e.hbuf)
	for _, hz := range e.hbuf {
		e.haz = append(e.haz, engHazard{
			ar: int32(m.RowOf(hz.A)), ac: int32(m.ColOf(hz.A)),
			br: int32(m.RowOf(hz.B)), bc: int32(m.ColOf(hz.B)),
			delay: int32(hz.Delay),
		})
	}
}

// merge applies one cycle's arrivals in deterministic shard order:
// deliver packets that reached their destination, update each mover's
// cached (dir, dist) — incrementally after a preferred hop, from
// scratch after a detour — re-queue the rest, and rebuild the worklist
// (prune emptied nodes, add newly occupied ones). The worklist is kept
// sorted incrementally: pruning preserves order, and the tail of newly
// occupied nodes is sorted on its own and merged back in, so no cycle
// ever sorts the whole worklist. Returns the number of packets
// delivered this cycle.
func (e *Engine[T]) merge(delivered [][]T, r mesh.Region, topo topology, wrap, faulty bool, shards int) int {
	m := e.m
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
	for w := 0; w < shards; w++ {
		for _, a := range e.arr[w] {
			slot := a.slot
			to := int(a.to)
			if faulty {
				e.from[slot] = a.fromP
				if e.view != nil && e.ptry[slot] != 0 {
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
					dr, _ := topo.next(to, d)
					e.dir[slot] = int8(dr)
					e.dist[slot] = int32(topo.dist(to, d))
					wl = e.enqueue(e.localOf(to, r), slot, wl)
					continue
				}
			}
			nd := e.dist[slot] - 1
			if nd == 0 {
				delivered[to] = append(delivered[to], e.val[slot])
				done++
				continue
			}
			e.dist[slot] = nd
			if e.dir[slot] <= 1 {
				d := int(e.dests[slot])
				if m.ColOf(to) == int(e.dcol[slot]) {
					e.dir[slot] = rowDirAfterCol(m, to, d, wrap)
				}
			}
			wl = e.enqueue(e.localOf(to, r), slot, wl)
		}
	}
	if tail := wl[sorted:]; len(tail) > 0 {
		if sorted == 0 {
			// Full rebuild (every node drained and re-occupied): defer
			// the sort. Only a selection sweep observes worklist order,
			// and in event mode the next iteration is often a batch.
			e.scratch = e.active[:0]
			e.active = wl
			e.wlUnsorted = true
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

// trajPos returns the node a free-running packet occupies t cycles from
// now and its cached direction there. The packet sits at (row, col)
// with cached direction d, h horizontal hops remaining toward
// destination column dc, and vertical direction vd (valid whenever the
// trajectory has a vertical leg, i.e. whenever t ≥ h is reachable).
// 0 ≤ t ≤ dist; positions beyond the horizontal turn follow the
// dimension-ordered column corridor exactly as merge would compute
// them one hop at a time.
func (e *Engine[T]) trajPos(row, col, dc int, d, vd int8, h, t int32, wrap bool) (int, int8) {
	m := e.m
	s := m.Side
	if t < h {
		if d == 1 {
			col += int(t)
			if wrap {
				col %= s
			}
		} else {
			col -= int(t)
			if wrap {
				col = (col%s + s) % s
			}
		}
		return m.IDOf(row, col), d
	}
	u := int(t - h)
	if vd == 3 {
		row += u
		if wrap {
			row %= s
		}
	} else {
		row -= u
		if wrap {
			row = (row%s + s) % s
		}
	}
	return m.IDOf(row, dc), vd
}

const engInf = int32(1) << 30

// sortWorklist restores region-row-major worklist order after a batch
// or a full-rebuild merge deferred it. Event mode re-sorts the
// worklist before almost every sweep, so this is an LSD radix sort —
// byte-wise counting passes over node ids, stable and deterministic —
// rather than a comparison sort; small worklists fall back to
// slices.Sort.
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

// resetLines clears the corridor-line buckets touched by an aborted
// horizon attempt.
func (e *Engine[T]) resetLines() {
	for _, ln := range e.vtouch {
		e.vbkt[ln] = e.vbkt[ln][:0]
	}
	e.vtouch = e.vtouch[:0]
}

// skipHorizon computes the epoch-skip width available from the current
// state: the largest k such that every queued packet can free-run k
// hops along its cached (dir, dist) trajectory with no two packets
// ever competing for the same (node, out-direction) and no fault
// hazard crossed off-beat, capped by the external horizon source and
// the remaining retry budget. Two packets on the same line moving the
// same direction at unit speed collide iff they share a phase
// (position ∓ time), so the earliest collision is found by bucketing
// trajectory segments on (axis, line, direction, phase) and scanning
// each bucket for overlapping occupancy windows — O(P log P), no
// pairwise scan. The boolean reports whether the cap was semantic
// (collision or hazard) — if so the caller must sweep cycle by cycle
// until contention clears before attempting another skip.
func (e *Engine[T]) skipHorizon(r mesh.Region, wrap bool, charged, budgetRem int64) (int32, bool) {
	m := e.m
	s := m.Side
	var maxDist int32
	semCap := engInf
	haz := e.haz
	if n := len(e.val); cap(e.trjH) < n {
		e.trjH = make([]int32, n)
		e.trjV = make([]int8, n)
	} else {
		e.trjH = e.trjH[:n]
		e.trjV = e.trjV[:n]
	}
	if len(e.vbkt) < 2*s {
		e.vbkt = make([][]uint64, 2*s)
	}
	for _, lpp := range e.active {
		lp := int(lpp)
		q := e.queues[lp]
		rr, c := r.R0+lp/r.W, r.C0+lp%r.W
		if len(q) > 1 {
			// Two packets queued at one node with the same cached
			// direction contend for that out-link now — a t=0 conflict,
			// no skip possible. This check also covers every possible
			// horizontal-corridor collision: same-direction unit-speed
			// packets share a phase only when co-located, and a
			// horizontal leg always starts now, so two horizontal
			// segments share a bucket key exactly when their packets
			// share a node. Only vertical segments (whose entry times
			// differ) need the bucket scan below.
			var seen [4]bool
			for _, slot := range q {
				d := e.dir[slot]
				if seen[d] {
					e.resetLines()
					return 0, true
				}
				seen[d] = true
			}
		}
		for _, slot := range q {
			if e.view != nil && e.pwait[slot] > charged {
				// A backoff-waiting packet does not free-run: its next
				// cycles deviate from the cached trajectory, so no skip.
				e.resetLines()
				return 0, true
			}
			d := e.dir[slot]
			dist := e.dist[slot]
			dest := int(e.dests[slot])
			dc := int(e.dcol[slot])
			var h int32
			if d <= 1 {
				if d == 1 {
					if wrap {
						h = int32((dc - c + s) % s)
					} else {
						h = int32(dc - c)
					}
				} else {
					if wrap {
						h = int32((c - dc + s) % s)
					} else {
						h = int32(c - dc)
					}
				}
			}
			v := dist - h
			var vd int8
			if d >= 2 {
				vd = d
			} else if v > 0 {
				vd = rowDirAfterCol(m, m.IDOf(rr, dc), dest, wrap)
			}
			e.trjH[slot], e.trjV[slot] = h, vd
			if dist > maxDist {
				maxDist = dist
			}
			if v > 0 {
				// Vertical corridor: entered at offset h in column dc
				// at row rr; phase = row ∓ entry time.
				var idx int
				if vd == 3 {
					if wrap {
						idx = ((rr-int(h))%s + s) % s
					} else {
						idx = rr - int(h) + s
					}
				} else {
					if wrap {
						idx = (rr + int(h)) % s
					} else {
						idx = rr + int(h)
					}
				}
				line := dc
				if vd == 3 {
					line += s
				}
				b := e.vbkt[line]
				if len(b) == 0 {
					e.vtouch = append(e.vtouch, int32(line))
				}
				e.vbkt[line] = append(b, engSeg(uint64(idx), h, dist-1))
			}
			if len(haz) > 0 {
				if t := e.hazardCap(haz, rr, c, dc, d, vd, h, dist, charged, wrap); t < semCap {
					semCap = t
				}
			}
		}
	}
	for _, ln := range e.vtouch {
		b := e.vbkt[ln]
		e.vbkt[ln] = b[:0]
		if len(b) < 2 {
			continue
		}
		// Sort the line's segments into (phase, entry) order and scan
		// each phase group for overlapping occupancy windows. Lines hold
		// a handful of segments each, so the sorts stay tiny.
		slices.Sort(b)
		var maxExit int32
		for i, sg := range b {
			entry, exit := int32(sg>>12&0xfff), int32(sg&0xfff)
			if i == 0 || sg>>24 != b[i-1]>>24 {
				maxExit = exit
				continue
			}
			if entry <= maxExit && entry < semCap {
				semCap = entry
			}
			if exit > maxExit {
				maxExit = exit
			}
		}
	}
	e.vtouch = e.vtouch[:0]
	k := maxDist
	if semCap < k {
		k = semCap
	}
	if e.hsrc != nil {
		if c := e.hsrc.NextEventIn(charged); c < int64(k) {
			if c < 0 {
				c = 0
			}
			k = int32(c)
		}
	}
	if budgetRem < int64(k) {
		k = int32(budgetRem)
	}
	return k, semCap <= k
}

func cmpDel(a, b engDel) int {
	if a.t != b.t {
		return int(a.t - b.t)
	}
	if a.sender != b.sender {
		return int(a.sender - b.sender)
	}
	if a.fdir != b.fdir {
		return int(a.fdir - b.fdir)
	}
	return int(a.slot - b.slot)
}

// hazardCap returns the earliest cycle offset at which the packet's
// free-running trajectory would cross a hazardous edge that blocks it:
// a dead edge at any offset, or a slow edge whose duty cycle misses
// the crossing (an on-beat slow crossing costs nothing extra and does
// not cap the skip). engInf when the trajectory clears every hazard.
// The modular crossing-time arithmetic is shared between mesh and
// torus: on the mesh, a wrap edge solves to an offset beyond the
// segment length, so it never caps.
func (e *Engine[T]) hazardCap(haz []engHazard, rr, c, dc int, d, vd int8, h, dist int32, charged int64, wrap bool) int32 {
	s := e.m.Side
	v := dist - h
	cap32 := engInf
	consider := func(t int32, delay int32) {
		if t >= cap32 {
			return
		}
		if delay == 0 || (charged+int64(t)+1)%int64(delay) != 0 {
			cap32 = t
		}
	}
	for _, hz := range haz {
		if h > 0 && int(hz.ar) == rr && int(hz.br) == rr {
			// Horizontal leg in row rr: does it cross edge (ac, bc)?
			sd := 1
			if d == 0 {
				sd = -1
			}
			for o := 0; o < 2; o++ {
				x, y := int(hz.ac), int(hz.bc)
				if o == 1 {
					x, y = y, x
				}
				if ((x+sd)%s+s)%s != y {
					continue
				}
				var t int32
				if sd > 0 {
					t = int32(((x-c)%s + s) % s)
				} else {
					t = int32(((c-x)%s + s) % s)
				}
				if t < h {
					consider(t, hz.delay)
				}
			}
		}
		if v > 0 && int(hz.ac) == dc && int(hz.bc) == dc {
			// Vertical leg in column dc, entered at offset h from row rr.
			sd := 1
			if vd == 2 {
				sd = -1
			}
			for o := 0; o < 2; o++ {
				x, y := int(hz.ar), int(hz.br)
				if o == 1 {
					x, y = y, x
				}
				if ((x+sd)%s+s)%s != y {
					continue
				}
				var tv int32
				if sd > 0 {
					tv = int32(((x-rr)%s + s) % s)
				} else {
					tv = int32(((rr-x)%s + s) % s)
				}
				if tv < v {
					consider(h+tv, hz.delay)
				}
			}
		}
	}
	return cap32
}

// batchAdvance fast-forwards every queued packet k hops along its
// cached trajectory in one executed iteration, charging k cycles.
// Packets with dist ≤ k are delivered in the exact order the
// cycle-stepped engine would have appended them: sorted by arrival
// cycle, then by the final hop's sender in worklist order, then by the
// sender's outgoing direction (the per-node emission order of the
// sweep), then by slot. Survivors land at their offset-k position with
// dist reduced by k and their backtrack pointer set to the offset-(k-1)
// position, exactly as k single hops would have left it. Queues and the
// worklist are rebuilt (sorted); queue-internal order is unobservable —
// selection depends only on (dist, slot).
// Returns the number of packets delivered.
func (e *Engine[T]) batchAdvance(delivered [][]T, r mesh.Region, wrap bool, k int32) int {
	if len(e.arr) == 0 {
		e.arr = append(e.arr, nil)
	}
	stage := e.arr[0][:0]
	dq := e.delq[:0]
	for _, lpp := range e.active {
		lp := int(lpp)
		q := e.queues[lp]
		rr, c := r.R0+lp/r.W, r.C0+lp%r.W
		for _, slot := range q {
			d := e.dir[slot]
			dist := e.dist[slot]
			dc := int(e.dcol[slot])
			// (h, vd) were cached by the skipHorizon call that computed
			// this batch's width; the state is unchanged in between.
			h, vd := e.trjH[slot], e.trjV[slot]
			if dist <= k {
				sender, sdir := e.trajPos(rr, c, dc, d, vd, h, dist-1, wrap)
				dq = append(dq, engDel{t: dist, sender: int32(e.localOf(sender, r)),
					slot: slot, fdir: sdir})
				continue
			}
			np, ndir := e.trajPos(rr, c, dc, d, vd, h, k, wrap)
			fp, _ := e.trajPos(rr, c, dc, d, vd, h, k-1, wrap)
			e.from[slot] = int32(fp)
			e.dir[slot] = ndir
			e.dist[slot] = dist - k
			stage = append(stage, engArrival{to: int32(np), slot: slot})
		}
		e.queues[lp] = q[:0]
		e.inQ[lp] = false
	}
	slices.SortFunc(dq, cmpDel)
	for _, dd := range dq {
		dest := int(e.dests[dd.slot])
		delivered[dest] = append(delivered[dest], e.val[dd.slot])
	}
	wl := e.active[:0]
	for _, a := range stage {
		wl = e.enqueue(e.localOf(int(a.to), r), a.slot, wl)
	}
	e.active = wl
	e.wlUnsorted = len(wl) > 0 // sorted lazily by the next sweep
	e.arr[0] = stage[:0]
	e.delq = dq[:0]
	return len(dq)
}

// route is the healthy path shared by Route and RouteTorus. In ModeEvent
// it solves the call line by line (routeLines). In ModeCycle — and when
// a HorizonSource is installed, since an external event may fall inside
// the call and lines cannot stop at one — it sweeps every charged cycle.
func (e *Engine[T]) route(dst [][]T, r mesh.Region, items [][]T, dest func(T) int, topo topology, wrap bool) (delivered [][]T, steps int64) {
	m := e.m
	sp := m.Ledger().Begin("greedy", trace.PhaseForward)
	defer func() {
		sp.Observe(steps)
		sp.Exec(e.execs)
		sp.End()
	}()
	if dst == nil {
		dst = make([][]T, m.N)
	}
	delivered = dst
	if e.mode == ModeEvent && e.hsrc == nil && max(r.H, r.W) <= lnMaxSide {
		steps = e.routeLines(delivered, r, items, dest, topo, wrap)
		sp.AddPackets(int64(len(e.val)))
		return delivered, steps
	}
	e.ensure(r)
	//detlint:ignore checkederr healthy path injects with a nil fault map, so the lost count is structurally zero
	active, _ := e.inject(delivered, r, items, dest, topo, nil)
	sp.AddPackets(int64(len(e.val)))
	for active > 0 {
		steps++
		e.execs++
		shards, total := e.sweep(r, topo, wrap, false, steps, active)
		if total == 0 {
			panic("route: greedy router stalled with active packets")
		}
		active -= e.merge(delivered, r, topo, wrap, false, shards)
	}
	e.cleanup()
	return delivered, steps
}

// routeFault is the fault-aware loop shared by RouteFault and
// RouteTorusFault: identical to route but consulting the machine's
// fault map — detours, slow-link waits, the bounded retry budget
// (16·(H+W) + 4·#packets cycles) and the wedge break after a full slow
// period of silence. Every cycle spent detouring or waiting is a
// charged machine step. With a nil (or empty) fault map it makes
// bit-identical decisions to route. In ModeEvent, epoch skips are
// additionally capped at the first off-beat hazard crossing and at the
// remaining budget, so blocked, waiting and detouring cycles run one
// by one exactly as in ModeCycle.
func (e *Engine[T]) routeFault(dst [][]T, r mesh.Region, items [][]T, dest func(T) int, topo topology, wrap bool) (delivered [][]T, steps int64, lost int) {
	m := e.m
	f := m.Faults()
	sp := m.Ledger().Begin("greedy", trace.PhaseForward)
	defer func() {
		sp.Observe(steps)
		sp.Exec(e.execs)
		if lost > 0 {
			sp.SetAttr("lost", int64(lost))
		}
		sp.End()
	}()
	if dst == nil {
		dst = make([][]T, m.N)
	}
	delivered = dst
	e.ensure(r)
	active, lost := e.inject(delivered, r, items, dest, topo, f)
	sp.AddPackets(int64(len(e.val)))
	e.hbuf = f.AppendLinkHazards(e.hbuf)
	e.haz = e.haz[:0]
	for _, hz := range e.hbuf {
		e.haz = append(e.haz, engHazard{
			ar: int32(m.RowOf(hz.A)), ac: int32(m.ColOf(hz.A)),
			br: int32(m.RowOf(hz.B)), bc: int32(m.ColOf(hz.B)),
			delay: int32(hz.Delay),
		})
	}

	if e.view != nil {
		// Per-slot probe state for this call's slab, zeroed.
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
		e.hazLog = -1 // truth changed since last call: rebuild the union
	}

	budget := int64(16*(r.H+r.W) + 4*active)
	maxDelay := int64(f.MaxDelay())
	idle := int64(0)
	useEvent := e.mode == ModeEvent && m.Side < engMaxEventSide
	contested := false
	for active > 0 && steps < budget {
		// Local knowledge gates epoch skips on a quiet view: while a
		// notice is still spreading, beliefs change every round, so the
		// engine steps cycle by cycle (one gossip round per charged
		// cycle). Once quiet, live beliefs are frozen at the full log and
		// the truth∪belief hazard union makes free-running sound; the
		// skipped rounds are provably no-op exchanges (AdvanceRounds).
		if useEvent && !contested && (e.view == nil || e.view.Quiet()) {
			if e.view != nil {
				e.localHazards(f)
			}
			if k, sem := e.skipHorizon(r, wrap, steps, budget-steps); k > 0 {
				e.execs++
				steps += int64(k)
				active -= e.batchAdvance(delivered, r, wrap, k)
				if e.view != nil {
					e.view.AdvanceRounds(int64(k))
				}
				contested = sem
				idle = 0
				continue
			}
			contested = true
		}
		steps++
		e.execs++
		shards, total := e.sweep(r, topo, wrap, true, steps, active)
		if total == 0 {
			// Nothing moved. With slow links a packet may be waiting for
			// its cycle; after a full slow period of silence the network
			// is provably wedged and the survivors are lost.
			if e.view != nil {
				dropped, waiting := e.flushLocal(shards, f)
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
			contested = e.lastContested
			continue
		}
		idle = 0
		active -= e.merge(delivered, r, topo, wrap, true, shards)
		if e.view != nil {
			dropped, _ := e.flushLocal(shards, f)
			lost += dropped
			active -= dropped
		}
		contested = e.lastContested
	}
	lost += active // budget exhausted or wedged: survivors are dropped
	e.cleanup()
	return delivered, steps, lost
}
