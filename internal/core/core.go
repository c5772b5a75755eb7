// Package core implements the paper's primary contribution: the
// deterministic simulation of one n-processor PRAM step on an n-node
// mesh (§3). A step takes a batch of read/write requests for distinct
// shared variables, selects a minimal target set of copies per variable
// with CULLING, routes one request packet per selected copy through the
// nested submesh tessellations (stages k+1 … 1 of the access protocol),
// performs the timestamped accesses, routes the packets back along
// their recorded waypoints, and — for reads — returns the value with
// the most recent timestamp, which the hierarchical majority rule
// guarantees is the last value written.
//
// All step costs follow the machine model of DESIGN.md §6: sorting and
// ranking are charged their exact data-oblivious round counts, packet
// routing is simulated cycle by cycle, and phases that run in disjoint
// submeshes in parallel are charged the maximum over the submeshes.
//
// Accounting runs through the unified cost ledger (internal/trace):
// Step builds one span tree per PRAM step — culling, the protocol
// stages (each with charged sort/rank/forward leaves and observe-only
// per-submesh detail from internal/route), access, the return legs and
// the result combination — and charges every phase to the machine while
// the phase's span is active. StepStats is a typed view computed from
// that tree (StatsFromSpan); the machine's step counter and the tree's
// Total agree by construction.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"meshpram/internal/bitset"
	"meshpram/internal/culling"
	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/trace"
)

// Word is the PRAM machine word.
type Word = int64

// Op is one processor's shared-memory request in a PRAM step.
type Op struct {
	Origin  int  // requesting mesh processor
	Var     int  // shared variable index
	IsWrite bool // write (true) or read (false)
	Value   Word // value to write (ignored for reads)
}

// AccessPolicy selects how many copies an operation must reach.
type AccessPolicy int

const (
	// MajorityPolicy is the paper's scheme: culling selects a minimal
	// hierarchical target set per operation; timestamps arbitrate.
	MajorityPolicy AccessPolicy = iota
	// ReadOneWriteAllPolicy is the Mehlhorn–Vishkin [MV84] discipline:
	// a read touches a single copy, a write updates all q^k copies.
	// Reads are cheap but a write step degenerates to Θ(c·n) when the
	// adversary concentrates the copies — the weakness the majority
	// approach removes (experiment E13).
	ReadOneWriteAllPolicy
)

// Config selects simulator variants; the zero value is the paper's
// scheme.
type Config struct {
	// Policy selects the copy-access discipline (default Majority).
	Policy AccessPolicy
	// DisableCulling selects minimal target sets without congestion
	// control (ablation E2/E12).
	DisableCulling bool
	// DirectRouting bypasses the staged protocol and routes every copy
	// packet in one global (l1,l2)-routing (ablation E12).
	DirectRouting bool
	// Torus adds wrap-around links: routing phases that span the whole
	// machine (stage k+1 and the final return leg) take the shorter way
	// around each axis. Submesh-confined stages are unchanged — wrap
	// paths cannot stay inside a submesh (extension; experiment E16).
	Torus bool
	// Sort selects the sorting network the protocol's sorts are charged
	// for: route.ShearSort (default, the documented substitution) or
	// route.RotateSort (O(√n), applies to square regions with integer
	// √side, falls back elsewhere; experiment E17). The sorted data is
	// the same either way.
	Sort route.SortAlgo
	// Faults installs a static fault map (internal/fault): dead or slow
	// nodes, links and memory modules. Copy selection then avoids dead
	// modules, routing detours around dead links with a bounded retry
	// budget (extra cycles are charged to the ledger like any routing
	// cost), and Step reports per-op degradation through LastReport.
	// nil (the default) is a healthy machine on the unchanged fast
	// path; the map must be built for the same mesh side and is frozen
	// on installation (fault.Map.Freeze) — static faults stay static.
	Faults *fault.Map
	// Schedule drives dynamic faults: a deterministic, time-indexed
	// event list (internal/fault) applied to the simulator's live map
	// as the step clock advances. The simulator owns a private clone of
	// Faults (or a fresh empty map) as the evolving state, so the
	// caller's map is never mutated. An event at step t takes effect
	// before the (t+1)-th step; step-0 events are in effect from the
	// first step, making a step-0-only schedule equivalent to the same
	// static map. nil or empty keeps the static behavior bit-identical.
	Schedule *fault.Schedule
	// Repair selects the self-healing policy (see RepairPolicy): when
	// and whether the scrub pass rebuilds copies lost to module deaths
	// from the surviving majority. Default RepairOff.
	Repair RepairPolicy
	// FaultView selects how routers and the repair trigger learn about
	// faults. faultview.Global (default) is the omniscient model: every
	// hop consults the live fault map instantly — bit-identical to the
	// pre-faultview simulator. faultview.Local gives every node a
	// private view updated only by deterministic hop-neighbor gossip
	// (internal/faultview): schedule events are witnessed at the fault
	// site, propagate one hop per routing cycle (plus one round per step
	// boundary), routers detour on their possibly-stale beliefs with
	// bounded probe/backoff rediscovery, and a module death triggers a
	// scrub only once its death notice has reached the coordinator
	// (node 0). Ignored on fault-free configurations.
	FaultView faultview.Mode
	// FaultViewSeed seeds the local view's witness tie-breaks (see
	// faultview.New). Only meaningful with FaultView == faultview.Local.
	FaultViewSeed int64
}

// StepStats is the per-PRAM-step cost breakdown and diagnostics.
type StepStats struct {
	Packets int // copy request packets routed

	Culling int64 // copy selection (equation 2 shape)
	Sort    int64 // destination sorting, all stages
	Rank    int64 // ranking passes, all stages
	Forward int64 // origin→copy routing cycles, all stages
	Access  int64 // local memory accesses (max per processor)
	Return  int64 // copy→origin routing cycles, all stages
	Repair  int64 // self-healing scrub traffic charged inside the step

	// StageForward[s] is the forward routing cost charged for protocol
	// stage s (index K+1 … 1; index 0 unused).
	StageForward []int64

	// Delta[i] is the measured max packets per processor at the start
	// of stage i (the paper's δ_i), index K+1 … 1.
	Delta []int

	// PageLoadMax[i] / PageLoadBound[i]: Theorem 3 diagnostics per
	// level (1 … K) from culling.
	PageLoadMax   []int
	PageLoadBound []int
}

// Total returns the charged steps of the PRAM step.
func (st *StepStats) Total() int64 {
	return st.Culling + st.Sort + st.Rank + st.Forward + st.Access + st.Return + st.Repair
}

// StatsFromSpan computes the StepStats view from one PRAM-step span
// tree as built by Simulator.Step (K = the scheme's hierarchy depth).
// Phase fields come from the tree's charged phase totals; the per-stage
// arrays and Theorem-3 diagnostics come from span attributes. A nil
// span yields zeroed (but allocated) stats.
func StatsFromSpan(step *trace.Span, K int) *StepStats {
	st := &StepStats{
		StageForward:  make([]int64, K+2),
		Delta:         make([]int, K+2),
		PageLoadMax:   make([]int, K+1),
		PageLoadBound: make([]int, K+1),
	}
	if step == nil {
		return st
	}
	pt := step.PhaseTotals()
	st.Culling = pt[trace.PhaseCulling]
	st.Sort = pt[trace.PhaseSort]
	st.Rank = pt[trace.PhaseRank]
	st.Forward = pt[trace.PhaseForward]
	st.Access = pt[trace.PhaseAccess]
	st.Return = pt[trace.PhaseReturn]
	st.Repair = pt[trace.PhaseRepair]
	st.Packets = int(step.Packets())
	for _, c := range step.Children() {
		if s, ok := c.Attr("stage"); ok && int(s) < len(st.StageForward) {
			st.StageForward[s] = c.Total()
		}
		if di, ok := c.Attr("delta-index"); ok && int(di) < len(st.Delta) {
			if d, ok2 := c.Attr("delta"); ok2 {
				st.Delta[di] = int(d)
			}
		}
		if c.Name() == "culling" {
			for i := 1; i <= K; i++ {
				if v, ok := c.Attr(fmt.Sprintf("pageload-max-%d", i)); ok {
					st.PageLoadMax[i] = int(v)
				}
				if v, ok := c.Attr(fmt.Sprintf("pageload-bound-%d", i)); ok {
					st.PageLoadBound[i] = int(v)
				}
			}
		}
	}
	return st
}

// Simulator is a PRAM shared memory of hmos-organized replicated
// variables living on a mesh.
type Simulator struct {
	// Fields outside the snapshot image carry a detlint annotation: the
	// snapshotfields check requires every field to be either carried by
	// Save+Load or explicitly excused here, so forgetting to snapshot a
	// new mutable field fails the lint.
	S *hmos.Scheme
	//detlint:ignore snapshotfields static topology; Load validates against it, Save derives Params from S
	M *mesh.Machine
	//detlint:ignore snapshotfields immutable configuration, fixed at construction
	cfg Config

	//detlint:ignore snapshotfields accounting spine, deliberately outside the memory image
	ld *trace.Ledger // the step ledger, attached to M
	//detlint:ignore snapshotfields recycled scratch buffers; content-free between steps
	arena *pktArena // recycled per-processor packet-handle buffers
	//detlint:ignore snapshotfields persistent router; queues empty between calls
	eng *route.Engine[int32] // the one router: every routeTiles call and repair scrub; routes handles
	//detlint:ignore snapshotfields per-step packet table; rebuilt by every step, capacity kept
	pk []pkt // the running step's packets, indexed by handle
	//detlint:ignore snapshotfields per-step waypoint table; rebuilt by every step, capacity kept
	wp []int32 // recorded waypoints, K+1 per handle (see pkt)

	// st is the simulated shared memory: per-page cell slabs plus the
	// sorted foreign overflow for remap-relocated cells (store.go).
	// Lazily populated; an absent cell reads as (0, 0).
	st *slabStore

	now int64 // PRAM step counter (timestamp source)

	//detlint:ignore snapshotfields per-step degradation collector, reset every step
	rep *fault.StepReport // degradation collector of the running step
	//detlint:ignore snapshotfields diagnostic view of the last step only
	lastRep *fault.StepReport // report of the most recent step (nil = healthy cfg)

	// Dynamic faults and self-healing (repair.go). faults is the live
	// map: cfg.Faults itself in the static case, a private clone of it
	// when a schedule evolves the fault world. schedAt is the schedule
	// replay cursor (monotone; deliberately not part of snapshots).
	//detlint:ignore snapshotfields live fault world; rollback must not resurrect pre-fault hardware
	faults *fault.Map
	//detlint:ignore snapshotfields monotone replay cursor; a rollback must not replay applied events
	schedAt int
	//detlint:ignore snapshotfields per-retry toggle owned by the caller around each step
	hardened bool // select level-0 target sets (the retry path)

	remap   map[int]int // dead module → spare holding its relocated copies
	quar    *bitset.Set // copy slots with lost data; excluded until rebuilt (nil = empty)
	pending []int       // dead modules awaiting a scrub

	//detlint:ignore snapshotfields immutable sort-key geometry, derived from scheme and mesh at construction
	destBits, seqBits uint // packet sort-key field widths (see NewWithScheme)

	// Local fault knowledge (FaultView == faultview.Local only; nil in
	// global mode). view is the gossip state the routing engine
	// consults; notified holds module deaths whose notice has not yet
	// reached the scrub coordinator. Both travel in snapshots (Local
	// images append a second gob value; see snapshot.go).
	view     *faultview.View
	notified []notifiedDeath
	//detlint:ignore snapshotfields lazily derived from the static scheme
	hostIdx [][]hostRef // original home proc → copies stored there (lazy)
	//detlint:ignore snapshotfields accumulated diagnostics; counters intentionally survive rollbacks
	rstats RepairStats
}

type cell struct {
	val Word
	ts  int64
}

// New creates a simulator for the given HMOS parameters.
func New(p hmos.Params, cfg Config) (*Simulator, error) {
	s, err := hmos.New(p)
	if err != nil {
		return nil, err
	}
	return NewWithScheme(s, cfg)
}

// NewWithScheme creates a simulator onto a pre-constructed HMOS
// scheme. Schemes are immutable after hmos.New and expensive to build
// (GF tables, BIBD graphs, tessellations), so warm pools construct one
// per parameter set and reuse it across simulators; the simulator gets
// its own mesh machine, ledger and engine, so no mutable state is
// shared between simulators built over one scheme.
func NewWithScheme(s *hmos.Scheme, cfg Config) (*Simulator, error) {
	p := s.Params
	m, err := mesh.New(p.Side)
	if err != nil {
		return nil, err
	}
	// Packet sort keys pack (child submesh, destination, packet handle) into
	// one uint64 with widths sized to this instance; the historical
	// fixed layout capped meshes at 2^16 processors.
	destBits := uint(bits.Len64(uint64(m.N - 1)))
	maxSeq := int64(min(m.N, s.M)) * int64(s.Redundant) // ops hold distinct variables
	seqBits := uint(bits.Len64(uint64(maxSeq)))
	childMax := s.ModCount[p.K]
	for _, pp := range s.PagesPer[1:] {
		if pp > childMax {
			childMax = pp
		}
	}
	childBits := uint(bits.Len64(uint64(childMax - 1)))
	if childBits+destBits+seqBits > 63 { // keys must stay < route.MaxKey
		return nil, fmt.Errorf("core: mesh with %d processors needs %d sort-key bits (max 63)",
			m.N, childBits+destBits+seqBits)
	}
	if cfg.Faults != nil && cfg.Faults.Side() != p.Side {
		return nil, fmt.Errorf("core: fault map side %d does not match mesh side %d", cfg.Faults.Side(), p.Side)
	}
	if cfg.Repair < RepairOff || cfg.Repair > RepairLazy {
		return nil, fmt.Errorf("core: invalid repair policy %d", cfg.Repair)
	}
	if cfg.FaultView > faultview.Local {
		return nil, fmt.Errorf("core: invalid fault view %d", cfg.FaultView)
	}
	live := cfg.Faults
	if !cfg.Schedule.Empty() {
		if cfg.Schedule.Side() != p.Side {
			return nil, fmt.Errorf("core: fault schedule side %d does not match mesh side %d", cfg.Schedule.Side(), p.Side)
		}
		// The schedule evolves a private clone, so the caller's (frozen)
		// base map stays a faithful record of the initial epoch.
		if live == nil {
			live = fault.NewMap(p.Side)
		} else {
			live = live.Clone()
		}
	}
	m.SetFaults(live)
	ld := trace.New()
	m.AttachLedger(ld)
	sim := &Simulator{
		S:        s,
		M:        m,
		cfg:      cfg,
		ld:       ld,
		arena:    newPktArena(m.N),
		eng:      route.NewEngine[int32](m),
		st:       newSlabStore(s),
		faults:   live,
		destBits: destBits,
		seqBits:  seqBits,
	}
	if cfg.FaultView == faultview.Local && live != nil {
		// Beliefs boot knowing the static fault map (cfg.Faults); only
		// schedule events must be witnessed and disseminated. The view is
		// consulted by every routing call, protocol and repair alike, and
		// gossip rounds advance with each, so propagation latency tracks
		// total routing cycles.
		sim.view = faultview.New(p.Side, cfg.Torus, cfg.Faults, cfg.FaultViewSeed)
		sim.eng.SetFaultView(sim.view)
	}
	return sim, nil
}

// FaultView returns the simulator's local fault view, or nil when the
// configuration runs the global (omniscient) model.
func (sim *Simulator) FaultView() *faultview.View { return sim.view }

// quarantined reports whether a copy slot's data is lost (awaiting a
// scrub rebuild). The quarantine bitset is lazily allocated by the
// first module death, so healthy runs never pay for it.
func (sim *Simulator) quarantined(slot int64) bool {
	return sim.quar != nil && sim.quar.Get(int(slot))
}

// quarCount returns the number of quarantined copy slots.
func (sim *Simulator) quarCount() int {
	if sim.quar == nil {
		return 0
	}
	return sim.quar.Count()
}

// ensureQuar allocates the quarantine bitset over the copy-slot space.
func (sim *Simulator) ensureQuar() {
	if sim.quar == nil {
		sim.quar = bitset.New(sim.S.Vars() * sim.S.Redundant)
	}
}

// Scheme returns the underlying memory organization scheme.
func (sim *Simulator) Scheme() *hmos.Scheme { return sim.S }

// Mesh returns the machine; its step counter accumulates across Steps.
func (sim *Simulator) Mesh() *mesh.Machine { return sim.M }

// Ledger returns the simulator's cost ledger; Ledger().Last() is the
// span tree of the most recent Step.
func (sim *Simulator) Ledger() *trace.Ledger { return sim.ld }

// pkt is a copy-request packet traveling through the protocol. A
// step's packets live in the simulator's table sim.pk, indexed by an
// int32 handle: the packet's creation order, unique within the step,
// which also disambiguates sort keys so SortSnake and the sorting
// network it charges order packets identically. Sorting, routing and the
// per-processor lists move handles only; the payload stays put.
//
// Waypoints live beside the table in sim.wp, K+1 entries per handle h:
// wp[h·(K+1)] = origin, and wp[h·(K+1)+j] = the packet's position after
// forward stage K+2−j (j = 1 … K). Return leg ℓ routes back to entry
// K−ℓ. Every surviving packet passes every stage, so the positions are
// fixed and no per-packet length is kept.
//
// The packet carries its copy's placement from culling — the level-1
// page and rank r1 that index the slab store, and whether a remap moved
// the copy away from its home (then it lives in the foreign overflow)
// — so the access never re-walks the copy tree.
type pkt struct {
	op      int32 // index into the step's op slice
	dest    int32 // processor storing the copy
	origin  int32
	page    int32 // level-1 page holding the copy
	r1      int32 // the copy's rank in its level-1 page
	isW     bool
	foreign bool  // dest is a remap spare, not the copy's home
	slot    int64 // copy id in the destination module
	val     Word  // write payload / read result
	ts      int64 // read result timestamp
}

// Step simulates one PRAM step. Variables must be pairwise distinct
// across ops (combine concurrent requests upstream; see internal/pram).
// It returns, aligned with ops, the read results (writes yield their
// written value) and the cost breakdown. All charged steps are also
// added to the machine's counter. It panics on malformed requests;
// StepChecked is the error-returning variant new code should use.
func (sim *Simulator) Step(ops []Op) ([]Word, *StepStats) {
	res, st, err := sim.StepChecked(ops)
	if err != nil {
		panic("core: " + err.Error())
	}
	return res, st
}

// LastReport returns the degradation report of the most recent
// StepChecked/Step: what the step could not serve at full fidelity
// because of faults. nil when the simulator has no fault map (healthy
// configurations pay zero reporting overhead); a non-degraded report
// (Degraded() == false) when faults are configured but the step ran
// clean.
func (sim *Simulator) LastReport() *fault.StepReport { return sim.lastRep }

// StepChecked is Step with request validation: an out-of-range origin
// or variable, a duplicate variable, or an oversized batch yields an
// error (before any cost is charged) instead of a panic.
func (sim *Simulator) StepChecked(ops []Op) ([]Word, *StepStats, error) {
	s, m, ld := sim.S, sim.M, sim.ld
	K := s.K

	if len(ops) > m.N {
		return nil, nil, fmt.Errorf("%d ops exceed %d processors", len(ops), m.N)
	}
	seen := make(map[int]bool, len(ops))
	for i, op := range ops {
		if op.Origin < 0 || op.Origin >= m.N {
			return nil, nil, fmt.Errorf("op %d: origin %d out of range [0,%d)", i, op.Origin, m.N)
		}
		if op.Var < 0 || op.Var >= s.Vars() {
			return nil, nil, fmt.Errorf("op %d: variable %d out of range [0,%d)", i, op.Var, s.Vars())
		}
		if seen[op.Var] {
			return nil, nil, fmt.Errorf("op %d: duplicate variable %d in step", i, op.Var)
		}
		seen[op.Var] = true
	}

	sim.now++
	f := sim.faults
	if f != nil {
		sim.rep = &fault.StepReport{Ops: len(ops)}
	}
	defer func() {
		sim.lastRep = sim.rep
		sim.rep = nil
	}()

	if len(ops) == 0 {
		// Time still passes: due events apply (and an eager scrub runs
		// under its own root span) even on an empty step.
		if err := sim.advanceSchedule(); err != nil {
			return nil, nil, err
		}
		return nil, StatsFromSpan(nil, K), nil
	}

	step := ld.Begin("step", trace.PhaseOther)
	defer step.End()

	// Dynamic faults: apply the events due before this step. Under the
	// eager policy the scrub runs here, inside the step span, so its
	// repair traffic lands in this step's cost tree — and the masks
	// below already see the healed world.
	if err := sim.advanceSchedule(); err != nil {
		return nil, nil, err
	}

	// Availability masks: which copies of each op are on live modules.
	// A copy relocated by repair counts as live at its spare; a
	// quarantined copy (data lost, not yet rebuilt) counts as dead even
	// when its module is back up. Ops originating at dead processors
	// cannot issue at all — their mask is empty, which makes selection
	// report them unservable.
	var avail [][]bool
	if f != nil {
		qk := s.Redundant
		flat := make([]bool, len(ops)*qk)
		avail = make([][]bool, len(ops))
		for i := range avail {
			avail[i] = flat[i*qk : (i+1)*qk : (i+1)*qk]
		}
		procs := make([]int32, qk)
		buildAvail := func() (bool, error) {
			degraded := false
			sim.rep.DeadOrigins = 0
			clear(flat)
			for i, op := range ops {
				mask := avail[i]
				if f.NodeDead(op.Origin) {
					sim.rep.DeadOrigins++
					degraded = true
					continue
				}
				s.PlaceTree(op.Var, procs, nil, nil, 0)
				for leaf := range mask {
					host, err := sim.resolveProc(int(procs[leaf]))
					if err != nil {
						return false, err
					}
					slot := int64(op.Var)*int64(qk) + int64(leaf)
					mask[leaf] = !f.ModuleDead(host) && !sim.quarantined(slot)
					if !mask[leaf] {
						degraded = true
					}
				}
			}
			return degraded, nil
		}
		// Lazy repair: the first step that touches a degraded variable
		// triggers the scrub, then re-reads the healed world.
		degraded, err := buildAvail()
		if err != nil {
			return nil, nil, err
		}
		if degraded && sim.cfg.Repair == RepairLazy && (len(sim.pending) > 0 || sim.quarCount() > 0) {
			if err := sim.scrub(); err != nil {
				return nil, nil, err
			}
			if _, err := buildAvail(); err != nil {
				return nil, nil, err
			}
		}
	}

	// 1. Copy selection.
	csp := ld.Begin("culling", trace.PhaseCulling)
	reqs := make([]culling.Request, len(ops))
	for i, op := range ops {
		reqs[i] = culling.Request{Origin: op.Origin, Var: op.Var}
	}
	var sel *culling.Result
	switch {
	case sim.cfg.Policy == ReadOneWriteAllPolicy:
		sel = sim.selectReadOneWriteAll(ops, avail)
	case sim.hardened:
		sel = culling.SelectHardenedAvail(s, m, reqs, avail)
	case sim.cfg.DisableCulling:
		sel = culling.SelectWithoutCullingAvail(s, m, reqs, avail)
	default:
		sel = culling.RunAvail(s, m, reqs, avail)
	}
	m.AddSteps(sel.Steps)
	for i := 1; i <= K; i++ {
		mx, bd := sel.MaxLoad(i)
		csp.SetAttr(fmt.Sprintf("pageload-max-%d", i), int64(mx))
		csp.SetAttr(fmt.Sprintf("pageload-bound-%d", i), int64(bd))
	}
	csp.End()

	// 2. Build packets at their origins: one table entry per selected
	// copy, its handle queued at the origin.
	total := 0
	for i := range ops {
		total += len(sel.Selected[i])
	}
	stride := K + 1
	sim.pk = slices.Grow(sim.pk[:0], total)
	sim.wp = slices.Grow(sim.wp[:0], total*stride)[:total*stride]
	pkts := sim.arena.get()
	for i, op := range ops {
		for _, c := range sel.Selected[i] {
			dest, err := sim.resolveProc(c.Proc)
			if err != nil {
				for p := range pkts {
					pkts[p] = pkts[p][:0] // honor the arena's truncated-entries contract
				}
				sim.arena.put(pkts)
				return nil, nil, err
			}
			h := int32(len(sim.pk))
			sim.pk = append(sim.pk, pkt{
				op:      int32(i),
				dest:    int32(dest),
				origin:  int32(op.Origin),
				page:    c.Page,
				r1:      c.Rank,
				isW:     op.IsWrite,
				foreign: dest != c.Proc,
				slot:    int64(op.Var)*int64(s.Redundant) + int64(c.Leaf),
				val:     op.Value,
			})
			sim.wp[int(h)*stride] = int32(op.Origin)
			pkts[op.Origin] = append(pkts[op.Origin], h)
		}
	}
	step.AddPackets(int64(total))

	// 3. Forward journey.
	if sim.cfg.DirectRouting {
		sim.routeDirect(pkts)
	} else {
		sim.routeStagedForward(pkts)
	}

	// 4. Access the copies.
	sim.access(pkts)

	// 5. Return journey along recorded waypoints.
	sim.routeReturn(pkts)

	// 6. Collect read results: most recent timestamp wins. Under faults,
	// also record which leaves made the round trip per op.
	results := make([]Word, len(ops))
	best := make([]int64, len(ops))
	for i := range best {
		best[i] = -1
	}
	var retMask [][]bool
	if f != nil {
		retMask = make([][]bool, len(ops))
	}
	maxHome := 0
	for _, op := range ops {
		home := pkts[op.Origin]
		if len(home) > maxHome {
			maxHome = len(home)
		}
	}
	for p := range pkts {
		for _, h := range pkts[p] {
			pk := &sim.pk[h]
			if int(pk.origin) != p {
				panic("core: packet did not return home")
			}
			if pk.ts > best[pk.op] {
				best[pk.op] = pk.ts
				results[pk.op] = pk.val
			}
			if retMask != nil {
				if retMask[pk.op] == nil {
					retMask[pk.op] = make([]bool, s.Redundant)
				}
				retMask[pk.op][int(pk.slot%int64(s.Redundant))] = true
			}
		}
		pkts[p] = pkts[p][:0]
	}
	sim.arena.put(pkts)
	for i, op := range ops {
		if op.IsWrite {
			results[i] = op.Value
		}
	}
	// Local result combination: one step per returned packet.
	combine := ld.Begin("combine", trace.PhaseAccess)
	m.AddSteps(int64(maxHome))
	combine.End()

	// 7. Degradation verdict per op (faulty configurations only). An op
	// is unrecoverable when its live copies held no target set at
	// selection time, or the copies that completed the round trip no
	// longer certify the access: under the majority rule the returned
	// leaves must still access the root of T_v; under ROWA a read needs
	// any returned copy but a write must have updated every selected
	// copy (a partial ROWA write would silently break later reads). The
	// round-trip criterion is conservative — a write whose packet
	// updated its copy but was lost on the way home counts as failed.
	if f != nil {
		bad := make(map[int]bool, len(sel.Unservable))
		for _, r := range sel.Unservable {
			bad[r] = true
		}
		for i := range ops {
			if bad[i] {
				continue
			}
			ok := false
			if mask := retMask[i]; mask != nil {
				if sim.cfg.Policy == ReadOneWriteAllPolicy {
					if ops[i].IsWrite {
						got := 0
						for _, on := range mask {
							if on {
								got++
							}
						}
						ok = got == len(sel.Selected[i])
					} else {
						ok = true
					}
				} else {
					ok = s.AccessedRoot(mask)
				}
			}
			if !ok {
				bad[i] = true
			}
		}
		for i := range ops {
			if bad[i] {
				sim.rep.Unrecoverable = append(sim.rep.Unrecoverable, i)
			}
		}
		sort.Ints(sim.rep.Unrecoverable)
		if sim.rep.Degraded() {
			step.SetAttr("dead-origins", int64(sim.rep.DeadOrigins))
			step.SetAttr("lost-packets", int64(sim.rep.LostPackets))
			step.SetAttr("unrecoverable", int64(len(sim.rep.Unrecoverable)))
		}
	}

	return results, StatsFromSpan(step, K), nil
}

// routeStagedForward runs protocol stages K+1 … 1 (§3.3): at stage
// s ≥ 2, within every level-s submesh (the full mesh for s = K+1),
// packets are sorted by destination child submesh, ranked, and routed
// to balanced positions inside the child; stage 1 delivers each packet
// to its final processor inside its level-1 submesh. Each stage sorts
// and ranks its submeshes one by one, recording every packet's
// intermediate as its waypoint, then routes all of them there in one
// engine call.
func (sim *Simulator) routeStagedForward(pkts [][]int32) {
	s, m, ld := sim.S, sim.M, sim.ld
	K := s.K
	q := s.Q
	for stage := K + 1; stage >= 2; stage-- {
		pageN := sim.stagePages(stage)
		childParts := sim.childParts(stage)
		groupSeen := make([]int, childParts) // packets ranked so far per child
		wpAt := K + 2 - stage                // this stage's waypoint entry

		ssp := ld.BeginPar(fmt.Sprintf("stage-%d", stage), trace.PhaseOther)
		ssp.SetAttr("stage", int64(stage))
		ssp.SetAttr("delta-index", int64(stage))
		ssp.SetAttr("delta", int64(maxLoadAll(pkts)))

		var maxSort, maxRank int64
		for pi := 0; pi < pageN; pi++ {
			parent := sim.stageRegion(stage, pi)
			if regionEmpty(m, parent, pkts) {
				continue
			}
			// Sort by (child submesh, destination) in place; the handle
			// makes the key unique so network and fast sorts agree exactly.
			_, _, sortSteps := sim.sortSnake(parent, pkts, func(h int32) uint64 {
				dest := int(sim.pk[h].dest)
				child := parent.SubRegionIndex(m, q, childParts, dest)
				return uint64(child)<<(sim.destBits+sim.seqBits) |
					uint64(dest)<<sim.seqBits | uint64(uint32(h))
			})
			if sortSteps > maxSort {
				maxSort = sortSteps
			}
			// Rank within child groups; balanced intermediate position.
			rankSteps := 3*int64(parent.W-1) + int64(parent.H-1)
			if rankSteps > maxRank {
				maxRank = rankSteps
			}
			rsp := ld.Begin("rank", trace.PhaseRank)
			rsp.Observe(rankSteps)
			clear(groupSeen)
			for i := 0; i < parent.Size(); i++ {
				p := parent.ProcAtSnake(m, i)
				for _, h := range pkts[p] {
					pk := &sim.pk[h]
					child := parent.SubRegionIndex(m, q, childParts, int(pk.dest))
					rank := groupSeen[child]
					groupSeen[child] = rank + 1
					reg := sim.childRegion(stage, pi, child)
					// The balanced intermediate is where the stage delivers
					// the packet: its waypoint.
					sim.wp[int(h)*(K+1)+wpAt] = int32(reg.ProcAtSnake(m, rank%reg.Size()))
				}
			}
			rsp.End()
		}
		routed, maxRoute := sim.routeTiles(stage, pkts, func(h int32) int { return int(sim.wp[int(h)*(K+1)+wpAt]) })
		sim.land(pkts, routed)
		// The stage's charge: each phase pays the max over parents, since
		// all parent submeshes operate in parallel.
		lf := ld.Begin("sort", trace.PhaseSort)
		m.AddSteps(maxSort)
		lf.End()
		lf = ld.Begin("rank", trace.PhaseRank)
		m.AddSteps(maxRank)
		lf.End()
		lf = ld.Begin("forward", trace.PhaseForward)
		m.AddSteps(maxRoute)
		lf.End()
		ssp.End()
	}

	// Stage 1: deliver within level-1 submeshes.
	ssp := ld.BeginPar("stage-1", trace.PhaseOther)
	ssp.SetAttr("stage", 1)
	ssp.SetAttr("delta-index", 1)
	ssp.SetAttr("delta", int64(maxLoadAll(pkts)))
	delivered, maxRoute := sim.routeTiles(1, pkts, sim.destOf)
	sim.land(pkts, delivered)
	lf := ld.Begin("forward", trace.PhaseForward)
	m.AddSteps(maxRoute)
	lf.End()
	ssp.End()
}

// routeDirect is the E12 ablation: one global sorted greedy routing.
func (sim *Simulator) routeDirect(pkts [][]int32) {
	m, ld := sim.M, sim.ld
	dsp := ld.BeginPar("direct", trace.PhaseOther)
	dsp.SetAttr("stage", 1)
	dsp.SetAttr("delta-index", int64(sim.S.K+1))
	dsp.SetAttr("delta", int64(maxLoadAll(pkts)))
	_, _, sortSteps := sim.sortSnake(m.Full(), pkts, func(h int32) uint64 {
		return uint64(sim.pk[h].dest)<<sim.seqBits | uint64(uint32(h))
	})
	lf := ld.Begin("sort", trace.PhaseSort)
	m.AddSteps(sortSteps)
	lf.End()
	delivered, cycles := sim.routeTiles(sim.S.K+1, pkts, sim.destOf)
	lf = ld.Begin("forward", trace.PhaseForward)
	m.AddSteps(cycles)
	lf.End()
	sim.land(pkts, delivered)
	dsp.End()
}

// access performs the local read/write of every delivered packet at the
// placement the packet carries (see pkt). A prepass allocates the slabs
// the writes will land in and applies the rare foreign writes, which
// would shift the shared overflow; the main loop then only writes
// preallocated slab entries and reads. No slot is both read and written
// in one step (variables are pairwise distinct per step), so applying
// the foreign writes first is unobservable.
func (sim *Simulator) access(pkts [][]int32) {
	maxPer := 0
	for p := range pkts {
		if len(pkts[p]) > maxPer {
			maxPer = len(pkts[p])
		}
		for _, h := range pkts[p] {
			pk := &sim.pk[h]
			if !pk.isW {
				continue
			}
			if pk.foreign {
				sim.st.foreignSet(p, pk.slot, cell{val: pk.val, ts: sim.now})
			} else {
				sim.st.allocPage(int(pk.page))
			}
		}
	}
	asp := sim.ld.Begin("access", trace.PhaseAccess)
	asp.SetAttr("delta-index", 0)
	asp.SetAttr("delta", int64(maxPer))
	for p, hs := range pkts {
		for _, h := range hs {
			pk := &sim.pk[h]
			if int(pk.dest) != p {
				panic("core: packet accessed at wrong processor")
			}
			if pk.isW {
				if !pk.foreign {
					sim.st.slabs[pk.page][pk.r1] = cell{val: pk.val, ts: sim.now}
				} // foreign writes were applied by the prepass
				pk.ts = sim.now
			} else {
				var c cell
				if pk.foreign {
					c = sim.st.foreignGet(p, pk.slot)
				} else if sl := sim.st.slabs[pk.page]; sl != nil {
					c = sl[pk.r1]
				}
				pk.val, pk.ts = c.val, c.ts
			}
		}
	}
	sim.M.AddSteps(int64(maxPer))
	asp.End()
}

// routeReturn retraces the waypoints in reverse: leg ℓ (0-based) routes
// within the level-(ℓ+1) submeshes (full mesh on the last leg) from the
// current position to the packet's waypoint entry K−ℓ (see pkt), all
// submeshes of a leg in one engine call.
func (sim *Simulator) routeReturn(pkts [][]int32) {
	s, m, ld := sim.S, sim.M, sim.ld
	K := s.K
	if sim.cfg.DirectRouting {
		lsp := ld.Begin("return-leg-0", trace.PhaseOther)
		delivered, cycles := sim.routeTiles(K+1, pkts, func(h int32) int { return int(sim.pk[h].origin) })
		lf := ld.Begin("return", trace.PhaseReturn)
		m.AddSteps(cycles)
		lf.End()
		sim.land(pkts, delivered)
		lsp.End()
		return
	}
	for leg := 0; leg <= K; leg++ {
		lsp := ld.BeginPar(fmt.Sprintf("return-leg-%d", leg), trace.PhaseOther)
		at := K - leg // waypoint entry this leg returns to
		delivered, cycles := sim.routeTiles(leg+1, pkts, func(h int32) int { return int(sim.wp[int(h)*(K+1)+at]) })
		sim.land(pkts, delivered)
		lf := ld.Begin("return", trace.PhaseReturn)
		m.AddSteps(cycles)
		lf.End()
		lsp.End()
	}
}

// selectReadOneWriteAll implements the [MV84] discipline: writes select
// every copy, reads select the single copy indexed by Var mod q^k (a
// fixed load-spreading choice). No culling runs, so no congestion
// control applies — that is the point of the comparison. With an avail
// mask (faults), reads take the first live copy scanning from the fixed
// index and writes select the live copies; an op with no live copy is
// reported Unservable. A read served by any live copy is correct only
// because ROWA writes update every copy — a fact that itself breaks
// once a write skips dead copies, which is why ROWA writes that lose
// any copy are marked unrecoverable downstream.
func (sim *Simulator) selectReadOneWriteAll(ops []Op, avail [][]bool) *culling.Result {
	s := sim.S
	res := &culling.Result{
		Selected: make([][]culling.SelectedCopy, len(ops)),
		PageLoad: make([][]int, s.K+1),
		Bound:    make([]int, s.K+1),
	}
	for i := 1; i <= s.K; i++ {
		res.PageLoad[i] = make([]int, s.PageCount(i))
	}
	qk := s.Redundant
	procs := make([]int32, qk)
	ranks := make([]int32, qk)
	pages := make([]int32, s.K*qk)
	for i, op := range ops {
		s.PlaceTree(op.Var, procs, ranks, pages, qk)
		live := func(leaf int) bool {
			return avail == nil || avail[i] == nil || avail[i][leaf]
		}
		record := func(leaf int) {
			res.Selected[i] = append(res.Selected[i], culling.SelectedCopy{
				Leaf: leaf, Proc: int(procs[leaf]), Page: pages[leaf], Rank: ranks[leaf]})
			for lvl := 1; lvl <= s.K; lvl++ {
				res.PageLoad[lvl][pages[(lvl-1)*qk+leaf]]++
			}
		}
		if op.IsWrite {
			any := false
			for leaf := 0; leaf < qk; leaf++ {
				if live(leaf) {
					record(leaf)
					any = true
				}
			}
			if !any {
				res.Unservable = append(res.Unservable, i)
			}
		} else {
			found := false
			for j := 0; j < qk; j++ {
				leaf := (op.Var + j) % qk
				if live(leaf) {
					record(leaf)
					found = true
					break
				}
			}
			if !found {
				res.Unservable = append(res.Unservable, i)
			}
		}
	}
	return res
}

// routeTiles routes packets inside every level-`level` submesh in one
// call of the simulator's persistent route.Engine: the level's pages,
// or for level K+1 the full machine, over torus links when the
// configuration enables them. It honors the machine's fault map,
// counting lost packets in the step report, and returns the slowest
// submesh's cycles. The delivery buffer comes from the simulator's
// arena; the caller drains it with land (or its own merge loop) and
// returns it via arena.put.
func (sim *Simulator) routeTiles(level int, items [][]int32, dest func(int32) int) ([][]int32, int64) {
	tiles := route.Tiles{
		N:    sim.stagePages(level),
		At:   func(i int) mesh.Region { return sim.stageRegion(level, i) },
		Wrap: sim.cfg.Torus && level == sim.S.K+1,
	}
	delivered, cycles, lost := sim.eng.RouteFault(sim.arena.get(), tiles, items, dest)
	if lost > 0 && sim.rep != nil {
		sim.rep.LostPackets += lost
	}
	return delivered, cycles
}

// land drains a routing call's delivery buffer into pkts, truncating
// each drained entry, and returns the buffer to the arena.
func (sim *Simulator) land(pkts, delivered [][]int32) {
	for p, hs := range delivered {
		pkts[p] = append(pkts[p], hs...)
		delivered[p] = hs[:0]
	}
	sim.arena.put(delivered)
}

// destOf returns the destination processor of packet handle h.
func (sim *Simulator) destOf(h int32) int { return int(sim.pk[h].dest) }

// sortSnake sorts the region and charges the configured sorting network.
func (sim *Simulator) sortSnake(r mesh.Region, items [][]int32, key func(int32) uint64) ([][]int32, int, int64) {
	if sim.cfg.Sort == route.RotateSort {
		return route.SortSnakeRotate(sim.M, r, items, key)
	}
	return route.SortSnake(sim.M, r, items, key)
}

// stagePages returns the number of level-s submeshes (1 for s = K+1).
func (sim *Simulator) stagePages(stage int) int {
	if stage == sim.S.K+1 {
		return 1
	}
	return sim.S.PageCount(stage)
}

// stageRegion returns the pi-th level-s submesh (the full mesh for
// s = K+1), recomputed arithmetically — no tessellation is stored.
func (sim *Simulator) stageRegion(stage, pi int) mesh.Region {
	if stage == sim.S.K+1 {
		return sim.M.Full()
	}
	return sim.S.PageRegion(stage, pi)
}

// childParts returns the number of level-(s−1) submeshes inside a
// level-s submesh.
func (sim *Simulator) childParts(stage int) int {
	if stage == sim.S.K+1 {
		return sim.S.ModCount[sim.S.K]
	}
	return sim.S.PagesPer[stage]
}

// childRegion returns the c-th level-(s−1) submesh of the pi-th level-s
// parent, using the global tessellation nesting (child c of parent j is
// page j·parts + c of level s−1).
func (sim *Simulator) childRegion(stage, pi, c int) mesh.Region {
	return sim.S.PageRegion(stage-1, pi*sim.childParts(stage)+c)
}

// maxLoadAll returns the most packets any processor holds.
func maxLoadAll(pkts [][]int32) int {
	mx := 0
	for p := range pkts {
		if len(pkts[p]) > mx {
			mx = len(pkts[p])
		}
	}
	return mx
}

// regionEmpty reports whether no processor of r holds a packet; a
// forward stage neither sorts nor ranks an empty parent.
func regionEmpty(m *mesh.Machine, r mesh.Region, pkts [][]int32) bool {
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			if len(pkts[m.IDOf(row, col)]) > 0 {
				return false
			}
		}
	}
	return true
}
