package core

// The self-healing layer: dynamic fault schedules evolve the live fault
// map between PRAM steps, module deaths lose the data they hosted, and
// the scrub pass rebuilds every lost copy whose variable still holds a
// live target set — routing the freshest surviving value to a healthy
// replacement slot through the real (fault-aware) router, charged to
// the repair phase of the cost ledger.
//
// Data-loss fiction. A module that dies loses its contents: the store
// is deleted and every copy currently homed there is quarantined. A
// quarantined copy is excluded from availability masks until a scrub
// rebuilds it, so a revived (or remapped) blank module can never
// satisfy a read with a silently stale value — the timestamp rule only
// arbitrates among copies that actually hold data.
//
// Soundness. The scrub rebuilds a copy of variable v only when v's
// live (module-alive, unquarantined) leaves still access the root of
// T_v. In that case the freshest live value is the last value written:
// every write reaches a target set, and any two target sets of T_v
// intersect in a live copy, so the maximum timestamp over the live
// copies belongs to the most recent write. Below that threshold the
// copy stays quarantined (Residual); a later complete write to v
// restores the variable in full, but the scrub alone cannot.

import (
	"fmt"
	"sort"

	"meshpram/internal/fault"
	"meshpram/internal/route"
	"meshpram/internal/trace"
)

// RepairPolicy selects when the simulator runs the scrub pass that
// rebuilds copies lost to module deaths.
type RepairPolicy int

const (
	// RepairOff never scrubs: lost copies stay quarantined and the
	// step-level majority rule alone decides what remains servable.
	RepairOff RepairPolicy = iota
	// RepairEager scrubs immediately after every module death the
	// schedule delivers, before the next step's copy selection.
	RepairEager
	// RepairLazy defers the scrub to the first step whose availability
	// masks actually touch a degraded copy (scrub-on-first-degraded-read).
	RepairLazy
)

func (p RepairPolicy) String() string {
	switch p {
	case RepairOff:
		return "off"
	case RepairEager:
		return "eager"
	case RepairLazy:
		return "lazy"
	}
	return fmt.Sprintf("RepairPolicy(%d)", int(p))
}

// ParseRepairPolicy parses "off", "eager" or "lazy" (empty = off).
func ParseRepairPolicy(s string) (RepairPolicy, error) {
	switch s {
	case "", "off":
		return RepairOff, nil
	case "eager":
		return RepairEager, nil
	case "lazy":
		return RepairLazy, nil
	}
	return RepairOff, fmt.Errorf("core: unknown repair policy %q (want off, eager or lazy)", s)
}

// RepairStats are the accumulated self-healing counters of a simulator.
type RepairStats struct {
	ModuleDeaths int   // module-availability losses delivered by the schedule
	Scrubs       int   // scrub passes run
	Repaired     int   // copies rebuilt from a surviving target set
	Residual     int   // copies still quarantined after the latest scrub
	Remapped     int   // dead modules whose copies were relocated to a spare
	Lost         int   // repair packets lost en route (copies left for the next pass)
	Steps        int64 // mesh steps charged to the repair phase by scrubs

	// Local fault view only (faultview.Local): module deaths become
	// scrub-eligible when their death notice reaches the coordinator,
	// not when they happen. Discovered counts the releases;
	// DiscoverySteps accumulates the PRAM-step lag between each death
	// and its discovery (the repair-delay race of eager/lazy policies).
	Discovered     int
	DiscoverySteps int64
}

// notifiedDeath is a module death waiting for its notice to propagate
// to the scrub coordinator (node 0) under the local fault view.
type notifiedDeath struct {
	host     int   // dead module (post-remap resolution at death time)
	notice   int   // gossip log index of the death notice
	diedStep int64 // sim.now when the death was applied
}

// hostRef locates one copy by (variable, leaf) in the inverted
// home-processor index.
type hostRef struct {
	v, leaf int32
}

// rpkt is a repair packet: the freshest surviving value of a variable
// on its way to a replacement copy slot.
type rpkt struct {
	dest int
	slot int64
	val  Word
	ts   int64
}

// RepairStats returns a copy of the self-healing counters.
func (sim *Simulator) RepairStats() RepairStats { return sim.rstats }

// FaultAware reports whether the simulator tracks a fault world at all
// (static map or schedule). Fault-free simulators pay no repair logic.
func (sim *Simulator) FaultAware() bool { return sim.faults != nil }

// SetHardened toggles hardened copy selection (culling.Hardened):
// level-0 (all-Extensive) target sets instead of cost-minimal ones, so
// the access survives isolated packet loss on the round trip. A
// read-one/write-all simulator keeps its own copies. The retry path in
// internal/pram turns this on for the re-execution after a rollback.
func (sim *Simulator) SetHardened(on bool) { sim.hardened = on }

// advanceSchedule applies the schedule events due before the current
// step (an event at step t takes effect after t completed steps) to
// the live fault map, reacting to module deaths with the data-loss
// fiction. Under the eager policy it then scrubs at once. An error
// means the remap table violated its acyclicity invariant — the
// simulation state is no longer trustworthy and the step must fail.
func (sim *Simulator) advanceSchedule() error {
	sch := sim.cfg.Schedule
	if sch.Empty() {
		return nil
	}
	evs, cur := sch.EventsBefore(sim.schedAt, sim.now)
	sim.schedAt = cur
	for _, ev := range evs {
		if err := sim.applyEvent(ev); err != nil {
			return err
		}
	}
	if sim.view != nil {
		// One gossip round per step boundary, so notices keep moving even
		// across steps that route nothing; then check whether any death
		// notice has reached the coordinator. The observe-only span
		// records dissemination diagnostics without charging steps.
		sim.view.Tick(sim.faults)
		sim.releaseNotified()
		vs := sim.view.Stats()
		gs := sim.ld.Begin("faultview", trace.PhaseGossip)
		gs.SetAttr("round", vs.Round)
		gs.SetAttr("notices", vs.Notices)
		gs.SetAttr("sent", vs.Sent)
		gs.SetAttr("applied", vs.Applied)
		gs.SetAttr("stale-max", vs.StaleMax)
		for i, h := range vs.Hist {
			if h != 0 {
				gs.SetAttr(fmt.Sprintf("stale-hist-%d", i), h)
			}
		}
		gs.End()
	}
	if sim.cfg.Repair == RepairEager && len(sim.pending) > 0 {
		return sim.scrub()
	}
	return nil
}

// observeEvent lets a witness node create the gossip notice for one
// just-applied schedule event. Returns the notice's log index, or -1
// in global mode or when no live witness saw the event (an unwitnessed
// fault stays unknown until routing probes rediscover it).
func (sim *Simulator) observeEvent(ev fault.Event) int {
	if sim.view == nil {
		return -1
	}
	if idx, ok := sim.view.ObserveEvent(ev, sim.faults); ok {
		return idx
	}
	return -1
}

// releaseNotified moves module deaths whose notice has propagated to
// the scrub coordinator (node 0) onto the pending scrub list, charging
// the discovery lag to the repair statistics.
func (sim *Simulator) releaseNotified() {
	if len(sim.notified) == 0 {
		return
	}
	kept := sim.notified[:0]
	for _, nd := range sim.notified {
		if sim.view.KnownAt(0, nd.notice) {
			sim.pending = append(sim.pending, nd.host)
			sim.rstats.Discovered++
			sim.rstats.DiscoverySteps += sim.now - nd.diedStep
		} else {
			kept = append(kept, nd)
		}
	}
	sim.notified = kept
}

// applyEvent applies one schedule event, watching for the
// module-availability transition (a node death takes its memory module
// down with it) so the stored data is lost exactly once per death.
func (sim *Simulator) applyEvent(ev fault.Event) error {
	f := sim.faults
	switch ev.Kind {
	case fault.EvKillNode, fault.EvKillModule:
		wasDead := f.ModuleDead(ev.P)
		f.Apply(ev)
		idx := sim.observeEvent(ev)
		if !wasDead && f.ModuleDead(ev.P) {
			return sim.moduleDied(ev.P, idx)
		}
	default:
		f.Apply(ev)
		sim.observeEvent(ev)
	}
	return nil
}

// moduleDied records a fresh module death and loses its data. The data
// loss is physics and happens immediately in every fault-view mode;
// under the local view the scrub trigger is deferred until the death
// notice (log index noticeIdx) reaches the coordinator — the pending
// entry moves to the notified queue. A death no live neighbor
// witnessed (noticeIdx < 0) is never discovered: its copies stay
// quarantined until routing probes or a RepairNow intervention find
// the module.
func (sim *Simulator) moduleDied(p int, noticeIdx int) error {
	sim.rstats.ModuleDeaths++
	if err := sim.loseModuleData(p); err != nil {
		return err
	}
	if sim.view != nil {
		sim.pending = sim.pending[:len(sim.pending)-1]
		if noticeIdx >= 0 {
			sim.notified = append(sim.notified, notifiedDeath{host: p, notice: noticeIdx, diedStep: sim.now})
		}
	}
	return nil
}

// loseModuleData implements the data-loss fiction for module p: delete
// the store, quarantine every copy whose current home resolves to p,
// and queue p for the next scrub.
func (sim *Simulator) loseModuleData(p int) error {
	sim.st.clearProc(p)
	sim.ensureHostIdx()
	sim.ensureQuar()
	red := sim.S.Redundant
	for home := 0; home < sim.M.N; home++ {
		if len(sim.hostIdx[home]) == 0 {
			continue
		}
		host, err := sim.resolveProc(home)
		if err != nil {
			return err
		}
		if host != p {
			continue
		}
		for _, hr := range sim.hostIdx[home] {
			sim.quar.Set(int(hr.v)*red+int(hr.leaf), true)
		}
	}
	sim.pending = append(sim.pending, p)
	return nil
}

// ensureHostIdx builds (once) the inverted index from home processor to
// the copies stored there. The copy layout is static, so the index is
// computed from the scheme, not the store.
func (sim *Simulator) ensureHostIdx() {
	if sim.hostIdx != nil {
		return
	}
	sim.hostIdx = make([][]hostRef, sim.M.N)
	procs := make([]int32, sim.S.Redundant)
	for v := 0; v < sim.S.Vars(); v++ {
		sim.S.PlaceTree(v, procs, nil, nil, 0)
		for leaf, p := range procs {
			sim.hostIdx[p] = append(sim.hostIdx[p], hostRef{v: int32(v), leaf: int32(leaf)})
		}
	}
}

// resolveProc follows the remap chain from a copy's original home to
// the module currently hosting it. spareFor keeps chains acyclic, so
// the walk is bounded by the table size; exceeding that bound means the
// invariant broke (a cycle) and the error aborts the step instead of
// looping forever.
func (sim *Simulator) resolveProc(p int) (int, error) {
	start := p
	for hops := 0; ; hops++ {
		q, ok := sim.remap[p]
		if !ok {
			return p, nil
		}
		if hops >= len(sim.remap) {
			return p, fmt.Errorf("core: remap cycle detected resolving module %d (table %v)", start, sim.remap)
		}
		p = q
	}
}

// remapReaches reports whether following the remap chain from `from`
// arrives at `target`. spareFor uses it to reject spare candidates that
// would close a cycle through the table (the chain walk is hop-bounded
// like resolveProc, so a pre-existing cycle cannot hang it).
func (sim *Simulator) remapReaches(from, target int) bool {
	p := from
	for hops := 0; hops <= len(sim.remap); hops++ {
		if p == target {
			return true
		}
		q, ok := sim.remap[p]
		if !ok {
			return false
		}
		p = q
	}
	return true // walk exceeded the table: already cyclic, reject
}

// spareFor picks the replacement module for the dead processor p:
// deterministically the next live processor in snake order of p's
// level-1 submesh (locality keeps relocated copies near their
// tessellation page), falling back to a global scan. Modules already
// claimed as spares are preferred-against but accepted when nothing
// else is alive. A candidate whose remap chain reaches the dead module
// is never accepted — installing it would close a cycle (the
// kill→revive→kill-spare pattern: the revived original looks alive and
// unclaimed, but still chains to the module being replaced). Returns -1
// when no live module remains.
func (sim *Simulator) spareFor(dead int) int {
	f := sim.faults
	claimed := make(map[int]bool, len(sim.remap))
	keys := make([]int, 0, len(sim.remap))
	for k := range sim.remap {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		claimed[sim.remap[k]] = true
	}
	ok := func(p int) bool {
		return p != dead && !f.ModuleDead(p) && !sim.remapReaches(p, dead)
	}
	{
		full := sim.M.Full()
		pg := full.SubRegionIndex(sim.M, sim.S.Q, sim.S.PageCount(1), dead)
		reg := sim.S.PageRegion(1, pg)
		n := reg.Size()
		at := reg.SnakeIndex(sim.M, dead)
		for j := 1; j < n; j++ {
			p := reg.ProcAtSnake(sim.M, (at+j)%n)
			if ok(p) && !claimed[p] {
				return p
			}
		}
	}
	for p := 0; p < sim.M.N; p++ {
		if ok(p) && !claimed[p] {
			return p
		}
	}
	for p := 0; p < sim.M.N; p++ {
		if ok(p) {
			return p
		}
	}
	return -1
}

// scrub runs one repair pass: remap every pending dead module to a
// spare, then rebuild each quarantined copy whose variable still holds
// a live target set by routing the freshest surviving value to the
// copy's (possibly relocated) home. All traffic and the final local
// writes are charged to the repair phase; copies whose repair packet
// is lost en route stay quarantined for the next pass.
func (sim *Simulator) scrub() error {
	if len(sim.pending) == 0 && sim.quarCount() == 0 {
		return nil
	}
	sim.rstats.Scrubs++
	sp := sim.ld.Begin("repair", trace.PhaseRepair)
	defer sp.End()

	for _, p := range sim.pending {
		host, err := sim.resolveProc(p)
		if err != nil {
			return err
		}
		if !sim.faults.ModuleDead(host) {
			continue // revived (or already remapped) before we got here
		}
		if spare := sim.spareFor(host); spare >= 0 {
			if sim.remap == nil {
				sim.remap = make(map[int]int)
			}
			sim.remap[host] = spare
			sim.rstats.Remapped++
		}
	}
	sim.pending = sim.pending[:0]
	if err := sim.repairQuarantined(sp); err != nil {
		return err
	}
	sim.rstats.Residual = sim.quarCount()
	return nil
}

// repairQuarantined rebuilds what the surviving copies can certify.
func (sim *Simulator) repairQuarantined(sp *trace.Span) error {
	if sim.quarCount() == 0 {
		return nil
	}
	s, m := sim.S, sim.M
	red := int64(s.Redundant)
	// Bitset iteration is ascending, i.e. already the sorted slot order
	// the historical map-and-sort produced.
	slots := make([]int64, 0, sim.quarCount())
	sim.quar.ForEach(func(i int) { slots = append(slots, int64(i)) })

	items := sim.arena.get()
	var table []rpkt // the scrub's repair packets, indexed by the handles items carries
	procs := make([]int32, s.Redundant)
	ranks := make([]int32, s.Redundant)
	pages := make([]int32, s.K*s.Redundant)
	mask := make([]bool, s.Redundant)
	curVar, canRepair, srcProc := -1, false, -1
	var bestVal Word
	var bestTs int64
	for _, slot := range slots {
		v := int(slot / red)
		if v != curVar {
			curVar = v
			s.PlaceTree(v, procs, ranks, pages, s.Redundant)
			canRepair, srcProc, bestVal, bestTs = false, -1, 0, -1
			for l, home := range procs {
				host, err := sim.resolveProc(int(home))
				if err != nil {
					return err
				}
				cslot := int64(v)*red + int64(l)
				mask[l] = !sim.faults.ModuleDead(host) && !sim.quarantined(cslot)
				if !mask[l] {
					continue
				}
				cl := sim.st.getPlaced(host, host != int(home), int(pages[l]), int(ranks[l]), cslot)
				if cl.ts > bestTs {
					bestTs, bestVal, srcProc = cl.ts, cl.val, host
				}
			}
			canRepair = srcProc >= 0 && s.AccessedRoot(mask)
		}
		if !canRepair {
			continue
		}
		dst, err := sim.resolveProc(int(procs[slot%red]))
		if err != nil {
			return err
		}
		if sim.faults.ModuleDead(dst) {
			continue // no spare was available; stays quarantined
		}
		items[srcProc] = append(items[srcProc], int32(len(table)))
		table = append(table, rpkt{dest: dst, slot: slot, val: bestVal, ts: bestTs})
	}
	if len(table) == 0 {
		sim.arena.put(items)
		return nil
	}
	sp.AddPackets(int64(len(table)))
	// Repair traffic routes on the protocol's engine, so under a local
	// fault view scrub packets detour on the same beliefs and keep gossip
	// rounds advancing while they travel. On a torus the scrub uses the
	// wrap links, as stage K+1 and the last return leg do.
	delivered, cycles, lost := sim.eng.RouteFault(
		sim.arena.get(), route.Whole(m, sim.cfg.Torus), items, func(h int32) int { return table[h].dest })
	sim.arena.put(items) // the call drained it
	sim.rstats.Lost += lost
	maxWrites := 0
	for p, hs := range delivered {
		for _, h := range hs {
			pk := table[h]
			sim.st.set(p, pk.slot, cell{val: pk.val, ts: pk.ts})
			sim.quar.Set(int(pk.slot), false)
			sim.rstats.Repaired++
		}
		maxWrites = max(maxWrites, len(hs))
		delivered[p] = hs[:0]
	}
	sim.arena.put(delivered)
	charge := cycles + int64(maxWrites)
	m.AddSteps(charge)
	sim.rstats.Steps += charge
	return nil
}

// RepairNow runs an unconditional full scrub against the live fault
// map, regardless of the configured policy. The retry path in
// internal/pram calls it after a rollback: the snapshot restored the
// memory and quarantine state of the pre-step world, so the pending
// list is re-derived from what is dead right now — including modules
// whose mid-step deaths the rollback rewound — and their data loss is
// replayed before the scrub rebuilds what the survivors certify. An
// error reports a broken remap invariant (see resolveProc).
func (sim *Simulator) RepairNow() error {
	if sim.faults == nil {
		return nil
	}
	sim.ensureHostIdx()
	sim.pending = sim.pending[:0]
	// A RepairNow is a system-level intervention with global knowledge:
	// it re-derives the dead set from the live map below, so deaths
	// still waiting for their notice to propagate are covered here and
	// must not trigger a second scrub when the notice lands.
	sim.notified = sim.notified[:0]
	seen := make(map[int]bool)
	for home := 0; home < sim.M.N; home++ {
		if len(sim.hostIdx[home]) == 0 {
			continue
		}
		host, err := sim.resolveProc(home)
		if err != nil {
			return err
		}
		if !sim.faults.ModuleDead(host) || seen[host] {
			continue
		}
		seen[host] = true
		if err := sim.loseModuleData(host); err != nil {
			return err
		}
	}
	return sim.scrub()
}
