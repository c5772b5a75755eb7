package core

import "unsafe"

// Memory accounting and compaction. A long-lived simulator retains
// recycled buffers (the packet arena, the routing engine's slabs and
// queues) sized by its high-water traffic; Compact drops them all, and
// MemReport breaks the resident footprint down by layer so experiments
// can attribute bytes/node to the scheme, the store, the fault sets
// and the gossip log (the SCALE experiment and mosinspect -mem).

// MemReport is a per-layer breakdown of the simulator's resident heap
// bytes. It counts retained capacities, not Go runtime overheads, so
// it is a deterministic lower bound suitable for regression gating.
type MemReport struct {
	Scheme    int64 // HMOS tables: the O(1) implicit memory map
	Store     int64 // shared-memory cells: page slabs + foreign overflow
	FaultSets int64 // fault map bitsets, quarantine, remap/pending/hostIdx
	ViewLog   int64 // gossip state of the local fault view
	Routing   int64 // routing engine, packet/waypoint tables, handle arena
}

// Total sums every layer.
func (r MemReport) Total() int64 {
	return r.Scheme + r.Store + r.FaultSets + r.ViewLog + r.Routing
}

// MemReport measures the simulator's current retained footprint.
func (sim *Simulator) MemReport() MemReport {
	var r MemReport
	r.Scheme = sim.S.MemBytes()
	r.Store = sim.st.memBytes()
	if sim.faults != nil {
		r.FaultSets += sim.faults.MemBytes()
	}
	if sim.quar != nil {
		r.FaultSets += sim.quar.MemBytes()
	}
	r.FaultSets += int64(len(sim.remap)) * 24
	r.FaultSets += int64(cap(sim.pending)) * 8
	r.FaultSets += int64(cap(sim.notified)) * int64(unsafe.Sizeof(notifiedDeath{}))
	if sim.hostIdx != nil {
		r.FaultSets += int64(cap(sim.hostIdx)) * 24
		for _, refs := range sim.hostIdx {
			r.FaultSets += int64(cap(refs)) * int64(unsafe.Sizeof(hostRef{}))
		}
	}
	if sim.view != nil {
		r.ViewLog = sim.view.MemBytes()
	}
	r.Routing = sim.eng.MemBytes() + sim.arena.memBytes()
	r.Routing += int64(cap(sim.pk))*int64(unsafe.Sizeof(pkt{})) + int64(cap(sim.wp))*4
	return r
}

// memBytes sums the arena's free-listed handle buffers (capacities).
func (a *pktArena) memBytes() int64 {
	var b int64
	for _, buf := range a.free {
		b += int64(cap(buf)) * 24
		for _, e := range buf {
			b += int64(cap(e)) * 4 // int32 handles
		}
	}
	return b
}

// Compact drops every recycled buffer the simulator retains — the
// packet and waypoint tables, the packet arena's free list, the
// routing engine's slabs and queues — returning the simulator to a
// compact quiescent state. Everything regrows lazily on the next step,
// so Compact is safe between steps and changes no observable behavior;
// call it before checkpointing or measuring resident memory.
func (sim *Simulator) Compact() {
	sim.pk, sim.wp = nil, nil
	sim.arena.free = nil
	sim.eng.Release()
}
