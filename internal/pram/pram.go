// Package pram provides the programming front-end of the simulation: a
// lockstep PRAM programming model with pluggable execution backends —
// an ideal shared memory (the machine being simulated) and the mesh
// simulation of the paper (internal/core). The same Program runs on
// both; comparing their step counts yields the simulation slowdown.
//
// Concurrent access: the paper's protocol serves one *distinct*
// variable per processor per step. The mesh backend therefore combines
// concurrent requests at the source, Ranade-style: concurrent reads of
// a variable are served by one representative request and fanned out,
// and of concurrent writes the lowest pid's value wins (the Arbitrary
// CRCW rule, on both backends) and is routed alone. A step whose read
// set and write set overlap is split into a read round followed by a
// write round so that all reads observe the pre-step memory (the usual
// CRCW convention).
package pram

import (
	"bytes"
	"fmt"
	"sort"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/sim"
	"meshpram/internal/trace"
)

// Word is the PRAM machine word.
type Word = int64

// Kind classifies a processor's request in a step.
type Kind uint8

const (
	None  Kind = iota // no shared-memory access this step
	Read              // read Addr
	Write             // write Value to Addr
)

// Op is one processor's request for a PRAM step.
type Op struct {
	Kind  Kind
	Addr  int
	Value Word
}

// Program is a lockstep PRAM program. Next is called once per PRAM
// step with the step index and, aligned by processor id, the results of
// the previous step's reads (zero for non-reads). It returns this
// step's ops (length Procs(); use Kind None for idle processors) and
// whether the program has terminated (when done is true the returned
// ops are not executed).
type Program interface {
	Procs() int
	Next(t int, prev []Word) (ops []Op, done bool)
}

// Backend executes PRAM steps.
type Backend interface {
	// Vars returns the shared-memory size.
	Vars() int
	// ExecStep executes one step of ops (indexed by pid; Kind None
	// entries are idle) and returns the read results aligned by pid.
	ExecStep(ops []Op) ([]Word, error)
	// Steps returns the cumulative cost in backend steps.
	Steps() int64
}

// BackendKind names a PRAM execution backend for NewBackend.
type BackendKind string

const (
	// BackendIdeal is the machine being simulated: unit-cost shared
	// memory.
	BackendIdeal BackendKind = "ideal"
	// BackendMesh is the paper's mesh simulation (internal/core).
	BackendMesh BackendKind = "mesh"
)

// NewBackend constructs a PRAM backend from a sim.Config — the single
// construction path both CLIs use. The ideal backend takes its memory
// size from cfg.IdealMemory (the scheme's M when zero); the mesh
// backend gets the full configuration, including the fault map, and
// the config's trace sinks are wired onto its ledger.
func NewBackend(kind BackendKind, cfg sim.Config) (Backend, error) {
	switch kind {
	case BackendIdeal:
		words := cfg.IdealMemory
		if words == 0 {
			v, err := cfg.Vars()
			if err != nil {
				return nil, err
			}
			words = v
		}
		return newIdeal(words), nil
	case BackendMesh:
		// Build through cfg.NewSimulator so the scheme built (or
		// installed via sim.UseScheme) by sim.FromScenario is reused and the
		// config's trace sinks are wired exactly once.
		s, err := cfg.NewSimulator()
		if err != nil {
			return nil, err
		}
		mb := &Mesh{Sim: s, m: s.Mesh()}
		if cfg.Retry > 0 {
			mb.SetRetryBudget(cfg.Retry)
		}
		return mb, nil
	default:
		return nil, fmt.Errorf("pram: unknown backend kind %q (want %q or %q)",
			kind, BackendIdeal, BackendMesh)
	}
}

// Run executes the program to completion on the backend and returns
// the number of PRAM steps taken.
func Run(p Program, b Backend) (pramSteps int, err error) {
	n := p.Procs()
	prev := make([]Word, n)
	for t := 0; ; t++ {
		ops, done := p.Next(t, prev)
		if done {
			return t, nil
		}
		if len(ops) != n {
			return t, fmt.Errorf("pram: program returned %d ops for %d processors", len(ops), n)
		}
		res, err := b.ExecStep(ops)
		if err != nil {
			return t, err
		}
		copy(prev, res)
		if t > 1<<20 {
			return t, fmt.Errorf("pram: program exceeded the %d-step limit", 1<<20)
		}
	}
}

// --- Ideal backend -----------------------------------------------------

// Ideal is the machine being simulated: a unit-cost shared memory.
type Ideal struct {
	mem   []Word
	steps int64
}

// newIdeal creates an ideal PRAM with the given memory size. Callers
// outside the package construct it through NewBackend(BackendIdeal, cfg).
func newIdeal(vars int) *Ideal {
	return &Ideal{mem: make([]Word, vars)}
}

// Vars implements Backend.
func (id *Ideal) Vars() int { return len(id.mem) }

// Steps implements Backend: every PRAM step costs one unit.
func (id *Ideal) Steps() int64 { return id.steps }

// ExecStep implements Backend.
func (id *Ideal) ExecStep(ops []Op) ([]Word, error) {
	res := make([]Word, len(ops))
	// Reads see pre-step memory.
	for i, op := range ops {
		if op.Kind == Read {
			if op.Addr < 0 || op.Addr >= len(id.mem) {
				return nil, fmt.Errorf("pram: read address %d out of range", op.Addr)
			}
			res[i] = id.mem[op.Addr]
		}
	}
	// Of concurrent writes the lowest pid wins; memory changes only once
	// every address has been checked.
	writes := map[int]Word{}
	var addrs []int
	for _, op := range ops {
		if op.Kind == Write {
			if op.Addr < 0 || op.Addr >= len(id.mem) {
				return nil, fmt.Errorf("pram: write address %d out of range", op.Addr)
			}
			if _, ok := writes[op.Addr]; !ok {
				addrs = append(addrs, op.Addr)
				writes[op.Addr] = op.Value
			}
		}
	}
	for _, a := range addrs {
		id.mem[a] = writes[a]
	}
	id.steps++
	return res, nil
}

// --- Mesh backend -------------------------------------------------------

// Mesh executes PRAM steps on the paper's mesh simulation.
type Mesh struct {
	Sim *core.Simulator
	m   *mesh.Machine

	lastRep  *fault.StepReport // degradation of the most recent ExecStep
	totalRep *fault.StepReport // accumulated degradation across the run

	retryBudget int // max re-executions per PRAM step (0 = no retry)
	rollbackCap int // max re-executions across the whole run (0 = per-step budget only)
	rec         RecoveryStats
}

// RecoveryStats counts what the checkpointed-retry layer did.
type RecoveryStats struct {
	Retries   int   // step re-executions performed
	Backoff   int64 // mesh steps spent waiting between attempts
	Recovered int   // steps that ended clean only thanks to a retry
	Exhausted int   // steps still degraded after the full per-step budget
	Capped    int   // steps denied (further) retries by the run-wide rollback cap
}

// Vars implements Backend.
func (mb *Mesh) Vars() int { return mb.Sim.Scheme().Vars() }

// Steps implements Backend: cumulative charged mesh steps.
func (mb *Mesh) Steps() int64 { return mb.m.Steps() }

// SetRetryBudget configures checkpointed step retry: before each PRAM
// step a memory snapshot is taken, and a step that ends with
// unrecoverable variables is rolled back and re-executed up to n times.
// Each attempt is preceded by an unconditional repair pass
// (core.Simulator.RepairNow), an exponential backoff of 2^(attempt−1)
// mesh steps charged to the repair phase (the window in which a real
// system would wait out transient churn), and runs with hardened
// (level-0) target sets that tolerate isolated packet loss on the
// round trip. Only effective on fault-aware simulators. n is clamped
// to [0, sim.MaxRetry].
func (mb *Mesh) SetRetryBudget(n int) {
	n = min(max(n, 0), sim.MaxRetry)
	mb.retryBudget = n
	mb.rollbackCap = rollbackCapFactor * n
}

// rollbackCapFactor sizes the default run-wide rollback cap as a
// multiple of the per-step budget. The per-step budget alone cannot
// detect a livelocked fault schedule: every step can burn its full
// budget, the exponential backoff keeps charging, and the run grinds on
// forever-degraded while looking merely slow. The run-wide cap bounds
// the total rollback work; steps past it execute once and report their
// degradation honestly (RecoveryStats.Capped).
const rollbackCapFactor = 16

// Recovery returns the accumulated checkpointed-retry counters.
func (mb *Mesh) Recovery() RecoveryStats { return mb.rec }

// RepairStats returns the core simulator's self-healing counters.
func (mb *Mesh) RepairStats() core.RepairStats { return mb.Sim.RepairStats() }

// ExecStep implements Backend: one attempt through execStep, wrapped in
// the checkpointed-retry loop when a budget is configured. The
// degradation report of the final attempt (only) is folded into the
// run's total, so a recovered step counts as clean.
func (mb *Mesh) ExecStep(ops []Op) ([]Word, error) {
	defer func() {
		if mb.lastRep != nil {
			if mb.totalRep == nil {
				mb.totalRep = &fault.StepReport{}
			}
			mb.totalRep.Merge(mb.lastRep)
		}
	}()

	var snap *bytes.Buffer
	if mb.retryBudget > 0 && mb.Sim.FaultAware() {
		snap = &bytes.Buffer{}
		if err := mb.Sim.Save(snap); err != nil {
			return nil, fmt.Errorf("pram: checkpoint: %w", err)
		}
	}
	res, err := mb.execStep(ops)
	if err != nil || snap == nil {
		return res, err
	}
	retried, capped := false, false
	for attempt := 1; attempt <= mb.retryBudget && mb.lastRep != nil && len(mb.lastRep.Unrecoverable) > 0; attempt++ {
		if mb.rollbackCap > 0 && mb.rec.Retries >= mb.rollbackCap {
			capped = true
			break
		}
		retried = true
		mb.rec.Retries++
		if err := mb.Sim.Load(bytes.NewReader(snap.Bytes())); err != nil {
			return nil, fmt.Errorf("pram: rollback: %w", err)
		}
		if err := mb.Sim.RepairNow(); err != nil {
			return nil, fmt.Errorf("pram: repair before retry %d: %w", attempt, err)
		}
		backoff := int64(1) << (attempt - 1)
		sp := mb.Sim.Ledger().Begin("retry-backoff", trace.PhaseRepair)
		mb.m.AddSteps(backoff)
		sp.End()
		mb.rec.Backoff += backoff
		mb.Sim.SetHardened(true)
		res, err = mb.execStep(ops)
		mb.Sim.SetHardened(false)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case capped:
		// The run-wide cap cut this step off (possibly before its first
		// rollback) while it was still degraded — distinct from spending
		// the full per-step budget.
		mb.rec.Capped++
	case retried && mb.lastRep != nil && len(mb.lastRep.Unrecoverable) > 0:
		mb.rec.Exhausted++
	case retried:
		mb.rec.Recovered++
	}
	return res, nil
}

// execStep runs one attempt: concurrent requests are combined at the
// origins (charged as one mesh sort + prefix pass when any combining or
// fan-out happens), then executed as one core step — or two, when the
// step both reads and writes the same variable.
func (mb *Mesh) execStep(ops []Op) ([]Word, error) {
	res := make([]Word, len(ops))
	n := mb.m.N
	mb.lastRep = nil

	readers := map[int][]int{} // addr -> pids
	writers := map[int][]int{}
	var readAddrs, writeAddrs []int
	for pid, op := range ops {
		switch op.Kind {
		case None:
		case Read:
			if op.Addr < 0 || op.Addr >= mb.Vars() {
				return nil, fmt.Errorf("pram: read address %d out of range", op.Addr)
			}
			if _, ok := readers[op.Addr]; !ok {
				readAddrs = append(readAddrs, op.Addr)
			}
			readers[op.Addr] = append(readers[op.Addr], pid)
		case Write:
			if op.Addr < 0 || op.Addr >= mb.Vars() {
				return nil, fmt.Errorf("pram: write address %d out of range", op.Addr)
			}
			if _, ok := writers[op.Addr]; !ok {
				writeAddrs = append(writeAddrs, op.Addr)
			}
			writers[op.Addr] = append(writers[op.Addr], pid)
		default:
			return nil, fmt.Errorf("pram: unknown op kind %d", op.Kind)
		}
	}
	if len(readAddrs) == 0 && len(writeAddrs) == 0 {
		return res, nil
	}
	// One ledger tree per PRAM step: the core simulator's "step" spans
	// (one or two protocol rounds) nest under this root together with
	// the source-combining charge.
	ld := mb.Sim.Ledger()
	es := ld.Begin("exec-step", trace.PhaseOther)
	defer es.End()
	sort.Ints(readAddrs)
	sort.Ints(writeAddrs)

	// Charge source combining when any variable has multiple requests
	// or a read/write conflict: one sort + prefix pass over the mesh.
	needCombine := false
	for _, a := range readAddrs {
		if len(readers[a]) > 1 || writers[a] != nil {
			needCombine = true
		}
	}
	for _, a := range writeAddrs {
		if len(writers[a]) > 1 {
			needCombine = true
		}
	}
	if needCombine {
		full := mb.m.Full()
		sp := ld.Begin("source-combine", trace.PhaseSort)
		mb.m.AddSteps(route.SortCost(full, 1) + 3*int64(full.W-1) + int64(full.H-1))
		sp.End()
	}

	if len(readAddrs) > n || len(writeAddrs) > n {
		return nil, fmt.Errorf("pram: %d distinct addresses exceed %d mesh processors",
			max(len(readAddrs), len(writeAddrs)), n)
	}

	// A read and a write to the same variable in one step force a read
	// round before the write round so reads see pre-step memory;
	// otherwise everything goes in a single protocol round.
	overlap := false
	for _, a := range readAddrs {
		if writers[a] != nil {
			overlap = true
			break
		}
	}

	readBatch := make([]core.Op, 0, len(readAddrs))
	for _, a := range readAddrs {
		readBatch = append(readBatch, core.Op{Origin: readers[a][0] % n, Var: a})
	}
	writeBatch := make([]core.Op, 0, len(writeAddrs))
	for _, a := range writeAddrs {
		pid := writers[a][0] // the lowest pid's write wins
		writeBatch = append(writeBatch, core.Op{Origin: pid % n, Var: a, IsWrite: true, Value: ops[pid].Value})
	}

	fanOut := func(vals []Word) {
		for i, a := range readAddrs {
			for _, pid := range readers[a] {
				res[pid] = vals[i]
			}
		}
	}
	if overlap || len(readBatch)+len(writeBatch) > n {
		if len(readBatch) > 0 {
			vals, err := mb.step(readBatch)
			if err != nil {
				return nil, err
			}
			fanOut(vals)
		}
		if len(writeBatch) > 0 {
			if _, err := mb.step(writeBatch); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	merged := append(readBatch, writeBatch...)
	vals, err := mb.step(merged)
	if err != nil {
		return nil, err
	}
	fanOut(vals[:len(readBatch)])
	return res, nil
}

// step runs one core protocol round, propagating validation errors and
// folding the round's degradation report — with unrecoverable ops
// translated from batch indexes to variable addresses — into the PRAM
// step's report.
func (mb *Mesh) step(batch []core.Op) ([]Word, error) {
	vals, _, err := mb.Sim.StepChecked(batch)
	if err != nil {
		return nil, fmt.Errorf("pram: %w", err)
	}
	if r := mb.Sim.LastReport(); r != nil {
		rep := &fault.StepReport{Ops: r.Ops, DeadOrigins: r.DeadOrigins, LostPackets: r.LostPackets}
		for _, i := range r.Unrecoverable {
			rep.Unrecoverable = append(rep.Unrecoverable, batch[i].Var)
		}
		if mb.lastRep == nil {
			mb.lastRep = &fault.StepReport{}
		}
		mb.lastRep.Merge(rep)
	}
	return vals, nil
}

// LastReport returns the degradation report of the most recent
// ExecStep (its protocol rounds merged; Unrecoverable holds variable
// addresses). nil on a fault-free configuration.
func (mb *Mesh) LastReport() *fault.StepReport { return mb.lastRep }

// TotalReport returns the degradation accumulated across every
// ExecStep since construction. nil on a fault-free configuration.
func (mb *Mesh) TotalReport() *fault.StepReport { return mb.totalRep }
