// Package trace is the unified cost-accounting and tracing layer of the
// repository: every execution path (the staged protocol of internal/core
// and its direct-routing ablation, the baselines, the MPC, and the PRAM
// backends) reports its charged mesh steps through one hierarchy of
// phase spans, and every consumer (internal/stats, cmd/experiments,
// cmd/pramsim) reads the same schema back.
//
// The model mirrors the paper's step accounting (DESIGN.md §6):
//
//   - a Span is one phase of an operation (a protocol stage, a sort, a
//     routing leg, the access round). Spans nest; the tree of one
//     PRAM-step simulation is the cost breakdown of Theorems 1–4.
//   - Charge records steps the machine actually pays. A span's Total is
//     its own charges plus its children's — by construction it equals
//     the step-counter delta of the operation it covers.
//   - Observe records steps a phase executed that are charged elsewhere:
//     phases running in disjoint submeshes in parallel are charged the
//     maximum over the submeshes, so each submesh's span observes its
//     own rounds while the parent charges the max. Observed steps never
//     enter totals; they exist for audit and per-submesh diagnostics.
//
// Spans also carry packet counts, wall-clock time and ordered integer
// attributes (the δ_i loads, Theorem-3 page loads, …). Completed root
// spans are handed to pluggable sinks; the ledger itself retains only
// the most recent root, so long simulations do not accumulate trace
// memory.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies a span for cost-breakdown views. The six non-Other
// phases are exactly the terms of the paper's step decomposition
// (sort / rank / route / access / return plus the CULLING preamble).
type Phase uint8

const (
	PhaseOther   Phase = iota // structural spans (steps, stages, legs)
	PhaseCulling              // copy selection (equation 2 shape)
	PhaseSort                 // destination sorting
	PhaseRank                 // ranking / prefix-sum passes
	PhaseForward              // origin→copy routing cycles
	PhaseAccess               // local memory accesses
	PhaseReturn               // copy→origin routing cycles
	PhaseRepair               // self-healing scrub traffic and retry backoff
	PhaseGossip               // fault-view dissemination diagnostics (observe-only)
)

var phaseNames = [...]string{"other", "culling", "sort", "rank", "forward", "access", "return", "repair", "gossip"}

// NumPhases is the number of distinct Phase values.
const NumPhases = len(phaseNames)

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "invalid"
}

// Attr is one ordered key→value diagnostic on a span.
type Attr struct {
	Key string
	Val int64
}

// Span is one node of a ledger tree. All step/packet mutators are safe
// for concurrent use; tree structure (Begin/End) is owned by the
// ledger's lock. A nil *Span is a valid no-op receiver everywhere, so
// uninstrumented callers never need nil checks.
type Span struct {
	name  string
	phase Phase
	par   bool // children ran in parallel submeshes; parent charges the max

	charged  atomic.Int64
	observed atomic.Int64
	executed atomic.Int64
	packets  atomic.Int64

	start  time.Time
	wallNs int64

	attrs    []Attr
	children []*Span
	parent   *Span
	ledger   *Ledger
}

// Name returns the span's label.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Phase returns the span's cost-breakdown classification.
func (s *Span) Phase() Phase {
	if s == nil {
		return PhaseOther
	}
	return s.phase
}

// Parallel reports whether the span's children ran in disjoint
// submeshes in parallel (so the charged steps are the max, carried by
// sibling leaf spans, while each child merely observes its own rounds).
func (s *Span) Parallel() bool { return s != nil && s.par }

// Charge records n machine steps paid at this span (n ≥ 0).
func (s *Span) Charge(n int64) {
	if s == nil || n == 0 {
		return
	}
	if n < 0 {
		panic("trace: negative step charge")
	}
	s.charged.Add(n)
}

// Observe records n executed-but-charged-elsewhere steps (see package
// doc: the parallel-submesh maximum rule).
func (s *Span) Observe(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.observed.Add(n)
}

// Exec records n physically executed engine iterations (sweeps, or
// line iterations on the healthy event path). Executed iterations are
// an implementation diagnostic beside the semantic axes: charged and
// observed cycles are bit-identical between the event-driven and
// cycle-stepped engines, while executed exposes the skip ratio
// (executed ≤ observed cycles, with equality wherever the engine
// sweeps). Like wall time and alloc counts,
// executed never enters totals or deterministic renderings.
func (s *Span) Exec(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.executed.Add(n)
}

// AddPackets records n packets handled by this span.
func (s *Span) AddPackets(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.packets.Add(n)
}

// SetAttr appends a diagnostic attribute (duplicate keys allowed; the
// last value wins on lookup).
func (s *Span) SetAttr(key string, val int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, val})
}

// Attr returns the last value recorded for key.
func (s *Span) Attr(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Val, true
		}
	}
	return 0, false
}

// Attrs returns the span's attributes in recording order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Charged returns the steps charged directly at this span.
func (s *Span) Charged() int64 {
	if s == nil {
		return 0
	}
	return s.charged.Load()
}

// Observed returns the steps observed (charged elsewhere) at this span.
func (s *Span) Observed() int64 {
	if s == nil {
		return 0
	}
	return s.observed.Load()
}

// Executed returns the physically executed engine iterations recorded
// at this span (0 when the phase ran cycle-stepped or predates the
// event engine).
func (s *Span) Executed() int64 {
	if s == nil {
		return 0
	}
	return s.executed.Load()
}

// Packets returns the packets recorded at this span.
func (s *Span) Packets() int64 {
	if s == nil {
		return 0
	}
	return s.packets.Load()
}

// WallNs returns the wall-clock duration, valid after End.
func (s *Span) WallNs() int64 {
	if s == nil {
		return 0
	}
	return s.wallNs
}

// Total returns the charged steps of the whole subtree: this span's own
// charges plus the sum of its children's totals. For an operation that
// charges every step through its spans, Total equals the machine
// step-counter delta.
func (s *Span) Total() int64 {
	if s == nil {
		return 0
	}
	t := s.charged.Load()
	for _, c := range s.children {
		t += c.Total()
	}
	return t
}

// PhaseTotals sums the charged steps of the subtree by phase.
func (s *Span) PhaseTotals() [NumPhases]int64 {
	var out [NumPhases]int64
	s.phaseTotalsInto(&out)
	return out
}

func (s *Span) phaseTotalsInto(out *[NumPhases]int64) {
	if s == nil {
		return
	}
	out[s.phase] += s.charged.Load()
	for _, c := range s.children {
		c.phaseTotalsInto(out)
	}
}

// End closes the span: records wall time, pops it from the ledger's active chain, and — if it was a
// root — emits it to the sinks and retains it as the ledger's last
// completed tree.
func (s *Span) End() {
	if s == nil {
		return
	}
	//detlint:ignore wallclock span wall time is a diagnostic; it never enters charged totals
	s.wallNs = time.Since(s.start).Nanoseconds()
	l := s.ledger
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.active == s {
		l.active = s.parent
	}
	root := s.parent == nil
	if root {
		l.last = s
	}
	sinks := l.sinks
	l.mu.Unlock()
	if root {
		for _, sink := range sinks {
			sink.Emit(s)
		}
	}
}

// Sink consumes completed root spans (e.g. writes them to a file).
type Sink interface {
	Emit(root *Span)
}

// Ledger is the accounting spine one machine (or one standalone
// simulator) charges through. A nil *Ledger is a valid no-op receiver.
type Ledger struct {
	mu     sync.Mutex
	active *Span
	last   *Span
	sinks  []Sink
}

// New creates a ledger.
func New() *Ledger { return &Ledger{} }

// AddSink registers a sink receiving every completed root span. It
// works on a ledger already owned by a machine or simulator.
func (l *Ledger) AddSink(s Sink) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	l.sinks = append(l.sinks, s)
	l.mu.Unlock()
}

// Begin opens a span nested under the currently active span (a new root
// when none is active) and makes it active.
func (l *Ledger) Begin(name string, phase Phase) *Span {
	return l.begin(name, phase, false)
}

// BeginPar is Begin for a phase whose children run in parallel across
// disjoint submeshes: child spans observe their own rounds while the
// caller charges the maximum (the paper's cost rule).
func (l *Ledger) BeginPar(name string, phase Phase) *Span {
	return l.begin(name, phase, true)
}

func (l *Ledger) begin(name string, phase Phase, par bool) *Span {
	if l == nil {
		return nil
	}
	//detlint:ignore wallclock span wall time is a diagnostic; it never enters charged totals
	s := &Span{name: name, phase: phase, par: par, ledger: l, start: time.Now()}
	l.mu.Lock()
	s.parent = l.active
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	}
	l.active = s
	l.mu.Unlock()
	return s
}

// Active returns the currently open span, or nil.
func (l *Ledger) Active() *Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active
}

// Charge adds n steps to the active span; charges outside any span are
// dropped (the machine counter still records them).
func (l *Ledger) Charge(n int64) {
	if l == nil {
		return
	}
	l.Active().Charge(n)
}

// Last returns the most recently completed root span, or nil. The
// ledger retains only this one tree; use a Sink to keep history.
func (l *Ledger) Last() *Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}
