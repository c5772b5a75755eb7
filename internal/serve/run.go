// Package serve turns the deterministic simulation into a long-lived
// service: a warm pool of workers executes sim.Scenario submissions
// behind one bounded queue, and one table keyed by the scenario's
// canonical key holds every job — in flight, or finished with its
// encoded body or its error. Because the simulation is fully
// deterministic — identical (scenario, seed) always yields identical
// delivered words, cycle counts, verdicts and ledger spans — the key
// is the job id, and a table hit returns bytes identical to
// recomputation: the expensive path runs once per distinct scenario,
// no matter how many clients ask.
//
// Determinism boundary: everything in this file — scenario execution
// and result encoding — is deterministic and wall-clock free (detlint
// gates the package). Wall-clock time exists only in the HTTP request
// timeout (server.go), which never feeds charged-cost accounting or
// response bodies.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/hmos"
	"meshpram/internal/pram"
	"meshpram/internal/sim"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
)

// Result is the service's response to one scenario: everything the
// pramsim CLI reports, as one flat JSON document. All fields are value
// types or slices — no maps — so encoding/json output is
// byte-deterministic for a given Result.
type Result struct {
	// Key is the scenario's canonical cache key (sim.Scenario.Key).
	Key string `json:"key"`
	// Scenario echoes the normalized scenario that was executed.
	Scenario sim.Scenario `json:"scenario"`

	Ideal *IdealResult `json:"ideal,omitempty"`
	Mesh  *MeshResult  `json:"mesh,omitempty"`

	// Slowdown is mesh steps per PRAM step (backend "both" only).
	Slowdown float64 `json:"slowdown,omitempty"`
}

// IdealResult reports the run on the unit-cost shared-memory machine.
type IdealResult struct {
	PRAMSteps int `json:"pram_steps"`
	// Cost is the backend step count at program completion (the output
	// fetch is excluded).
	Cost  int64       `json:"cost"`
	Words []pram.Word `json:"words"`
}

// SchemeInfo describes the constructed HMOS instance.
type SchemeInfo struct {
	N          int     `json:"n"`          // processors (side²)
	Vars       int     `json:"vars"`       // shared variables M
	Alpha      float64 `json:"alpha"`      // M / n
	Redundancy int     `json:"redundancy"` // q^k copies per variable
}

// PhaseTotals is the charged-cycle breakdown accumulated over every
// root span of the run's cost ledger (the program's PRAM steps; the
// output fetch is excluded).
type PhaseTotals struct {
	Other   int64 `json:"other"`
	Culling int64 `json:"culling"`
	Sort    int64 `json:"sort"`
	Rank    int64 `json:"rank"`
	Forward int64 `json:"forward"`
	Access  int64 `json:"access"`
	Return  int64 `json:"return"`
	Repair  int64 `json:"repair"`
}

// Verdict classifies how the run ended.
type Verdict string

const (
	// VerdictOK: no degradation was observed.
	VerdictOK Verdict = "ok"
	// VerdictDegraded: packets or origins were lost but every access
	// still reached a majority — results are trustworthy.
	VerdictDegraded Verdict = "degraded"
	// VerdictUnrecoverable: at least one variable lost its majority;
	// results for those variables cannot be trusted.
	VerdictUnrecoverable Verdict = "unrecoverable"
)

// Degradation is the accumulated fault.StepReport of the run.
type Degradation struct {
	Ops           int   `json:"ops"`
	DeadOrigins   int   `json:"dead_origins"`
	LostPackets   int   `json:"lost_packets"`
	Unrecoverable []int `json:"unrecoverable,omitempty"`
}

// RepairReport mirrors core.RepairStats.
type RepairReport struct {
	ModuleDeaths int   `json:"module_deaths"`
	Scrubs       int   `json:"scrubs"`
	Repaired     int   `json:"repaired"`
	Residual     int   `json:"residual"`
	Remapped     int   `json:"remapped"`
	Lost         int   `json:"lost"`
	Steps        int64 `json:"steps"`
	// Local fault view only (fault_view=local): deaths whose gossip
	// notice reached the scrub coordinator, and the summed steps from
	// each death to its discovery. Zero under the omniscient default.
	Discovered     int   `json:"discovered,omitempty"`
	DiscoverySteps int64 `json:"discovery_steps,omitempty"`
}

// RecoveryReport mirrors pram.RecoveryStats.
type RecoveryReport struct {
	Retries   int   `json:"retries"`
	Backoff   int64 `json:"backoff"`
	Recovered int   `json:"recovered"`
	Exhausted int   `json:"exhausted"`
	Capped    int   `json:"capped"` // steps cut off by the run-wide rollback cap
}

// MeshResult reports the run on the paper's mesh simulation.
type MeshResult struct {
	PRAMSteps int   `json:"pram_steps"`
	MeshSteps int64 `json:"mesh_steps"` // charged steps at program completion

	Scheme SchemeInfo  `json:"scheme"`
	Phases PhaseTotals `json:"phases"`

	Verdict     Verdict         `json:"verdict"`
	Degradation *Degradation    `json:"degradation,omitempty"`
	Repair      *RepairReport   `json:"repair,omitempty"`
	Recovery    *RecoveryReport `json:"recovery,omitempty"`

	Words []pram.Word `json:"words"`

	// Trace is the rendered cost-ledger tree of the last PRAM step
	// (scenario.trace only). The rendering is wall-clock free, so it is
	// byte-deterministic like everything else here.
	Trace string `json:"trace,omitempty"`
}

// phaseSink accumulates per-phase charged totals from every completed
// root span of a ledger. One sink per run, owned by one worker — no
// locking needed.
type phaseSink struct {
	totals [trace.NumPhases]int64
}

// Emit implements trace.Sink.
func (s *phaseSink) Emit(root *trace.Span) {
	t := root.PhaseTotals()
	for i, v := range t {
		s.totals[i] += v
	}
}

func (s *phaseSink) view() PhaseTotals {
	return PhaseTotals{
		Other:   s.totals[trace.PhaseOther],
		Culling: s.totals[trace.PhaseCulling],
		Sort:    s.totals[trace.PhaseSort],
		Rank:    s.totals[trace.PhaseRank],
		Forward: s.totals[trace.PhaseForward],
		Access:  s.totals[trace.PhaseAccess],
		Return:  s.totals[trace.PhaseReturn],
		Repair:  s.totals[trace.PhaseRepair],
	}
}

// schemeEntry is one warm HMOS scheme in a Runner's cache.
type schemeEntry struct {
	params hmos.Params
	scheme *hmos.Scheme
}

// maxWarmSchemes bounds a Runner's scheme cache (move-to-front slice,
// not a map, so eviction order is deterministic and detlint-clean).
const maxWarmSchemes = 8

// Runner executes scenarios for one worker goroutine, keeping the
// constructed HMOS schemes warm across runs: schemes are immutable and
// expensive (GF tables, BIBD graphs, tessellations), while the mesh
// machine, engines and memory state are rebuilt per run so no state
// leaks between scenarios — a warm rerun is bit-identical to a cold
// one by construction.
type Runner struct {
	schemes []schemeEntry
}

// NewRunner returns an empty (cold) runner.
func NewRunner() *Runner { return &Runner{} }

// scheme returns the warm scheme for p, constructing and caching it on
// miss (move-to-front, bounded).
func (r *Runner) scheme(p hmos.Params) (*hmos.Scheme, error) {
	for i, e := range r.schemes {
		if e.params == p {
			copy(r.schemes[1:i+1], r.schemes[:i])
			r.schemes[0] = e
			return e.scheme, nil
		}
	}
	s, err := hmos.New(p)
	if err != nil {
		return nil, err
	}
	if len(r.schemes) >= maxWarmSchemes {
		r.schemes = r.schemes[:maxWarmSchemes-1]
	}
	r.schemes = append([]schemeEntry{{params: p, scheme: s}}, r.schemes...)
	return s, nil
}

// Run executes one scenario to completion and returns its Result.
// Errors are deterministic properties of the scenario (validation,
// construction, program/machine mismatch), never of server state.
func (r *Runner) Run(scenario sim.Scenario) (*Result, error) {
	sc := scenario.Normalized()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Key: sc.Key(), Scenario: sc}

	if sc.Backend == sim.BackendBoth || sc.Backend == sim.BackendIdeal {
		ideal, err := r.runIdeal(sc)
		if err != nil {
			return nil, err
		}
		res.Ideal = ideal
	}
	if sc.Backend == sim.BackendBoth || sc.Backend == sim.BackendMesh {
		mesh, err := r.runMesh(sc)
		if err != nil {
			return nil, err
		}
		res.Mesh = mesh
	}
	if res.Ideal != nil && res.Mesh != nil && res.Mesh.PRAMSteps > 0 {
		res.Slowdown = float64(res.Mesh.MeshSteps) / float64(res.Mesh.PRAMSteps)
	}
	return res, nil
}

// RunBody executes the scenario and returns the encoded response body
// — the exact bytes the server caches and every transport returns.
func (r *Runner) RunBody(scenario sim.Scenario) ([]byte, error) {
	res, err := r.Run(scenario)
	if err != nil {
		return nil, err
	}
	return EncodeResult(res)
}

// EncodeResult renders a Result as the service's canonical response
// body: indented JSON plus a trailing newline. The encoding is
// byte-deterministic (flat structs, no maps), pinned by the
// cache-identity test.
func EncodeResult(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

func (r *Runner) runIdeal(sc sim.Scenario) (*IdealResult, error) {
	cfg, err := sim.FromScenario(sc)
	if err != nil {
		return nil, err
	}
	b, err := pram.NewBackend(pram.BackendIdeal, cfg)
	if err != nil {
		return nil, err
	}
	prog, err := pram.BuildProgram(sc.Program, sc.Size, sc.Seed)
	if err != nil {
		return nil, err
	}
	steps, err := pram.Run(prog, b)
	if err != nil {
		return nil, fmt.Errorf("serve: ideal run: %w", err)
	}
	out := &IdealResult{PRAMSteps: steps, Cost: b.Steps()}
	out.Words, err = fetchOutputs(b, prog)
	if err != nil {
		return nil, fmt.Errorf("serve: ideal output fetch: %w", err)
	}
	return out, nil
}

func (r *Runner) runMesh(sc sim.Scenario) (*MeshResult, error) {
	scheme, err := r.scheme(sc.Params())
	if err != nil {
		return nil, err
	}
	var phases phaseSink
	cfg, err := sim.FromScenario(sc, sim.UseScheme(scheme), sim.TraceSink(&phases))
	if err != nil {
		return nil, err
	}
	b, err := pram.NewBackend(pram.BackendMesh, cfg)
	if err != nil {
		return nil, err
	}
	mb := b.(*pram.Mesh)
	prog, err := pram.BuildProgram(sc.Program, sc.Size, sc.Seed)
	if err != nil {
		return nil, err
	}
	steps, err := pram.Run(prog, mb)
	if err != nil {
		return nil, fmt.Errorf("serve: mesh run: %w", err)
	}

	// Snapshot every observable before the output fetch: the fetch is
	// one more charged step and must not leak into the reported costs,
	// verdicts or the rendered trace.
	s := mb.Sim.Scheme()
	out := &MeshResult{
		PRAMSteps: steps,
		MeshSteps: mb.Steps(),
		Scheme: SchemeInfo{
			N:          s.N,
			Vars:       s.Vars(),
			Alpha:      s.Alpha(),
			Redundancy: s.CopiesPerVar(),
		},
		Phases:  phases.view(),
		Verdict: verdictOf(mb.TotalReport()),
	}
	if rep := mb.TotalReport(); rep != nil {
		unrec := append([]int(nil), rep.Unrecoverable...)
		out.Degradation = &Degradation{
			Ops:           rep.Ops,
			DeadOrigins:   rep.DeadOrigins,
			LostPackets:   rep.LostPackets,
			Unrecoverable: unrec,
		}
	}
	if rs := mb.RepairStats(); rs != (core.RepairStats{}) {
		out.Repair = &RepairReport{
			ModuleDeaths:   rs.ModuleDeaths,
			Scrubs:         rs.Scrubs,
			Repaired:       rs.Repaired,
			Residual:       rs.Residual,
			Remapped:       rs.Remapped,
			Lost:           rs.Lost,
			Steps:          rs.Steps,
			Discovered:     rs.Discovered,
			DiscoverySteps: rs.DiscoverySteps,
		}
	}
	if rec := mb.Recovery(); rec != (pram.RecoveryStats{}) {
		out.Recovery = &RecoveryReport{
			Retries:   rec.Retries,
			Backoff:   rec.Backoff,
			Recovered: rec.Recovered,
			Exhausted: rec.Exhausted,
			Capped:    rec.Capped,
		}
	}
	if sc.Trace {
		var buf bytes.Buffer
		stats.RenderTrace(&buf, trace.Export(mb.Sim.Ledger().Last()))
		out.Trace = buf.String()
	}
	out.Words, err = fetchOutputs(mb, prog)
	if err != nil {
		return nil, fmt.Errorf("serve: mesh output fetch: %w", err)
	}
	return out, nil
}

func verdictOf(rep *fault.StepReport) Verdict {
	switch {
	case rep == nil || !rep.Degraded():
		return VerdictOK
	case len(rep.Unrecoverable) > 0:
		return VerdictUnrecoverable
	default:
		return VerdictDegraded
	}
}

// fetchOutputs reads the program's result region with one extra read
// step. Programs without a known output region yield no words.
func fetchOutputs(b pram.Backend, prog pram.Program) ([]pram.Word, error) {
	o, ok := prog.(pram.Outputs)
	if !ok {
		return nil, nil
	}
	base, n := o.OutputRange()
	return pram.ReadWords(b, base, n)
}
