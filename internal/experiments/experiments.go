// Package experiments implements the reproduction harness: one
// experiment per theorem/claim of the paper (see DESIGN.md §4). Each
// experiment generates its workload, runs the relevant machinery, and
// renders a table (and, where meaningful, an ASCII figure) comparing
// the measured quantity against the paper's bound or the theoretical
// shape. cmd/experiments runs them all; the root bench_test.go exposes
// one testing.B benchmark per experiment.
package experiments

import (
	"io"

	"meshpram/internal/trace"
)

// Config tunes harness scale.
type Config struct {
	// Big includes the largest (slow) machine sizes.
	Big bool
	// Seed drives all workload generation.
	Seed int64
	// Report, when non-nil, collects machine-readable results as the
	// experiment runs (cmd/experiments -json). Experiments record into
	// it through the nil-safe setters below, so the hot path needs no
	// guards.
	Report *Report
}

// Report is the machine-readable result of one experiment run;
// cmd/experiments -json serializes one per experiment as
// BENCH_<id>.json. Steps and Phases describe the experiment's headline
// measurement; Traces holds one exported cost-ledger tree per
// execution path the experiment exercised, in the shared trace.Node
// schema.
type Report struct {
	ID     string                 `json:"id"`
	Claim  string                 `json:"claim"`
	WallNs int64                  `json:"wall_ns"`
	Steps  int64                  `json:"steps,omitempty"`
	Phases map[string]int64       `json:"phases,omitempty"`
	Traces map[string]*trace.Node `json:"traces,omitempty"`
}

// SetSteps records the headline charged-step count. Nil-safe.
func (r *Report) SetSteps(n int64) {
	if r != nil {
		r.Steps = n
	}
}

// SetPhase records one entry of the phase breakdown. Nil-safe.
func (r *Report) SetPhase(name string, v int64) {
	if r == nil {
		return
	}
	if r.Phases == nil {
		r.Phases = make(map[string]int64)
	}
	r.Phases[name] = v
}

// AddTrace attaches an exported ledger tree under the given path name.
// Nil-safe in both arguments.
func (r *Report) AddTrace(name string, n *trace.Node) {
	if r == nil || n == nil {
		return
	}
	if r.Traces == nil {
		r.Traces = make(map[string]*trace.Node)
	}
	r.Traces[name] = n
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID    string
	Claim string // the paper statement it checks
	Run   func(w io.Writer, cfg Config) error
}

// All lists the experiments in DESIGN.md order.
var All = []Experiment{
	{"E1", "Thm 1/4: simulation slowdown T(n) ≈ n^(1/2+o(1)) — and figure F1", RunE1},
	{"E2", "Thm 3: level-i page load ≤ 4q^k·n^(1−1/2^i) after culling — and figure F2", RunE2},
	{"E3", "Def 1 + Lemma 1: BIBD λ=1 and strong expansion", RunE3},
	{"E4", "Thm 5: balanced subgraph output degrees within ±1 of q·m/q^d", RunE4},
	{"E5", "Thm 2: (l1,l2)-routing within the √(l1·l2·n) envelope", RunE5},
	{"E6", "§2: staged (l1,l2,δ,m)-routing beats direct when δ ≪ l2 — and figure F3", RunE6},
	{"E7", "Eq 2: culling cost grows like k·q^k·√n", RunE7},
	{"E8", "Replication absorbs adversarial module-hot sets; single-copy serializes", RunE8},
	{"E9", "Thm 4 trade-off: redundancy q^k vs slowdown", RunE9},
	{"E10", "Constructive memory map is O(1) words; random-graph map is Θ(M·c)", RunE10},
	{"E11", "Consistency: every read returns the last value written", RunE11},
	{"E12", "Ablation: staged protocol + culling vs direct routing", RunE12},
	{"E13", "Majority discipline vs MV84 read-one/write-all", RunE13},
	{"E14", "Randomized hashing [CW79]: great on average, adversarially serializable", RunE14},
	{"E15", "Application-level slowdown: whole PRAM programs, ideal vs mesh", RunE15},
	{"E16", "Extension: torus (wrap-around) links vs the plain mesh", RunE16},
	{"E17", "Sorting substitution ablation: shearsort vs RotateSort", RunE17},
	{"E18", "Lineage: [PP93a] on the MPC (contention only) vs this paper on the mesh", RunE18},
	{"FAULT", "Extension: graceful degradation — slowdown and unrecoverable variables vs static fault rate", RunFault},
	{"RECOVER", "Extension: self-healing — churn rate vs repaired copies, residual loss and repair cost", RunRecover},
	{"GOSSIP", "Extension: local fault knowledge — discovery latency, notice staleness and extra loss vs the omniscient baseline", RunGossip},
	{"ROUTE", "Infrastructure: allocation-lean greedy routing engine — ns/op, allocs/op, charged and executed cycles", RunRoute},
	{"SCALE", "Infrastructure: million-node meshes — bytes/node and ns/cycle vs n", RunScale},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
