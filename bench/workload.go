package main

import (
	"fmt"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
	wl "meshpram/internal/workload"
)

// workload is one machine configuration plus the PRAM programs the
// benchmark runs on it. A run is a sequence of episodes: each builds a
// fresh backend and runs the same number of programs on it. Every
// episode therefore does work of one shape (cold first steps, lazily
// filled stores, and for churn the same fault timeline), however many
// of them fit in the run's time. README.md records why each workload
// was chosen.
type workload struct {
	name    string
	side, d int // mesh side and memory dimension (q=3, k=2 throughout)
	workers int
	// matvec, when non-zero, runs pram's matvec program of that size;
	// otherwise every program is one full random batch (an E1 step).
	matvec int
	// churn, when non-zero, is the per-step death probability of each
	// module: the machine runs seeded module churn under the local fault
	// view, with eager repair and checkpointed retry.
	churn float64
	// episode is the number of programs per episode.
	episode int
}

var workloads = []workload{
	{name: "e1-81", side: 81, d: 7, workers: 1, episode: 8},
	{name: "matvec-81", side: 81, d: 7, workers: 1, matvec: 256, episode: 1},
	{name: "e1-243-w2", side: 243, d: 7, workers: 2, episode: 2},
	// The churn rate is low enough that eager repair and retry recover
	// every access, so the workload runs the repair path without
	// failing operations.
	{name: "churn-27", side: 27, d: 5, workers: 1, churn: 0.002, episode: 32},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scenario spells the machine the way pramsim and pramserve do. The
// program fields of a Scenario are run-level and ignored by
// sim.FromScenario; the benchmark builds its programs itself.
func (w workload) scenario(seed int64) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Side, sc.D, sc.Workers, sc.Seed = w.side, w.d, w.workers, seed
	sc.Backend = sim.BackendMesh
	sc.IdealMemory = 0 // the oracle holds exactly the scheme's M words
	if w.matvec > 0 {
		sc.Program, sc.Size = "matvec", w.matvec
	}
	if w.churn > 0 {
		// The fault timeline is part of the machine, not of the inputs:
		// its seed is fixed, so runs with different seeds meet the same
		// faults and differ only in the variables they access.
		sc.FaultSchedule = fmt.Sprintf("churn:module=%g,repair=12,until=%d,seed=1", w.churn, w.episode)
		sc.FaultView = "local"
		sc.Repair = "eager"
		sc.Retry = 2
	}
	return sc
}

// program returns the rep-th program of a run.
func (w workload) program(seed int64, rep, vars, procs int) (pram.Program, error) {
	if w.matvec > 0 {
		return pram.BuildProgram("matvec", w.matvec, seed+int64(rep))
	}
	return batch{vars: vars, procs: procs, seed: seed + int64(rep)}, nil
}

// batch is one E1 step as a one-step program: every processor accesses
// a distinct random variable; even pids write, odd pids read.
type batch struct {
	vars, procs int
	seed        int64
}

func (b batch) Procs() int { return b.procs }

func (b batch) Next(t int, _ []pram.Word) ([]pram.Op, bool) {
	if t > 0 {
		return nil, true
	}
	ops := make([]pram.Op, b.procs)
	for pid, v := range wl.RandomDistinct(b.vars, b.procs, b.seed) {
		if pid%2 == 0 {
			ops[pid] = pram.Op{Kind: pram.Write, Addr: v, Value: pram.Word(b.seed)<<32 | pram.Word(pid+1)}
		} else {
			ops[pid] = pram.Op{Kind: pram.Read, Addr: v}
		}
	}
	return ops, false
}
