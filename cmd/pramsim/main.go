// Command pramsim runs a PRAM program on either the ideal PRAM or the
// paper's mesh simulation and reports the step counts and the measured
// slowdown.
//
// Usage:
//
//	pramsim [-scenario file.json] [-program prefixsum|listrank|matvec|...]
//	        [-side 9] [-q 3] [-d 3] [-k 2] [-n 64] [-seed 1]
//	        [-backend both|ideal|mesh] [-workers N] [-policy majority|rowa]
//	        [-sort shear|rotate] [-torus] [-no-culling] [-direct-routing]
//	        [-network-sort] [-faults SPEC] [-fault-schedule SPEC]
//	        [-fault-view global|local] [-repair off|eager|lazy]
//	        [-retry N] [-engine event|cycle]
//	        [-ideal-memory WORDS] [-trace]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// The flag set is an overlay onto a sim.Scenario — the same
// serializable configuration surface the pramserve service accepts.
// -scenario loads a JSON scenario file first; explicitly given flags
// then override individual fields, so a file can carry the experiment
// and the command line the variation. Every flag maps to exactly one
// Scenario field (pinned by TestFlagsCoverScenario), so CLI and
// service provably share one configuration space.
//
// Execution goes through the same serve.Runner the service workers
// use: identical scenario, identical result — the printed numbers
// match a `POST /v1/simulate` of the same JSON byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"meshpram/internal/serve"
	"meshpram/internal/sim"
)

// scenarioFlags registers one flag per sim.Scenario field on fs, bound
// directly to sc (current values become defaults, so loading a
// scenario file before registration makes flags override its fields).
// It returns the flag-name → JSON-field mapping, which
// TestFlagsCoverScenario pins against the Scenario struct.
func scenarioFlags(fs *flag.FlagSet, sc *sim.Scenario) map[string]string {
	fs.IntVar(&sc.Side, "side", sc.Side, "mesh side (n = side²)")
	fs.IntVar(&sc.Q, "q", sc.Q, "copies per replication step (prime power ≥ 3)")
	fs.IntVar(&sc.D, "d", sc.D, "memory dimension: M = f(q, d) variables")
	fs.IntVar(&sc.K, "k", sc.K, "HMOS levels")
	fs.StringVar(&sc.Program, "program", sc.Program, "prefixsum | listrank | matvec | reduce | oddevensort | compact")
	fs.IntVar(&sc.Size, "n", sc.Size, "problem size")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "input seed")
	fs.StringVar(&sc.Backend, "backend", sc.Backend, "both | ideal | mesh")
	fs.StringVar(&sc.Policy, "policy", sc.Policy, "copy-access discipline: majority | rowa")
	fs.BoolVar(&sc.Torus, "torus", sc.Torus, "wrap-around links on machine-spanning phases")
	fs.StringVar(&sc.Sort, "sort", sc.Sort, "sorting network: shear | rotate")
	fs.BoolVar(&sc.DisableCulling, "no-culling", sc.DisableCulling, "minimal target sets without congestion control (ablation)")
	fs.BoolVar(&sc.DirectRouting, "direct-routing", sc.DirectRouting, "bypass the staged protocol (ablation)")
	fs.BoolVar(&sc.NetworkSort, "network-sort", sc.NetworkSort, "run the sorting network round by round")
	fs.StringVar(&sc.Faults, "faults", sc.Faults, "static fault spec (e.g. \"link:5-6;rand:module=0.02,seed=7\")")
	fs.StringVar(&sc.FaultSchedule, "fault-schedule", sc.FaultSchedule, "dynamic fault timeline (e.g. \"@3 module:40;@7 revive-module:40\")")
	fs.StringVar(&sc.FaultView, "fault-view", sc.FaultView, "fault knowledge model: global (omniscient) | local (gossip-propagated, stale-view detours)")
	fs.StringVar(&sc.Repair, "repair", sc.Repair, "self-healing scrub policy: off | eager | lazy")
	fs.IntVar(&sc.Retry, "retry", sc.Retry, "checkpointed-retry budget per PRAM step (0 = off)")
	fs.StringVar(&sc.Engine, "engine", sc.Engine, "routing engine: event (line-decomposed healthy routing) | cycle (reference); results are bit-identical")
	fs.IntVar(&sc.Workers, "workers", sc.Workers, "accepted and ignored (the routing engine is sequential)")
	fs.IntVar(&sc.IdealMemory, "ideal-memory", sc.IdealMemory, "ideal backend memory in words (0 = the scheme's M)")
	fs.BoolVar(&sc.Trace, "trace", sc.Trace, "print the cost-ledger tree of the last PRAM step")
	return map[string]string{
		"side": "side", "q": "q", "d": "d", "k": "k",
		"program": "program", "n": "size", "seed": "seed",
		"backend": "backend", "policy": "policy", "torus": "torus",
		"sort": "sort", "no-culling": "disable_culling",
		"direct-routing": "direct_routing", "network-sort": "network_sort",
		"faults": "faults", "fault-schedule": "fault_schedule",
		"fault-view": "fault_view",
		"repair":     "repair", "retry": "retry", "engine": "engine",
		"workers": "workers", "ideal-memory": "ideal_memory",
		"trace": "trace",
	}
}

// scanScenarioPath extracts the -scenario flag value from args before
// the real FlagSet exists: the file must be loaded first so its fields
// become the defaults the other flags override.
func scanScenarioPath(args []string) string {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			return ""
		}
		name, val, eq := "", "", false
		switch {
		case len(a) > 2 && a[:2] == "--":
			name = a[2:]
		case len(a) > 1 && a[0] == '-':
			name = a[1:]
		default:
			continue
		}
		if j := indexByte(name, '='); j >= 0 {
			name, val, eq = name[:j], name[j+1:], true
		}
		if name != "scenario" {
			continue
		}
		if eq {
			return val
		}
		if i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// loadScenario reads a JSON scenario file over the defaults, strictly:
// an unknown field or trailing data fails instead of running defaults.
func loadScenario(path string, sc *sim.Scenario) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() // read-only file: a close error loses nothing
	if err := sim.DecodeScenario(f, sc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	sc := sim.DefaultScenario()
	if path := scanScenarioPath(os.Args[1:]); path != "" {
		fatalIf(loadScenario(path, &sc))
	}
	fs := flag.NewFlagSet("pramsim", flag.ExitOnError)
	fs.String("scenario", "", "JSON scenario file; explicit flags override its fields")
	// Profiling flags are deliberately NOT Scenario fields: they shape
	// the process, not the experiment, so they stay out of the
	// serializable configuration surface (TestFlagsCoverScenario pins
	// the scenario flag set; these live outside scenarioFlags).
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	scenarioFlags(fs, &sc)
	fatalIf(fs.Parse(os.Args[1:]))

	sc = sc.Normalized()
	fatalIf(sc.Validate())

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := serve.NewRunner().Run(sc)
	fatalIf(err)
	render(os.Stdout, res)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		fatalIf(err)
		runtime.GC() // report reachable bytes, not garbage
		fatalIf(pprof.WriteHeapProfile(f))
		fatalIf(f.Close())
	}
}

// render prints a Result in pramsim's traditional report format.
func render(w *os.File, res *serve.Result) {
	sc := res.Scenario
	if id := res.Ideal; id != nil {
		fmt.Fprintf(w, "ideal PRAM:  %d PRAM steps, cost %d\n", id.PRAMSteps, id.Cost)
	}
	if m := res.Mesh; m != nil {
		fmt.Fprintf(w, "mesh:        side=%d n=%d M=%d (alpha=%.3f) q=%d k=%d redundancy=%d\n",
			sc.Side, m.Scheme.N, m.Scheme.Vars, m.Scheme.Alpha, sc.Q, sc.K, m.Scheme.Redundancy)
		fmt.Fprintf(w, "mesh:        %d PRAM steps simulated in %d mesh steps\n", m.PRAMSteps, m.MeshSteps)
		if d := m.Degradation; d != nil {
			fmt.Fprintf(w, "degradation: %d/%d ops degraded: %d dead origins, %d lost packets, %d unrecoverable\n",
				d.DeadOrigins+len(d.Unrecoverable), d.Ops, d.DeadOrigins, d.LostPackets, len(d.Unrecoverable))
		}
		if rs := m.Repair; rs != nil {
			fmt.Fprintf(w, "repair:      %d module deaths, %d scrubs, %d copies rebuilt, %d residual, %d remapped, %d repair steps\n",
				rs.ModuleDeaths, rs.Scrubs, rs.Repaired, rs.Residual, rs.Remapped, rs.Steps)
			if sc.FaultView == "local" {
				fmt.Fprintf(w, "gossip:      %d/%d deaths discovered by notice, %d steps death-to-discovery\n",
					rs.Discovered, rs.ModuleDeaths, rs.DiscoverySteps)
			}
		}
		if rec := m.Recovery; rec != nil {
			fmt.Fprintf(w, "retry:       %d retries, %d steps recovered, %d exhausted, %d capped, %d backoff steps\n",
				rec.Retries, rec.Recovered, rec.Exhausted, rec.Capped, rec.Backoff)
		}
		fmt.Fprintf(w, "verdict:     %s\n", m.Verdict)
		if m.Trace != "" {
			fmt.Fprintf(w, "\ncost ledger of the last PRAM step:\n%s", m.Trace)
		}
	}
	if res.Slowdown > 0 {
		fmt.Fprintf(w, "slowdown:    %.1f mesh steps per PRAM step (n=%d, sqrt(n)=%d)\n",
			res.Slowdown, sc.Side*sc.Side, sc.Side)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pramsim: %v\n", err)
		os.Exit(1)
	}
}
