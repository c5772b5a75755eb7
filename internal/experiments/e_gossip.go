package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/core"
	"meshpram/internal/faultview"
	"meshpram/internal/sim"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
	"meshpram/internal/workload"
)

// gossipRates is the GOSSIP sweep: per-step module death probability of
// the seeded churn timeline each knowledge model replays.
var gossipRates = []float64{0.002, 0.005, 0.010}

// RunGossip measures what local fault knowledge costs: for each churn
// rate the identical seeded timeline is played twice under eager
// repair — once with the omniscient global fault view and once with the
// gossip-propagated local view — and the sweep reports the discovery
// latency (steps from a module death to its notice reaching the scrub
// coordinator; zero by construction in global mode, where the scrub
// sees every death instantly), the staleness of applied notices, and
// the price of acting on stale beliefs: extra charged mesh steps
// (detours, probes, delayed repair) and extra lost packets relative to
// the global baseline.
func RunGossip(w io.Writer, cfg Config) error {
	side, d, steps := 9, 3, 40
	if cfg.Big {
		side, d, steps = 27, 5, 80
	}
	const repairAfter = 12

	var tb stats.Table
	tb.Add("churn", "deaths", "discovered", "disc steps", "stale max", "steps glob", "steps local", "lost g/l", "unrec g/l")
	var lastTree *trace.Node
	for i, rate := range gossipRates {
		key := churnKey(rate)
		sc := sim.DefaultScenario()
		sc.Side, sc.D, sc.Seed = side, d, cfg.Seed
		sc.FaultSchedule = churnSpec(rate, repairAfter, steps, cfg.Seed)
		sc.Repair = "eager"
		sc.FaultView = "global"
		glob, err := runGossipCell(sc, steps)
		if err != nil {
			return err
		}
		sc.FaultView = "local"
		loc, err := runGossipCell(sc, steps)
		if err != nil {
			return err
		}
		tb.Add(key, glob.repair.ModuleDeaths,
			loc.repair.Discovered, loc.repair.DiscoverySteps, loc.view.StaleMax,
			glob.steps, loc.steps,
			fmt.Sprintf("%d/%d", glob.lost, loc.lost),
			fmt.Sprintf("%d/%d", glob.unrecoverable, loc.unrecoverable))
		cfg.Report.SetPhase("deaths@"+key, int64(glob.repair.ModuleDeaths))
		cfg.Report.SetPhase("discovered@"+key, int64(loc.repair.Discovered))
		cfg.Report.SetPhase("disclatency@"+key, loc.repair.DiscoverySteps)
		cfg.Report.SetPhase("disclatency-global@"+key, glob.repair.DiscoverySteps)
		cfg.Report.SetPhase("stalemax@"+key, loc.view.StaleMax)
		cfg.Report.SetPhase("notices@"+key, loc.view.Notices)
		cfg.Report.SetPhase("steps-global@"+key, glob.steps)
		cfg.Report.SetPhase("steps-local@"+key, loc.steps)
		cfg.Report.SetPhase("lost-global@"+key, int64(glob.lost))
		cfg.Report.SetPhase("lost-local@"+key, int64(loc.lost))
		cfg.Report.SetPhase("unrec-global@"+key, int64(glob.unrecoverable))
		cfg.Report.SetPhase("unrec-local@"+key, int64(loc.unrecoverable))
		if i == 0 {
			cfg.Report.SetSteps(loc.steps)
		}
		lastTree = loc.tree
	}
	tb.Render(w)
	cfg.Report.AddTrace("gossip-step", lastTree)
	fmt.Fprintln(w, "\n  Both columns replay the identical seeded death timeline; the only")
	fmt.Fprintln(w, "  difference is who knows about the faults. The global baseline repairs")
	fmt.Fprintln(w, "  every death the step it happens (discovery latency identically zero);")
	fmt.Fprintln(w, "  the local view waits for a hop-by-hop death notice to gossip its way to")
	fmt.Fprintln(w, "  the scrub coordinator (\"disc steps\" = summed steps from death to")
	fmt.Fprintln(w, "  notice arrival) and routes on possibly stale beliefs in the meantime")
	fmt.Fprintln(w, "  (\"stale max\" = oldest notice ever applied, in gossip rounds). A death")
	fmt.Fprintln(w, "  whose neighbors are all dead is never witnessed: \"discovered\" can lag")
	fmt.Fprintln(w, "  \"deaths\" permanently, and those copies are only rebuilt by a later")
	fmt.Fprintln(w, "  write. Deferred and forgone scrubs can even make the local run cheaper")
	fmt.Fprintln(w, "  in charged steps — the real price is the window of degraded majorities")
	fmt.Fprintln(w, "  (extra lost packets / unrecoverable reads) while notices are in flight.")
	return nil
}

// gossipCell is one measured (schedule, knowledge model) run.
type gossipCell struct {
	steps         int64
	lost          int
	unrecoverable int
	repair        core.RepairStats
	view          faultview.Stats
	tree          *trace.Node
}

// runGossipCell plays `steps` full-machine mixed batches against the
// scenario's fault schedule under its repair policy and fault-knowledge
// model, summing the measurements. The scenario seed seeds both the
// workload and the local view's witness tie-breaks.
func runGossipCell(sc sim.Scenario, steps int) (gossipCell, error) {
	c, err := sim.FromScenario(sc)
	if err != nil {
		return gossipCell{}, err
	}
	s, err := c.NewSimulator()
	if err != nil {
		return gossipCell{}, err
	}
	var cell gossipCell
	n := s.Mesh().N
	for r := 0; r < steps; r++ {
		vars := workload.RandomDistinct(s.Scheme().Vars(), n, sc.Seed+int64(r))
		_, st, err := s.StepChecked(vars.Mixed(1000))
		if err != nil {
			return gossipCell{}, err
		}
		cell.steps += st.Total()
		if rep := s.LastReport(); rep != nil {
			cell.lost += rep.LostPackets
			cell.unrecoverable += len(rep.Unrecoverable)
		}
	}
	cell.repair = s.RepairStats()
	if v := s.FaultView(); v != nil {
		cell.view = v.Stats()
	}
	cell.tree = trace.Export(s.Ledger().Last())
	return cell, nil
}
