package experiments

import (
	"fmt"
	"io"
	"strconv"

	"meshpram/internal/core"
	"meshpram/internal/sim"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
	"meshpram/internal/workload"
)

// churnRates is the RECOVER sweep: per-step module death probability.
var churnRates = []float64{0.001, 0.002, 0.005, 0.010}

// churnKey renders a churn rate as the stable key used in BENCH_RECOVER
// phase names ("deaths@0.005", …).
func churnKey(r float64) string { return fmt.Sprintf("%.3f", r) }

// RunRecover measures the self-healing layer under deterministic churn:
// seeded schedules kill (and later revive) modules while a full-machine
// mixed workload runs. For each churn rate the same timeline is played
// twice — once with the eager majority-scrub repair and once with
// repair off — and the sweep reports module deaths, copies rebuilt
// from the surviving majority, residual (unrebuildable) copies, the
// mesh steps charged to the repair phase (the recovery cost), and the
// unrecoverable-variable counts that show what repair buys: the eager
// run absorbs deaths the unrepaired run cannot.
func RunRecover(w io.Writer, cfg Config) error {
	side, d, steps := 9, 3, 40
	if cfg.Big {
		side, d, steps = 27, 5, 80
	}
	// Killed modules come back after repairAfter steps — long enough
	// that an unscrubbed death is observed, short enough that churn does
	// not simply eat the whole machine at the top rate.
	const repairAfter = 12

	var tb stats.Table
	tb.Add("churn", "deaths", "scrubs", "repaired", "residual", "repair steps", "unrec eager", "unrec off")
	var lastTree *trace.Node
	for i, rate := range churnRates {
		sc := sim.DefaultScenario()
		sc.Side, sc.D = side, d
		sc.FaultSchedule = churnSpec(rate, repairAfter, steps, cfg.Seed)
		sc.Repair = "eager"
		eager, err := runRecoverCell(sc, cfg, steps)
		if err != nil {
			return err
		}
		sc.Repair = "off"
		off, err := runRecoverCell(sc, cfg, steps)
		if err != nil {
			return err
		}
		rs := eager.repair
		key := churnKey(rate)
		tb.Add(key, rs.ModuleDeaths, rs.Scrubs, rs.Repaired, rs.Residual, rs.Steps,
			eager.unrecoverable, off.unrecoverable)
		cfg.Report.SetPhase("deaths@"+key, int64(rs.ModuleDeaths))
		cfg.Report.SetPhase("repaired@"+key, int64(rs.Repaired))
		cfg.Report.SetPhase("residual@"+key, int64(rs.Residual))
		cfg.Report.SetPhase("repairsteps@"+key, rs.Steps)
		cfg.Report.SetPhase("unrec-eager@"+key, int64(eager.unrecoverable))
		cfg.Report.SetPhase("unrec-off@"+key, int64(off.unrecoverable))
		if i == 0 {
			cfg.Report.SetSteps(eager.steps)
		}
		lastTree = eager.tree
	}
	tb.Render(w)
	cfg.Report.AddTrace("recover-step", lastTree)
	fmt.Fprintln(w, "\n  Both columns replay the identical seeded death timeline; the only")
	fmt.Fprintln(w, "  difference is the scrub. Repaired copies were rebuilt from a surviving")
	fmt.Fprintln(w, "  target set and routed to spares through the fault-aware router, charged")
	fmt.Fprintln(w, "  to the repair phase (\"repair steps\"). Residual copies lacked a live")
	fmt.Fprintln(w, "  majority at scrub time and stay quarantined until a fresh write.")
	return nil
}

// recoverCell is one measured (schedule, policy) run.
type recoverCell struct {
	steps         int64
	unrecoverable int
	repair        core.RepairStats
	tree          *trace.Node
}

// churnSpec is the fault-schedule spec of a seeded module-churn
// timeline: deaths at the given per-step rate through step `until`,
// each revived `repair` steps later.
func churnSpec(rate float64, repair, until int, seed int64) string {
	return fmt.Sprintf("churn:module=%s,repair=%d,until=%d,seed=%d",
		strconv.FormatFloat(rate, 'g', -1, 64), repair, until, seed)
}

// runRecoverCell plays `steps` full-machine mixed batches against the
// scenario's fault schedule under its repair policy and sums the
// measurements.
func runRecoverCell(sc sim.Scenario, cfg Config, steps int) (recoverCell, error) {
	c, err := sim.FromScenario(sc)
	if err != nil {
		return recoverCell{}, err
	}
	s, err := c.NewSimulator()
	if err != nil {
		return recoverCell{}, err
	}
	var cell recoverCell
	n := s.Mesh().N
	for r := 0; r < steps; r++ {
		vars := workload.RandomDistinct(s.Scheme().Vars(), n, cfg.Seed+int64(r))
		_, st, err := s.StepChecked(vars.Mixed(1000))
		if err != nil {
			return recoverCell{}, err
		}
		cell.steps += st.Total()
		if rep := s.LastReport(); rep != nil {
			cell.unrecoverable += len(rep.Unrecoverable)
		}
	}
	cell.repair = s.RepairStats()
	cell.tree = trace.Export(s.Ledger().Last())
	return cell, nil
}
