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

// faultRates is the sweep of the FAULT experiment: link and module
// fault probabilities, drawn by a seeded `rand:` fault spec. Rate 0
// draws no fault, so its row must equal the "none" baseline, which
// runs with no spec at all.
var faultRates = []float64{0, 0.02, 0.05, 0.10, 0.20}

// faultRateKey renders a rate as the stable key used in BENCH_FAULT
// phase names ("steps@0.05", …).
func faultRateKey(r float64) string { return fmt.Sprintf("%.2f", r) }

// RunFault measures graceful degradation under static faults: charged
// steps (detours and waits land in the same ledger as healthy routing
// cost), lost packets, and variables whose surviving copies no longer
// hold a plain target set, as the fault rate grows past the majority
// threshold. A second part kills the modules hosting one variable's
// copies one by one and reports how many deaths the majority rule
// absorbed before the variable became unrecoverable.
func RunFault(w io.Writer, cfg Config) error {
	sc := sim.DefaultScenario()
	if cfg.Big {
		sc.Side, sc.D = 27, 5
	}
	reps := 2

	// Healthy baseline: no fault map installed at all.
	base, err := runFaultCell(sc, cfg, reps)
	if err != nil {
		return err
	}
	cfg.Report.SetSteps(base.steps)

	var tb stats.Table
	tb.Add("rate", "faults (nd/ln/md)", "T steps", "vs healthy", "lost pkts", "unrecoverable")
	tb.Add("none", "-", base.steps, 1.0, "-", "-")

	var lastTree *trace.Node
	for _, rate := range faultRates {
		rs := strconv.FormatFloat(rate, 'g', -1, 64)
		sc.Faults = fmt.Sprintf("rand:link=%s,module=%s,seed=%d", rs, rs, cfg.Seed)
		cell, err := runFaultCell(sc, cfg, reps)
		if err != nil {
			return err
		}
		key := faultRateKey(rate)
		tb.Add(key, fmt.Sprintf("%d/%d/%d", cell.deadNodes, cell.deadLinks, cell.deadModules),
			cell.steps, float64(cell.steps)/float64(base.steps), cell.lost, cell.unrecoverable)
		cfg.Report.SetPhase("steps@"+key, cell.steps)
		cfg.Report.SetPhase("lost@"+key, int64(cell.lost))
		cfg.Report.SetPhase("unrecoverable@"+key, int64(cell.unrecoverable))
		lastTree = cell.tree
	}
	tb.Render(w)
	cfg.Report.AddTrace("fault-step", lastTree)
	fmt.Fprintln(w, "\n  Rate 0 runs the fault-aware path with an empty map and must match the")
	fmt.Fprintln(w, "  healthy baseline exactly (also pinned by TestFaultFreeInvariance).")

	// Targeted deaths: how many of one variable's host modules can die
	// before its live copies hold no plain target set.
	sc.Faults = ""
	cfgSim, err := sim.FromScenario(sc)
	if err != nil {
		return err
	}
	scheme, err := cfgSim.Scheme()
	if err != nil {
		return err
	}
	copies := scheme.Copies(0, nil)
	hosts := make([]int, 0, len(copies))
	seen := map[int]bool{}
	for _, c := range copies {
		if !seen[c.Proc] {
			seen[c.Proc] = true
			hosts = append(hosts, c.Proc)
		}
	}
	// Each step kills one more host: the spec lists the first i+1.
	survived := 0
	spec := "module:"
	for i, h := range hosts {
		if i > 0 {
			spec += ","
		}
		spec += strconv.Itoa(h)
		sc.Faults = spec
		killed, err := sim.FromScenario(sc, sim.UseScheme(scheme))
		if err != nil {
			return err
		}
		s, err := killed.NewSimulator()
		if err != nil {
			return err
		}
		if _, _, err := s.StepChecked([]core.Op{{Origin: 0, Var: 0}}); err != nil {
			return err
		}
		if len(s.LastReport().Unrecoverable) > 0 {
			break
		}
		survived = i + 1
	}
	cfg.Report.SetPhase("targeted-survived", int64(survived))
	fmt.Fprintf(w, "\n  Targeted deaths: variable 0 (%d copies on %d modules) stayed readable\n",
		len(copies), len(hosts))
	fmt.Fprintf(w, "  through %d module deaths; death %d broke the majority threshold.\n",
		survived, survived+1)
	return nil
}

// faultCell is one measured sweep point.
type faultCell struct {
	steps         int64
	lost          int
	unrecoverable int
	deadNodes     int
	deadLinks     int
	deadModules   int
	tree          *trace.Node
}

// runFaultCell runs `reps` full-machine mixed batches under the
// scenario's faults (empty = healthy, no map) and sums the
// measurements.
func runFaultCell(sc sim.Scenario, cfg Config, reps int) (faultCell, error) {
	c, err := sim.FromScenario(sc)
	if err != nil {
		return faultCell{}, err
	}
	s, err := c.NewSimulator()
	if err != nil {
		return faultCell{}, err
	}
	var cell faultCell
	if f := c.Core.Faults; f != nil {
		cell.deadNodes, cell.deadLinks, cell.deadModules, _ = f.Counts()
	}
	n := s.Mesh().N
	for r := 0; r < reps; r++ {
		vars := workload.RandomDistinct(s.Scheme().Vars(), n, cfg.Seed+int64(r))
		_, st, err := s.StepChecked(vars.Mixed(1000))
		if err != nil {
			return faultCell{}, err
		}
		cell.steps += st.Total()
		if rep := s.LastReport(); rep != nil {
			cell.lost += rep.LostPackets
			cell.unrecoverable += len(rep.Unrecoverable)
		}
	}
	cell.steps /= int64(reps)
	cell.tree = trace.Export(s.Ledger().Last())
	return cell, nil
}
