package experiments

import (
	"fmt"
	"io"
	"math"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
	"meshpram/internal/workload"
)

// slowdownPoint measures the full protocol on one machine size.
type slowdownPoint struct {
	p        hmos.Params
	n        int
	alpha    float64
	steps    float64 // mean steps per PRAM step (full batch of n requests)
	perPhase core.StepStats
	tree     *trace.Node // ledger tree of the last rep
}

// measureSlowdown runs `reps` full-machine mixed batches and averages
// the charged steps.
func measureSlowdown(p hmos.Params, cfg Config, reps int) (slowdownPoint, error) {
	sim, err := core.New(p, core.Config{})
	if err != nil {
		return slowdownPoint{}, err
	}
	n := sim.Mesh().N
	var total int64
	var acc core.StepStats
	for r := 0; r < reps; r++ {
		vars := workload.RandomDistinct(sim.Scheme().Vars(), n, cfg.Seed+int64(r))
		_, st := sim.Step(vars.Mixed(1000))
		total += st.Total()
		acc.Culling += st.Culling
		acc.Sort += st.Sort
		acc.Rank += st.Rank
		acc.Forward += st.Forward
		acc.Access += st.Access
		acc.Return += st.Return
	}
	return slowdownPoint{
		p: p, n: n, alpha: sim.Scheme().Alpha(),
		steps:    float64(total) / float64(reps),
		perPhase: acc,
		tree:     trace.Export(sim.Ledger().Last()),
	}, nil
}

// e1Params returns the (side, d) ladder at q=3, k=2 with the largest
// feasible memory per machine (α grows with n; reported per row).
func e1Params(big bool) []hmos.Params {
	ps := []hmos.Params{
		{Side: 9, Q: 3, D: 3, K: 2},  // n=81,   M=117
		{Side: 27, Q: 3, D: 5, K: 2}, // n=729,  M=9801
		{Side: 81, Q: 3, D: 7, K: 2}, // n=6561, M=796797
	}
	if big {
		ps = append(ps, hmos.Params{Side: 243, Q: 3, D: 9, K: 2}) // n=59049
	}
	return ps
}

// RunE1 measures the headline slowdown curve (Theorems 1/4) and renders
// figure F1 (T(n)/√n against n).
func RunE1(w io.Writer, cfg Config) error {
	var tb stats.Table
	tb.Add("n", "side", "d", "alpha", "T(n) steps", "T/sqrt(n)", "culling", "sort", "route fwd", "return")
	var xs, ys []float64
	var norm []float64
	for _, p := range e1Params(cfg.Big) {
		reps := 3
		if p.Side >= 243 {
			reps = 1 // the n = 59049 machine costs minutes per step
		}
		pt, err := measureSlowdown(p, cfg, reps)
		if err != nil {
			return err
		}
		sq := sqrtf(float64(pt.n))
		tb.Add(pt.n, p.Side, p.D, pt.alpha, int64(pt.steps), pt.steps/sq,
			pt.perPhase.Culling/int64(reps), pt.perPhase.Sort/int64(reps),
			pt.perPhase.Forward/int64(reps), pt.perPhase.Return/int64(reps))
		xs = append(xs, float64(pt.n))
		ys = append(ys, pt.steps)
		norm = append(norm, pt.steps/sq)
		// Last ladder point wins: the report describes the largest machine.
		cfg.Report.SetSteps(int64(pt.steps))
		cfg.Report.SetPhase("culling", pt.perPhase.Culling/int64(reps))
		cfg.Report.SetPhase("sort", pt.perPhase.Sort/int64(reps))
		cfg.Report.SetPhase("rank", pt.perPhase.Rank/int64(reps))
		cfg.Report.SetPhase("forward", pt.perPhase.Forward/int64(reps))
		cfg.Report.SetPhase("access", pt.perPhase.Access/int64(reps))
		cfg.Report.SetPhase("return", pt.perPhase.Return/int64(reps))
		cfg.Report.AddTrace("core-staged", pt.tree)
	}
	tb.Render(w)
	exp, _ := stats.PowerFit(xs, ys)
	fmt.Fprintf(w, "\n  measured exponent of T(n): %.3f  (theory: 1/2 + (alpha-1)/8 with the\n", exp)
	fmt.Fprintf(w, "  shearsort log factor on top; the Ω(√n) diameter bound is 0.5)\n")
	fmt.Fprintln(w, "\n  F1: T(n)/sqrt(n) vs n")
	stats.Plot(w, 60, 12, stats.Series{Name: "T/sqrt(n)", X: xs, Y: norm})

	// Workload independence: a worst-case deterministic bound must show
	// (near-)identical cost on structured access patterns.
	fmt.Fprintln(w, "\n  T(n) per access pattern at n = 729 (worst-case determinism check):")
	p := hmos.Params{Side: 27, Q: 3, D: 5, K: 2}
	sim, err := core.New(p, core.Config{})
	if err != nil {
		return err
	}
	n := sim.Mesh().N
	vars := sim.Scheme().Vars()
	tp, err := workload.Transpose(vars, 27)
	if err != nil {
		return err
	}
	br, err := workload.BitReverse(vars, 9)
	if err != nil {
		return err
	}
	patterns := []struct {
		name string
		vs   workload.Vars
	}{
		{"random", workload.RandomDistinct(vars, n, cfg.Seed)},
		{"dense (stride 1)", workload.Stride(vars, n, 1)},
		{"transpose 27x27", tp},
		{"bit-reverse 2^9", br},
		{"module-hot", workload.ModuleHot(sim.Scheme(), 2, n)},
	}
	var tb2 stats.Table
	tb2.Add("pattern", "requests", "T steps", "T/sqrt(n) per full batch")
	for _, pat := range patterns {
		_, st := sim.Step(pat.vs.Reads())
		tb2.Add(pat.name, len(pat.vs), st.Total(), float64(st.Total())/sqrtf(float64(n)))
	}
	tb2.Render(w)
	return nil
}

// RunE9 measures the redundancy/time trade-off of the Theorem 4 proof:
// same machine and (where possible) same memory, varying (q, k).
func RunE9(w io.Writer, cfg Config) error {
	rows := []hmos.Params{
		{Side: 27, Q: 3, D: 5, K: 1}, // redundancy 3, M=9801
		{Side: 27, Q: 3, D: 5, K: 2}, // redundancy 9, M=9801
		{Side: 27, Q: 3, D: 4, K: 2}, // redundancy 9, M=1080
		{Side: 27, Q: 3, D: 4, K: 3}, // redundancy 27, M=1080
		{Side: 27, Q: 3, D: 3, K: 4}, // redundancy 81: the toy image of the polylog regime
		{Side: 16, Q: 4, D: 3, K: 2}, // q=4
		{Side: 25, Q: 5, D: 3, K: 2}, // q=5
	}
	var tb stats.Table
	tb.Add("side", "q", "k", "d", "M", "alpha", "copies/var", "accessed/var", "T(n)", "T/sqrt(n)")
	for _, p := range rows {
		pt, err := measureSlowdown(p, cfg, 2)
		if err != nil {
			return err
		}
		s := hmos.MustNew(p)
		tb.Add(p.Side, p.Q, p.K, p.D, s.Vars(), pt.alpha, s.CopiesPerVar(),
			hmos.MinTargetSetSize(p.Q, p.K, p.K), int64(pt.steps), pt.steps/sqrtf(float64(pt.n)))
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  Theorem 4 shape: higher redundancy buys lower congestion exponents;")
	fmt.Fprintln(w, "  at fixed memory the k=1 scheme routes fewer packets but concentrates")
	fmt.Fprintln(w, "  them in Θ(n^(α/2)) modules, while k≥2 spreads load across tessellations.")
	return nil
}

func sqrtf(x float64) float64 { return math.Sqrt(x) }
