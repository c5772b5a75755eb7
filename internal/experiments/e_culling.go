package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/culling"
	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/stats"
	"meshpram/internal/workload"
)

// RunE2 verifies Theorem 3: after culling, the number of selected
// copies in any level-i page stays below 4q^k·n^{1−1/2^i}; it also
// reports the uncontrolled loads of the no-culling ablation, and draws
// figure F2 (per-level congestion profile).
func RunE2(w io.Writer, cfg Config) error {
	params := []hmos.Params{
		{Side: 27, Q: 3, D: 5, K: 2},
		{Side: 27, Q: 3, D: 4, K: 3},
	}
	if cfg.Big {
		params = append(params, hmos.Params{Side: 81, Q: 3, D: 7, K: 2})
	}
	var tb stats.Table
	tb.Add("machine", "workload", "level", "max load (culled)", "bound 4q^k n^(1-1/2^i)", "ratio", "max load (no culling)")
	var fx, fy, fb []float64
	for _, p := range params {
		s, err := hmos.New(p)
		if err != nil {
			return err
		}
		m := mesh.MustNew(p.Side)
		workloads := map[string]workload.Vars{
			"random":    workload.RandomDistinct(s.Vars(), m.N, cfg.Seed),
			"dense":     workload.Stride(s.Vars(), m.N, 1),
			"modulehot": workload.ModuleHot(s, 0, m.N),
		}
		for _, name := range []string{"random", "dense", "modulehot"} {
			vars := workloads[name]
			reqs := make([]culling.Request, len(vars))
			for i, v := range vars {
				reqs[i] = culling.Request{Origin: i % m.N, Var: v}
			}
			pl := culling.Place(s, m, reqs)
			culled := pl.Select(culling.Culled, nil)
			raw := pl.Select(culling.Unculled, nil)
			for i := 1; i <= p.K; i++ {
				load, bound := culled.MaxLoad(i)
				rawLoad, _ := raw.MaxLoad(i)
				tb.Add(fmt.Sprintf("n=%d d=%d k=%d", m.N, p.D, p.K), name, i,
					load, bound, float64(load)/float64(bound), rawLoad)
				if name == "random" && p.K == 2 {
					fx = append(fx, float64(i))
					fy = append(fy, float64(load))
					fb = append(fb, float64(bound))
				}
			}
		}
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  F2: level-i congestion, measured vs Theorem 3 bound (random workload)")
	stats.Plot(w, 50, 10,
		stats.Series{Name: "measured", X: fx, Y: fy},
		stats.Series{Name: "bound", X: fx, Y: fb})
	return nil
}

// RunE7 checks the culling cost shape of equation (2): steps ≈
// c·k·q^k·√n with a machine-independent constant.
func RunE7(w io.Writer, cfg Config) error {
	params := []hmos.Params{
		{Side: 9, Q: 3, D: 3, K: 2},
		{Side: 27, Q: 3, D: 4, K: 2},
		{Side: 27, Q: 3, D: 4, K: 3},
		{Side: 27, Q: 3, D: 5, K: 1},
		{Side: 27, Q: 3, D: 5, K: 2},
		{Side: 16, Q: 4, D: 3, K: 2},
	}
	if cfg.Big {
		params = append(params, hmos.Params{Side: 81, Q: 3, D: 7, K: 2})
	}
	var tb stats.Table
	tb.Add("n", "q", "k", "culling steps", "k*q^k*sqrt(n)", "constant")
	for _, p := range params {
		s, err := hmos.New(p)
		if err != nil {
			return err
		}
		m := mesh.MustNew(p.Side)
		vars := workload.RandomDistinct(s.Vars(), m.N, cfg.Seed)
		reqs := make([]culling.Request, len(vars))
		for i, v := range vars {
			reqs[i] = culling.Request{Origin: i % m.N, Var: v}
		}
		res := culling.Place(s, m, reqs).Select(culling.Culled, nil)
		shape := float64(p.K) * float64(s.Redundant) * sqrtf(float64(m.N))
		tb.Add(m.N, p.Q, p.K, res.Steps, int64(shape), float64(res.Steps)/shape)
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  The 'constant' column should stay within a small band (the shearsort")
	fmt.Fprintln(w, "  log n factor makes it drift up slowly with n; see DESIGN.md §2).")
	return nil
}
