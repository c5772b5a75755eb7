package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/stats"
	"meshpram/internal/workload"
)

// RunE16 measures the torus extension: wrap-around links halve per-axis
// distances on machine-spanning routes, so both raw greedy routing and
// the protocol's global stage speed up; submesh-confined stages are
// topology-independent.
func RunE16(w io.Writer, cfg Config) error {
	// Part A: raw routing, random permutations and shifted patterns.
	m := mesh.MustNew(16)
	var tb stats.Table
	tb.Add("traffic", "mesh cycles", "torus cycles", "torus/mesh")
	type pattern struct {
		name string
		mk   func() [][]int
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(m.N)
	patterns := []pattern{
		{"random permutation", func() [][]int {
			items := make([][]int, m.N)
			for p := 0; p < m.N; p++ {
				items[p] = append(items[p], perm[p])
			}
			return items
		}},
		{"shift by (12,12)", func() [][]int {
			items := make([][]int, m.N)
			for p := 0; p < m.N; p++ {
				items[p] = append(items[p], m.IDOf((m.RowOf(p)+12)%16, (m.ColOf(p)+12)%16))
			}
			return items
		}},
		{"transpose", func() [][]int {
			items := make([][]int, m.N)
			for p := 0; p < m.N; p++ {
				items[p] = append(items[p], m.IDOf(m.ColOf(p), m.RowOf(p)))
			}
			return items
		}},
	}
	id := func(d int) int { return d }
	for _, pat := range patterns {
		_, meshCycles := route.GreedyRoute(m, m.Full(), pat.mk(), id)
		_, torusCycles := route.GreedyRouteTorus(m, pat.mk(), id)
		tb.Add(pat.name, meshCycles, torusCycles, float64(torusCycles)/float64(meshCycles))
	}
	tb.Render(w)

	// Part B: the full protocol with and without wrap links.
	p := hmos.Params{Side: 27, Q: 3, D: 5, K: 2}
	var tb2 stats.Table
	tb2.Add("machine", "global route fwd", "return", "total steps")
	for _, v := range []struct {
		name  string
		torus bool
	}{{"mesh (paper)", false}, {"torus (extension)", true}} {
		sim, err := core.New(p, core.Config{Torus: v.torus})
		if err != nil {
			return err
		}
		vars := workload.RandomDistinct(sim.Scheme().Vars(), sim.Mesh().N, cfg.Seed)
		_, st := sim.Step(vars.Mixed(1))
		tb2.Add(v.name, st.StageForward[sim.Scheme().K+1], st.Return, st.Total())
	}
	fmt.Fprintln(w)
	tb2.Render(w)
	fmt.Fprintln(w, "\n  Wrap links shorten only the machine-spanning phases (the k+1-th stage")
	fmt.Fprintln(w, "  and the last return leg); sorting and the submesh stages are unchanged,")
	fmt.Fprintln(w, "  so the end-to-end gain is bounded by their share of the total.")
	return nil
}
