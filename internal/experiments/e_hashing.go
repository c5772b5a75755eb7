package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/baseline"
	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/stats"
	"meshpram/internal/workload"
)

// RunE14 demonstrates the deterministic-vs-randomized distinction the
// introduction draws: a Carter–Wegman hashed single-copy organization
// is excellent on random request sets (its expected contention is
// O(log n / log log n)-ish) but, for every fixed hash function, an
// adversary who knows h can build a request set that serializes one
// module. The paper's scheme gives the same worst-case guarantee for
// every set.
func RunE14(w io.Writer, cfg Config) error {
	p := hmos.Params{Side: 27, Q: 3, D: 5, K: 2}
	sim, err := core.New(p, core.Config{})
	if err != nil {
		return err
	}
	n := sim.Mesh().N
	vars := sim.Scheme().Vars()

	var tb stats.Table
	tb.Add("scheme", "request set", "max module contention", "total steps")

	var randomConts, advConts []float64
	for seed := int64(0); seed < 5; seed++ {
		nr, err := baseline.NewNoReplicationCW(p.Side, n*n, cfg.Seed+seed)
		if err != nil {
			return err
		}
		// Random request set: expected contention is low.
		rv := workload.RandomDistinct(n*n, n, cfg.Seed+100+seed)
		ops := make([]baseline.Op, len(rv))
		for i, v := range rv {
			ops[i] = baseline.Op{Origin: i, Var: v}
		}
		_, c1 := nr.Step(ops)
		randomConts = append(randomConts, float64(c1.Access))

		// Adversarial set for THIS hash: all requests homed together.
		hot := nr.VarsOnProc(nr.Home(0), n)
		ops2 := make([]baseline.Op, len(hot))
		for i, v := range hot {
			ops2[i] = baseline.Op{Origin: i % n, Var: v}
		}
		_, c2 := nr.Step(ops2)
		advConts = append(advConts, float64(c2.Access))
	}
	tb.Add("CW-hashed single copy", "random (5 hash draws, mean)", int64(stats.GeoMean(randomConts)), "-")
	tb.Add("CW-hashed single copy", "adversarial vs known h (mean)", int64(stats.GeoMean(advConts)), "-")

	// The deterministic scheme's measured worst case over the same
	// adversarial idea (module-hot) and its guarantee.
	hot := workload.ModuleHot(sim.Scheme(), 1, n)
	_, st := sim.Step(hot.Reads())
	tb.Add("HMOS (paper, deterministic)", "module-hot (its worst stress)", st.Delta[0], st.Total())
	rv := workload.RandomDistinct(vars, n, cfg.Seed)
	_, st2 := sim.Step(rv.Reads())
	tb.Add("HMOS (paper, deterministic)", "random", st2.Delta[0], st2.Total())

	tb.Render(w)
	fmt.Fprintln(w, "\n  2-universal hashing [CW79] gives low contention in expectation, but a")
	fmt.Fprintln(w, "  fixed h always admits a Θ(n/(M/n·n))·n-sized colliding set — here the")
	fmt.Fprintln(w, "  adversary serializes ~n accesses in one module. The deterministic")
	fmt.Fprintln(w, "  scheme's contention is bounded for every request set, which is the")
	fmt.Fprintln(w, "  paper's reason to pay redundancy + culling.")
	return nil
}
