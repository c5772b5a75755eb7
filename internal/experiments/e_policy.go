package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/core"
	"meshpram/internal/culling"
	"meshpram/internal/hmos"
	"meshpram/internal/stats"
	"meshpram/internal/workload"
)

// RunE13 compares the paper's hierarchical-majority discipline against
// the Mehlhorn–Vishkin read-one/write-all discipline [MV84] the
// introduction contrasts it with: MV84 reads are cheap (one packet),
// MV84 writes route q^k packets and admit an O(c·n)-type worst case on
// module-hot write bursts, while the majority scheme treats reads and
// writes symmetrically with culling-bounded congestion.
func RunE13(w io.Writer, cfg Config) error {
	p := hmos.Params{Side: 27, Q: 3, D: 4, K: 2}
	var tb stats.Table
	tb.Add("policy", "workload", "packets", "hot page load", "route fwd", "total steps")

	type variant struct {
		name string
		cfg  core.Config
	}
	variants := []variant{
		{"majority (paper)", core.Config{}},
		{"read-1/write-all (MV84)", core.Config{Access: culling.ReadOneWriteAll}},
	}
	for _, v := range variants {
		sim, err := core.New(p, v.cfg)
		if err != nil {
			return err
		}
		n := sim.Mesh().N
		rv := workload.RandomDistinct(sim.Scheme().Vars(), n, cfg.Seed)
		hot := workload.ModuleHot(sim.Scheme(), 3, n)

		for _, wl := range []struct {
			name string
			ops  []core.Op
		}{
			{"random reads", rv.Reads()},
			{"random writes", rv.Writes(1)},
			{"module-hot writes", hot.Writes(1)},
		} {
			_, st := sim.Step(wl.ops)
			tb.Add(v.name, wl.name, st.Packets, st.PageLoadMax[1], st.Forward, st.Total())
		}
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  MV84 reads route 1 packet/op (vs 4 for the majority set) but its")
	fmt.Fprintln(w, "  write bursts put one packet in the hot module for EVERY variable —")
	fmt.Fprintln(w, "  the Θ(c·n) worst case [MV84] concedes — while the majority policy's")
	fmt.Fprintln(w, "  culled selection keeps page loads below the Theorem 3 bound either way.")
	return nil
}
