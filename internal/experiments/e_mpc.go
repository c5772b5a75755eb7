package experiments

import (
	"fmt"
	"io"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/mpc"
	"meshpram/internal/stats"
	"meshpram/internal/trace"
	"meshpram/internal/workload"
)

// RunE18 places the paper in its lineage: the same BIBD memory
// organization on the MPC (complete interconnection; [PP93a], where
// only module contention costs time) versus on the mesh (this paper,
// where routing costs too). The MPC column isolates the contention
// component; the difference is the price of a realistic bounded-degree
// network — the gap the paper's staged protocol is engineered to keep
// within n^{1/2+ε}.
func RunE18(w io.Writer, cfg Config) error {
	var tb stats.Table
	tb.Add("n", "workload", "MPC max module load", "MPC steps", "mesh steps", "mesh/MPC")
	for _, d := range []int{4, 6} {
		m, err := mpc.New(3, d)
		if err != nil {
			return err
		}
		var meshParams hmos.Params
		switch d {
		case 4:
			meshParams = hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
		case 6:
			meshParams = hmos.Params{Side: 27, Q: 3, D: 5, K: 2}
		}
		sim, err := core.New(meshParams, core.Config{})
		if err != nil {
			return err
		}
		n := m.N
		// Random batch (note: MPC memory is Θ(n²), mesh memory n^α at
		// the largest feasible d — a structural difference reported as
		// is; both serve n distinct requests).
		rvMPC := workload.RandomDistinct(m.Vars(), n, cfg.Seed)
		rvMesh := workload.RandomDistinct(sim.Scheme().Vars(), n, cfg.Seed)
		opsMPC := make([]mpc.Op, len(rvMPC))
		for i, v := range rvMPC {
			opsMPC[i] = mpc.Op{Origin: i, Var: v}
		}
		_, stMPC := m.Step(opsMPC)
		cfg.Report.AddTrace("mpc", trace.Export(m.Ledger().Last()))
		_, stMesh := sim.Step(rvMesh.Reads())
		tb.Add(n, "random", stMPC.MaxLoad, stMPC.Steps, stMesh.Total(),
			float64(stMesh.Total())/float64(stMPC.Steps))

		// Module-hot adversary on both machines.
		deg := m.G.Degree(0)
		count := min(deg, n)
		hotMPC := make([]mpc.Op, count)
		for r := 0; r < count; r++ {
			hotMPC[r] = mpc.Op{Origin: r, Var: m.G.InputAtRank(0, r)}
		}
		_, stMPC2 := m.Step(hotMPC)
		hotMesh := workload.ModuleHot(sim.Scheme(), 0, n)
		_, stMesh2 := sim.Step(hotMesh.Reads())
		tb.Add(n, "module-hot", stMPC2.MaxLoad, stMPC2.Steps, stMesh2.Total(),
			float64(stMesh2.Total())/float64(stMPC2.Steps))
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  On the MPC the BIBD's λ=1 property lets greedy majority selection")
	fmt.Fprintln(w, "  spread even module-hot sets to O(√n) contention ([PP93a]); the mesh")
	fmt.Fprintln(w, "  pays the same contention plus sorting and routing — the multiplier in")
	fmt.Fprintln(w, "  the last column is the cost of realism the paper's theorem bounds.")
	return nil
}
