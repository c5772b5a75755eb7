package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/stats"
)

// routeKinds are the router micro-benchmark workloads, mirroring
// BenchmarkGreedyRoute{Dense,Transpose,Sparse} in internal/route:
// dense protocol-stage traffic, the adversarial transpose permutation,
// and the sparse shape of a repair scrub.
var routeKinds = []string{"dense", "transpose", "sparse"}

// routeInstance rebuilds one benchmark workload (see the route package
// benchmarks for the shapes).
func routeInstance(kind string, m *mesh.Machine, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	dests := make([][]int, m.N)
	switch kind {
	case "dense":
		for p := 0; p < m.N; p++ {
			for j := 0; j < 4; j++ {
				dests[p] = append(dests[p], rng.Intn(m.N))
			}
		}
	case "transpose":
		for p := 0; p < m.N; p++ {
			dests[p] = append(dests[p], m.IDOf(m.ColOf(p), m.RowOf(p)))
		}
	case "sparse":
		for p := 0; p < m.N; p += 16 {
			dests[p] = append(dests[p], rng.Intn(m.N))
		}
	default:
		panic("unknown route instance " + kind)
	}
	return dests
}

// routeCell is one measured (kind, side) configuration.
type routeCell struct {
	nsOp     int64
	allocsOp int64
	cycles   int64 // charged mesh cycles (mode-invariant)
	executed int64 // physically executed iterations (≤ cycles)
}

// measureRoute times iters steady-state calls of a persistent engine on
// the instance (one untimed warm-up call populates the engine's and the
// delivery buffer's capacity, so the figure reflects the reuse path a
// hot loop sees).
func measureRoute(kind string, side, iters int, seed int64) routeCell {
	m := mesh.MustNew(side)
	dests := routeInstance(kind, m, seed)
	items := make([][]int, m.N)
	dst := make([][]int, m.N)
	ident := func(d int) int { return d }
	eng := route.NewEngine[int](m)
	full := m.Full()
	var cell routeCell
	var ms0, ms1 runtime.MemStats
	for it := -1; it < iters; it++ {
		for p := range items {
			items[p] = append(items[p][:0], dests[p]...)
		}
		if it == 0 {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		_, cycles := eng.Route(dst, full, items, ident)
		if it >= 0 {
			cell.nsOp += time.Since(start).Nanoseconds()
			cell.cycles = cycles
			cell.executed = eng.Executed()
		}
		for p := range dst {
			dst[p] = dst[p][:0]
		}
	}
	runtime.ReadMemStats(&ms1)
	cell.nsOp /= int64(iters)
	cell.allocsOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
	return cell
}

// RunRoute is the ROUTE entry: the allocation-lean greedy routing
// engine's micro-benchmark. It measures ns/op, allocs/op and the
// charged and executed cycle counts for dense, transpose and sparse
// instances at sides 27 and 81. Everything but ns/op is deterministic
// and pinned by the experiment golden (golden_test.go): allocs/op must
// stay 0.
func RunRoute(w io.Writer, cfg Config) error {
	var tb stats.Table
	tb.Add("instance", "side", "ns/op", "allocs/op", "cycles charged", "cycles executed")
	for _, kind := range routeKinds {
		for _, side := range []int{27, 81} {
			iters := 3
			if side >= 81 {
				iters = 2
			}
			cell := measureRoute(kind, side, iters, cfg.Seed)
			if cell.executed > cell.cycles {
				return fmt.Errorf("route %s side=%d: executed %d > charged %d cycles",
					kind, side, cell.executed, cell.cycles)
			}
			tb.Add(kind, side, cell.nsOp, cell.allocsOp, cell.cycles, cell.executed)
			key := fmt.Sprintf("%s-%d", kind, side)
			cfg.Report.SetPhase(key+"-ns-op", cell.nsOp)
			cfg.Report.SetPhase(key+"-allocs-op", cell.allocsOp)
			cfg.Report.SetPhase(key+"-cycles", cell.cycles)
			cfg.Report.SetPhase(key+"-cycles-executed", cell.executed)
			if kind == "dense" && side == 81 {
				cfg.Report.SetSteps(cell.cycles)
			}
		}
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nhost cores: %d\n", runtime.NumCPU())
	return nil
}
