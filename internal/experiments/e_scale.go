package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/stats"
)

// SCALE measures how the simulator's cost per node behaves as the mesh
// grows: wall-clock ns per charged cycle per node (throughput of the
// discrete-event engine) and quiescent resident bytes per node (the
// compact slot state). The footprint figure is the point of the slab
// store and the implicit memory map — a sparse workload touches O(M·q^k)
// cells, so bytes/node must *fall* as n grows: nothing the simulator
// retains at quiescence may scale with the mesh.
//
// Every side is a multiple of 27 so the q=3, d=4, k=2 scheme splits
// evenly; the Big side 1458 is the million-node point (n = 2,125,764).
var scaleSides = []int{27, 81, 243, 486}

// scaleBigSide is included with -big: n = 1458² ≥ 10^6.
const scaleBigSide = 1458

// scaleParams is the memory scheme shared by every SCALE point: 1080
// variables, 1080 modules, 9 copies per variable.
func scaleParams(side int) hmos.Params {
	return hmos.Params{Side: side, Q: 3, D: 4, K: 2}
}

// scaleCell is one measured mesh size.
type scaleCell struct {
	n              int   // processors
	nsOp           int64 // wall ns per PRAM step (steady state)
	cycles         int64 // charged mesh cycles per step
	bytesTotal     int64 // quiescent resident bytes (after Compact)
	bytesScheme    int64
	bytesStore     int64
	bytesRouting   int64 // retained routing bytes after Compact (0)
	heapBytes      int64 // whole-process HeapAlloc after GC (ReadMemStats)
	bytesNodeMilli int64 // bytesTotal·1000/n
}

// measureScale runs a sparse PRAM workload (every variable touched,
// origins scattered) on one mesh side: a warm-up step populates every
// lazily-grown buffer, two timed steps give the steady-state ns/step,
// then Compact returns the simulator to quiescence and the per-layer
// footprint is read off MemReport.
func measureScale(side int, seed int64) (scaleCell, error) {
	sim, err := core.New(scaleParams(side), core.Config{})
	if err != nil {
		return scaleCell{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	vars := sim.S.Vars()
	ops := make([]core.Op, 0, vars)
	step := func(write bool) int64 {
		ops = ops[:0]
		for _, v := range rng.Perm(vars) {
			ops = append(ops, core.Op{
				Origin:  rng.Intn(sim.M.N),
				Var:     v,
				IsWrite: write,
				Value:   core.Word(v),
			})
			if len(ops) == sim.M.N { // origins ≥ vars everywhere but tiny meshes
				break
			}
		}
		_, st := sim.Step(ops)
		return st.Total()
	}
	var cell scaleCell
	cell.n = sim.M.N
	step(true) // warm-up: allocates every slab and engine buffer
	const iters = 2
	start := time.Now()
	for it := 0; it < iters; it++ {
		cell.cycles = step(it%2 == 0)
	}
	cell.nsOp = time.Since(start).Nanoseconds() / iters

	sim.Compact()
	// Whole-process heap ceiling alongside the deterministic capacity
	// walk: the MemReport figures are what the experiment golden pins;
	// HeapAlloc is the allocator's view, reported for cross-checking only.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cell.heapBytes = int64(ms.HeapAlloc)
	rep := sim.MemReport()
	cell.bytesTotal = rep.Total()
	cell.bytesScheme = rep.Scheme
	cell.bytesStore = rep.Store
	cell.bytesRouting = rep.Routing
	cell.bytesNodeMilli = cell.bytesTotal * 1000 / int64(cell.n)
	return cell, nil
}

// RunScale is the SCALE entry: bytes/node and ns/cycle/node versus n.
// The byte figures count capacities, so they are deterministic; the
// experiment golden (golden_test.go) pins each of them exactly at the
// default sides.
func RunScale(w io.Writer, cfg Config) error {
	sides := scaleSides
	if cfg.Big {
		sides = append(append([]int{}, sides...), scaleBigSide)
	}
	var tb stats.Table
	tb.Add("side", "n", "ns/step", "cycles", "ns/cycle", "bytes/node")
	for _, side := range sides {
		cell, err := measureScale(side, cfg.Seed)
		if err != nil {
			return fmt.Errorf("scale side=%d: %w", side, err)
		}
		nsCycle := int64(0)
		if cell.cycles > 0 {
			nsCycle = cell.nsOp / cell.cycles
		}
		tb.Add(side, cell.n, cell.nsOp, cell.cycles, nsCycle,
			fmt.Sprintf("%.3f", float64(cell.bytesNodeMilli)/1000))
		key := fmt.Sprintf("scale-%d", side)
		cfg.Report.SetPhase(key+"-n", int64(cell.n))
		cfg.Report.SetPhase(key+"-ns-op", cell.nsOp)
		cfg.Report.SetPhase(key+"-cycles", cell.cycles)
		cfg.Report.SetPhase(key+"-bytes", cell.bytesTotal)
		cfg.Report.SetPhase(key+"-bytes-scheme", cell.bytesScheme)
		cfg.Report.SetPhase(key+"-bytes-store", cell.bytesStore)
		cfg.Report.SetPhase(key+"-bytes-node-milli", cell.bytesNodeMilli)
		cfg.Report.SetPhase(key+"-heap-bytes", cell.heapBytes)
		cfg.Report.SetSteps(cell.cycles)
		if cell.bytesRouting != 0 {
			return fmt.Errorf("scale side=%d: %d routing bytes retained after Compact", side, cell.bytesRouting)
		}
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nhost cores: %d; Big (side %d, n=%d) included: %v\n",
		runtime.NumCPU(), scaleBigSide, scaleBigSide*scaleBigSide, cfg.Big)
	return nil
}
