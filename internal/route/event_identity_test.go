package route

import (
	"fmt"
	"math/rand"
	"testing"

	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// The event engine must be a perfect discrete-event simulation of the
// cycle-stepped machine: everything the cycle engine produces —
// delivered contents and per-processor order, charged cycles, lost
// counts, ledger spans — must be byte-identical in event mode, at
// every worker width, on every topology, with and without faults. The
// only permitted difference is the executed-iteration count, which may
// only ever be ≤ the charged cycle count.

// runEngineMode is runEngine with an explicit execution mode and an
// optional horizon source; it additionally reports the executed
// iteration count of the call.
func runEngineMode(t *testing.T, mode EngineMode, hsrc HorizonSource, workers int, withFaults, torus, faultPath bool, items func(m *mesh.Machine) [][]item) (engineRun, int64) {
	t.Helper()
	m := mesh.MustNew(16)
	if withFaults {
		m.SetFaults(staticFaults(16))
	}
	if workers != 1 {
		m.SetParallel(workers)
	}
	ld := trace.New()
	m.AttachLedger(ld)
	eng := NewEngine[item](m)
	eng.SetMode(mode)
	eng.SetHorizonSource(hsrc)
	work := items(m)
	dest := func(v item) int { return v.dest }

	var run engineRun
	switch {
	case faultPath && torus:
		run.delivered, run.steps, run.lost = eng.RouteTorusFault(nil, work, dest)
	case faultPath:
		run.delivered, run.steps, run.lost = eng.RouteFault(nil, m.Full(), work, dest)
	case torus:
		run.delivered, run.steps = eng.RouteTorus(nil, work, dest)
	default:
		run.delivered, run.steps = eng.Route(nil, m.Full(), work, dest)
	}
	sp := ld.Last()
	if sp == nil {
		t.Fatal("routing left no ledger span")
	}
	run.observed = sp.Observed()
	run.packets = sp.TotalPackets()
	run.phases = sp.PhaseTotals()
	run.lostAttr, _ = sp.Attr("lost")
	return run, eng.Executed()
}

// TestEventCycleBitIdentity is the seeded event-vs-cycle matrix:
// instance kinds × {mesh, torus} × {healthy, static faults (dead
// node, dead links, slow links)} × worker widths {1, 4, 8}. Every
// observable output must match; executed iterations must be ≤ charged
// cycles in event mode and equal in cycle mode.
func TestEventCycleBitIdentity(t *testing.T) {
	for _, kind := range []string{"random", "transpose", "hotspot"} {
		for _, torus := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				for _, workers := range []int{1, 4, 8} {
					label := fmt.Sprintf("%s/torus=%v/faults=%v/workers=%d",
						kind, torus, faults, workers)
					items := func(m *mesh.Machine) [][]item {
						return engineInstance(kind, m, 42)
					}
					// The fault path also covers the healthy map (it is
					// bit-identical to the fast path by contract), so use
					// it whenever faults are installed.
					cyc, cycExec := runEngineMode(t, ModeCycle, nil, workers, faults, torus, faults, items)
					evt, evtExec := runEngineMode(t, ModeEvent, nil, workers, faults, torus, faults, items)
					requireIdentical(t, label, cyc, evt)
					if cycExec != cyc.steps {
						t.Errorf("%s: cycle mode executed %d of %d charged cycles",
							label, cycExec, cyc.steps)
					}
					if evtExec > evt.steps {
						t.Errorf("%s: event mode executed %d > %d charged cycles",
							label, evtExec, evt.steps)
					}
				}
			}
		}
	}
}

// TestEventFixedHorizonCap pins the HorizonSource contract: an
// external cap bounds every skip without changing any observable
// output, and a non-positive cap disables batching entirely (executed
// equals charged — the engine degrades to the cycle loop). On the
// healthy path any installed source selects the cycle loop, since the
// line decomposition solves a call in one piece; the fault path (here
// on a machine without faults, so skips are long) caps its epoch skips.
func TestEventFixedHorizonCap(t *testing.T) {
	items := func(m *mesh.Machine) [][]item { return engineInstance("random", m, 7) }

	for _, faultPath := range []bool{false, true} {
		run := func(mode EngineMode, hsrc HorizonSource) (engineRun, int64) {
			return runEngineMode(t, mode, hsrc, 1, false, false, faultPath, items)
		}
		ref, refExec := run(ModeCycle, nil)
		free, freeExec := run(ModeEvent, nil)
		capped, cappedExec := run(ModeEvent, FixedHorizon(7))
		off, offExec := run(ModeEvent, FixedHorizon(0))

		label := fmt.Sprintf("faultpath=%v", faultPath)
		requireIdentical(t, label+"/uncapped", ref, free)
		requireIdentical(t, label+"/capped-7", ref, capped)
		requireIdentical(t, label+"/capped-0", ref, off)
		if freeExec > cappedExec || cappedExec > offExec {
			t.Errorf("%s: executed iterations not monotone in the cap: free %d, cap-7 %d, cap-0 %d",
				label, freeExec, cappedExec, offExec)
		}
		if offExec != ref.steps || refExec != ref.steps {
			t.Errorf("%s: zero horizon must execute every charged cycle: got %d (cycle %d) of %d",
				label, offExec, refExec, ref.steps)
		}
	}
}

// TestEventExecutedBounded asserts the executed ≤ charged invariant on
// the benchmark workloads (the same instances BENCH_ROUTE pins), at
// both benchmark sides.
func TestEventExecutedBounded(t *testing.T) {
	for _, kind := range []string{"dense", "transpose", "sparse"} {
		for _, side := range []int{27, 81} {
			m := mesh.MustNew(side)
			rng := rand.New(rand.NewSource(1))
			items := make([][]int, m.N)
			switch kind {
			case "dense":
				for p := 0; p < m.N; p++ {
					for j := 0; j < 4; j++ {
						items[p] = append(items[p], rng.Intn(m.N))
					}
				}
			case "transpose":
				for p := 0; p < m.N; p++ {
					items[p] = append(items[p], m.IDOf(m.ColOf(p), m.RowOf(p)))
				}
			case "sparse":
				for p := 0; p < m.N; p += 16 {
					items[p] = append(items[p], rng.Intn(m.N))
				}
			}
			eng := NewEngine[int](m)
			_, steps := eng.Route(nil, m.Full(), items, func(d int) int { return d })
			if exec := eng.Executed(); exec > steps || exec <= 0 {
				t.Errorf("%s-%d: executed %d outside (0, charged=%d]", kind, side, exec, steps)
			}
		}
	}
}
