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

// runEngineMode is runEngine with an explicit execution mode; it
// additionally reports the executed iteration count of the call.
func runEngineMode(t *testing.T, mode EngineMode, workers int, withFaults, torus, faultPath bool, items func(m *mesh.Machine) [][]item) (engineRun, int64) {
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
// instances × {mesh, torus} × {healthy path, fault path on a healthy
// machine, fault path with static faults (dead node, dead links, slow
// links)} × worker widths {1, 4, 8}. Every observable output must
// match. Executed iterations must be ≤ charged cycles on the healthy
// event path and equal to them wherever the engine sweeps: in cycle
// mode, and on the fault path in either mode.
func TestEventCycleBitIdentity(t *testing.T) {
	type instance struct {
		kind string
		seed int64
	}
	paths := []struct {
		name              string
		faults, faultPath bool
	}{
		{"healthy", false, false},
		{"faultpath", false, true},
		{"faults", true, true},
	}
	for _, in := range []instance{{"random", 42}, {"transpose", 42}, {"hotspot", 42}, {"random", 7}} {
		for _, torus := range []bool{false, true} {
			for _, path := range paths {
				for _, workers := range []int{1, 4, 8} {
					label := fmt.Sprintf("%s-%d/torus=%v/%s/workers=%d",
						in.kind, in.seed, torus, path.name, workers)
					items := func(m *mesh.Machine) [][]item {
						return engineInstance(in.kind, m, in.seed)
					}
					cyc, cycExec := runEngineMode(t, ModeCycle, workers, path.faults, torus, path.faultPath, items)
					evt, evtExec := runEngineMode(t, ModeEvent, workers, path.faults, torus, path.faultPath, items)
					requireIdentical(t, label, cyc, evt)
					if cycExec != cyc.steps {
						t.Errorf("%s: cycle mode executed %d of %d charged cycles",
							label, cycExec, cyc.steps)
					}
					if path.faultPath && evtExec != evt.steps {
						t.Errorf("%s: fault path executed %d of %d charged cycles, want one sweep per cycle",
							label, evtExec, evt.steps)
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
