package route

import (
	"fmt"
	"math/rand"
	"testing"

	"meshpram/internal/mesh"
)

// The healthy path must be a perfect discrete-event simulation of the
// cycle-stepped machine: everything the engine's one cycle loop (forced
// with ForceCycleLoop) produces on a healthy machine — delivered contents and
// per-processor order, charged cycles, lost counts, ledger spans — must
// be byte-identical on the line-decomposed healthy path, on every
// topology. The only permitted difference is the executed-iteration
// count, which may only ever be ≤ the charged cycle count.

// runEngineExec is runEngine over the full mesh (a fresh engine when
// eng is nil); it additionally reports the executed iteration count of
// the call.
func runEngineExec(t *testing.T, eng *Engine[item], withFaults, torus, faultPath bool, items func(m *mesh.Machine) [][]item) (engineRun, int64) {
	t.Helper()
	if eng == nil {
		eng = NewEngine[item](mesh.MustNew(16))
	}
	run := runEngine(t, eng, withFaults, torus, faultPath, func(m *mesh.Machine) mesh.Region { return m.Full() }, items)
	return run, eng.Executed()
}

// TestEventCycleBitIdentity is the seeded healthy-vs-cycle-loop matrix:
// instances × {mesh, torus} × {healthy path, fault path on a healthy
// machine, fault path with static faults (dead node, dead links, slow
// links)}. The reference is always a fresh engine's fault path with the
// cycle loop forced, on a healthy machine for the first two rows; it is
// compared with one engine reused across the whole matrix, and every
// observable output must match. On a healthy machine the reference
// loses no packet. Executed iterations must be ≤ charged cycles
// everywhere and equal to them wherever the engine sweeps: on the
// forced loop and on the fault path over a faulted network. (The fault
// path on a healthy machine takes the line solver.)
func TestEventCycleBitIdentity(t *testing.T) {
	shared := NewEngine[item](mesh.MustNew(16))
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
				label := fmt.Sprintf("%s-%d/torus=%v/%s", in.kind, in.seed, torus, path.name)
				items := func(m *mesh.Machine) [][]item {
					return engineInstance(in.kind, m, in.seed)
				}
				ref, refExec := runEngineExec(t, cycleEngine(mesh.MustNew(16)), path.faults, torus, true, items)
				got, gotExec := runEngineExec(t, shared, path.faults, torus, path.faultPath, items)
				requireIdentical(t, label, ref, got)
				if !path.faults && ref.lost != 0 {
					t.Errorf("%s: reference lost %d packets on a healthy machine", label, ref.lost)
				}
				if refExec != ref.steps {
					t.Errorf("%s: cycle loop executed %d of %d charged cycles",
						label, refExec, ref.steps)
				}
				if path.faults && gotExec != got.steps {
					t.Errorf("%s: fault path executed %d of %d charged cycles, want one sweep per cycle",
						label, gotExec, got.steps)
				}
				if gotExec > got.steps {
					t.Errorf("%s: executed %d > %d charged cycles",
						label, gotExec, got.steps)
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
			_, steps := eng.Route(nil, Whole(m, false), items, func(d int) int { return d })
			if exec := eng.Executed(); exec > steps || exec <= 0 {
				t.Errorf("%s-%d: executed %d outside (0, charged=%d]", kind, side, exec, steps)
			}
		}
	}
}
