// Package meshpram_test hosts the benchmark harness: one testing.B
// benchmark per experiment of DESIGN.md §4 (tables E1–E18 and figures
// F1–F3 share their generators; E11 is a test, not a bench), so
// `go test -bench=.` regenerates the quantities EXPERIMENTS.md reports. Each benchmark iteration performs
// the full measured operation of its experiment at the default
// (non -big) scale.
package meshpram_test

import (
	"io"
	"math/rand"
	"testing"

	"meshpram/internal/baseline"
	"meshpram/internal/bibd"
	"meshpram/internal/core"
	"meshpram/internal/culling"
	"meshpram/internal/experiments"
	"meshpram/internal/gf"
	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/workload"
)

var benchCfg = experiments.Config{Seed: 1}

// run executes an experiment once per iteration with output discarded.
func run(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Slowdown regenerates Table E1 / Figure F1 (Theorems 1/4).
func BenchmarkE1Slowdown(b *testing.B) { run(b, "E1") }

// BenchmarkE2Culling regenerates Table E2 / Figure F2 (Theorem 3).
func BenchmarkE2Culling(b *testing.B) { run(b, "E2") }

// BenchmarkE3BIBD regenerates Table E3 (Definition 1, Lemma 1).
func BenchmarkE3BIBD(b *testing.B) { run(b, "E3") }

// BenchmarkE4Balance regenerates Table E4 (Theorem 5).
func BenchmarkE4Balance(b *testing.B) { run(b, "E4") }

// BenchmarkE5Routing regenerates Table E5 (Theorem 2).
func BenchmarkE5Routing(b *testing.B) { run(b, "E5") }

// BenchmarkE6Staged regenerates Table E6 / Figure F3 (§2 crossover).
func BenchmarkE6Staged(b *testing.B) { run(b, "E6") }

// BenchmarkE7CullingTime regenerates Table E7 (equation 2).
func BenchmarkE7CullingTime(b *testing.B) { run(b, "E7") }

// BenchmarkE8Adversarial regenerates Table E8.
func BenchmarkE8Adversarial(b *testing.B) { run(b, "E8") }

// BenchmarkE9Redundancy regenerates Table E9 (Theorem 4 trade-off).
func BenchmarkE9Redundancy(b *testing.B) { run(b, "E9") }

// BenchmarkE10MapSize regenerates Table E10.
func BenchmarkE10MapSize(b *testing.B) { run(b, "E10") }

// BenchmarkE12Ablation regenerates Table E12.
func BenchmarkE12Ablation(b *testing.B) { run(b, "E12") }

// BenchmarkE13Policies regenerates Table E13 (majority vs MV84).
func BenchmarkE13Policies(b *testing.B) { run(b, "E13") }

// BenchmarkE14Hashing regenerates Table E14 (deterministic vs CW79).
func BenchmarkE14Hashing(b *testing.B) { run(b, "E14") }

// BenchmarkE15Programs regenerates Table E15 (application-level slowdown).
func BenchmarkE15Programs(b *testing.B) { run(b, "E15") }

// BenchmarkE16Torus regenerates Table E16 (torus extension).
func BenchmarkE16Torus(b *testing.B) { run(b, "E16") }

// BenchmarkE17SortAlgo regenerates Table E17 (sorting substitution).
func BenchmarkE17SortAlgo(b *testing.B) { run(b, "E17") }

// BenchmarkE18MPC regenerates Table E18 (MPC vs mesh lineage).
func BenchmarkE18MPC(b *testing.B) { run(b, "E18") }

// --- micro-benchmarks of the building blocks ---------------------------

// BenchmarkStepRandom729 is one full protocol step: 729 mixed requests
// on a 27×27 mesh with M = 9801.
func BenchmarkStepRandom729(b *testing.B) {
	sim := core.MustNew(hmos.Params{Side: 27, Q: 3, D: 5, K: 2}, core.Config{})
	n := sim.Mesh().N
	vars := workload.RandomDistinct(sim.Scheme().Vars(), n, 1)
	ops := vars.Mixed(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(ops)
	}
}

// BenchmarkStepRandom6561 is the side-81 machine (M = 796797).
func BenchmarkStepRandom6561(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	sim := core.MustNew(hmos.Params{Side: 81, Q: 3, D: 7, K: 2}, core.Config{})
	n := sim.Mesh().N
	vars := workload.RandomDistinct(sim.Scheme().Vars(), n, 1)
	ops := vars.Mixed(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(ops)
	}
}

// BenchmarkCulling729 isolates the copy-selection stage.
func BenchmarkCulling729(b *testing.B) {
	s := hmos.MustNew(hmos.Params{Side: 27, Q: 3, D: 5, K: 2})
	m := mesh.MustNew(27)
	vars := workload.RandomDistinct(s.Vars(), m.N, 1)
	reqs := make([]culling.Request, len(vars))
	for i, v := range vars {
		reqs[i] = culling.Request{Origin: i, Var: v}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		culling.Run(s, m, reqs)
	}
}

// BenchmarkGreedyRouter isolates the cycle-accurate router on a random
// permutation at 32×32.
func BenchmarkGreedyRouter(b *testing.B) {
	m := mesh.MustNew(32)
	perm := rand.New(rand.NewSource(1)).Perm(m.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([][]int, m.N)
		for p := 0; p < m.N; p++ {
			items[p] = append(items[p], perm[p])
		}
		route.GreedyRoute(m, m.Full(), items, func(d int) int { return d })
	}
}

// BenchmarkBIBDLocate measures the implicit memory-map arithmetic: one
// copy location in a 796797-variable scheme.
func BenchmarkBIBDLocate(b *testing.B) {
	s := hmos.MustNew(hmos.Params{Side: 81, Q: 3, D: 7, K: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CopyAt(i%s.Vars(), i%s.Redundant)
	}
}

// BenchmarkBaselineNoReplication is the single-copy competitor's step.
func BenchmarkBaselineNoReplication(b *testing.B) {
	nr, err := baseline.NewNoReplication(27, 9801)
	if err != nil {
		b.Fatal(err)
	}
	vars := workload.RandomDistinct(9801, nr.M.N, 1)
	ops := make([]baseline.Op, len(vars))
	for i, v := range vars {
		ops[i] = baseline.Op{Origin: i, Var: v, IsWrite: i%2 == 0, Value: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nr.Step(ops)
	}
}

// BenchmarkBaselineRandomMOS is the random-graph majority competitor.
func BenchmarkBaselineRandomMOS(b *testing.B) {
	rm, err := baseline.NewRandomMOS(27, 9801, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	vars := workload.RandomDistinct(9801, rm.M.N, 1)
	ops := make([]baseline.Op, len(vars))
	for i, v := range vars {
		ops[i] = baseline.Op{Origin: i, Var: v, IsWrite: i%2 == 0, Value: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.Step(ops)
	}
}

// BenchmarkFullBIBDConstruction builds the largest first-level design
// used by the experiments.
func BenchmarkFullBIBDConstruction(b *testing.B) {
	f := gf.MustNew(3)
	for i := 0; i < b.N; i++ {
		bibd.MustNew(f, 7)
	}
}
