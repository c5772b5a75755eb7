package meshpram_test

import (
	"math/rand"
	"sort"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/mpc"
	"meshpram/internal/pram"
	"meshpram/internal/sim"
	"meshpram/internal/workload"
)

// Integration tests: the example flows end-to-end, plus cross-system
// agreement checks (mesh vs ideal vs MPC) on the same traffic.

// mustNew is core.New for a configuration the test knows is valid.
func mustNew(p hmos.Params, cfg core.Config) *core.Simulator {
	sim, err := core.New(p, cfg)
	if err != nil {
		panic(err)
	}
	return sim
}

func TestIntegrationQuickstartFlow(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, core.Config{})
	n := sim.Mesh().N
	writes := make([]core.Op, n)
	for i := range writes {
		writes[i] = core.Op{Origin: i, Var: i, IsWrite: true, Value: core.Word(i * i)}
	}
	_, wst := sim.Step(writes)
	if wst.Packets != n*4 {
		t.Fatalf("write packets %d", wst.Packets)
	}
	reads := make([]core.Op, n)
	for i := range reads {
		reads[i] = core.Op{Origin: i, Var: (i + 1) % n}
	}
	vals, _ := sim.Step(reads)
	for i := range reads {
		want := core.Word(((i + 1) % n) * ((i + 1) % n))
		if vals[i] != want {
			t.Fatalf("read %d = %d, want %d", i, vals[i], want)
		}
	}
}

// meshBackend builds the default scenario's mesh backend (9×9 mesh,
// q = 3, d = 3, k = 2).
func meshBackend(t *testing.T) pram.Backend {
	t.Helper()
	cfg, err := sim.FromScenario(sim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pram.NewBackend(pram.BackendMesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIntegrationAllProgramsOnMesh(t *testing.T) {
	mb := meshBackend(t)
	rng := rand.New(rand.NewSource(50))

	// Prefix sums.
	in := make([]pram.Word, 30)
	for i := range in {
		in[i] = pram.Word(rng.Intn(50))
	}
	if _, err := pram.Run(&pram.PrefixSum{In: in}, mb); err != nil {
		t.Fatal(err)
	}
	var want pram.Word
	for i, v := range in {
		want += v
		res, _ := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: i}})
		if res[0] != want {
			t.Fatalf("prefix[%d] = %d, want %d", i, res[0], want)
		}
	}

	// Sorting (fresh backend: address space reuse).
	mb2 := meshBackend(t)
	keys := make([]pram.Word, 24)
	for i := range keys {
		keys[i] = pram.Word(rng.Intn(100))
	}
	sorted := append([]pram.Word(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if _, err := pram.Run(&pram.OddEvenSort{In: keys}, mb2); err != nil {
		t.Fatal(err)
	}
	for i, wv := range sorted {
		res, _ := mb2.ExecStep([]pram.Op{{Kind: pram.Read, Addr: i}})
		if res[0] != wv {
			t.Fatalf("sorted[%d] = %d, want %d", i, res[0], wv)
		}
	}
}

// The same random traffic must produce identical values on the mesh
// simulation, the ideal PRAM, and the MPC — three machines, one memory
// semantics.
func TestIntegrationThreeMachinesAgree(t *testing.T) {
	meshSim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, core.Config{})
	mpcSim, err := mpc.New(3, 3) // 27 modules, f(3,3)=117 vars — same M
	if err != nil {
		t.Fatal(err)
	}
	ideal := map[int]core.Word{}
	rng := rand.New(rand.NewSource(60))
	vars := meshSim.Scheme().Vars()
	if mpcSim.Vars() != vars {
		t.Fatalf("memory sizes differ: mesh %d, mpc %d", vars, mpcSim.Vars())
	}
	for step := 0; step < 15; step++ {
		batch := rng.Intn(25) + 1
		vs := rng.Perm(vars)[:batch]
		meshOps := make([]core.Op, batch)
		mpcOps := make([]mpc.Op, batch)
		expect := make([]core.Word, batch)
		for i, v := range vs {
			w := rng.Intn(2) == 0
			val := core.Word(rng.Intn(1 << 16))
			meshOps[i] = core.Op{Origin: rng.Intn(meshSim.Mesh().N), Var: v, IsWrite: w, Value: val}
			mpcOps[i] = mpc.Op{Origin: rng.Intn(mpcSim.N), Var: v, IsWrite: w, Value: val}
			if w {
				expect[i] = val
			} else {
				expect[i] = ideal[v]
			}
		}
		meshRes, _ := meshSim.Step(meshOps)
		mpcRes, _ := mpcSim.Step(mpcOps)
		for i := range vs {
			if meshRes[i] != expect[i] {
				t.Fatalf("mesh diverged at step %d op %d", step, i)
			}
			if mpcRes[i] != expect[i] {
				t.Fatalf("mpc diverged at step %d op %d", step, i)
			}
			if meshOps[i].IsWrite {
				ideal[meshOps[i].Var] = meshOps[i].Value
			}
		}
	}
}

// Workload generators must be directly usable with the simulator.
func TestIntegrationWorkloadsRun(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 4, K: 1}, core.Config{})
	n := sim.Mesh().N
	vars := sim.Scheme().Vars()
	tp, err := workload.Transpose(vars, 9)
	if err != nil {
		t.Fatal(err)
	}
	br, err := workload.BitReverse(vars, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range []workload.Vars{
		workload.RandomDistinct(vars, n, 5),
		workload.Stride(vars, n, 13),
		tp, br,
		workload.ModuleHot(sim.Scheme(), 1, n),
	} {
		_, st := sim.Step(vs.Mixed(3))
		if st.Total() <= 0 {
			t.Fatal("free step")
		}
	}
}
