package pram_test

import (
	"fmt"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

// ExampleRun executes the recursive-doubling prefix-sum program on the
// ideal PRAM and reads back the total.
func ExampleRun() {
	sc := sim.DefaultScenario()
	sc.Backend, sc.Size, sc.IdealMemory = sim.BackendIdeal, 8, 16
	cfg, err := sim.FromScenario(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	b, err := pram.NewBackend(pram.BackendIdeal, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	in := []pram.Word{1, 2, 3, 4, 5, 6, 7, 8}
	steps, err := pram.Run(&pram.PrefixSum{In: in}, b)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, _ := b.ExecStep([]pram.Op{{Kind: pram.Read, Addr: 7}})
	fmt.Println("PRAM steps:", steps)
	fmt.Println("prefix total:", res[0])
	// Output:
	// PRAM steps: 7
	// prefix total: 36
}

// ExampleNewBackend runs the same program through the paper's mesh
// simulation: identical results, mesh-step cost reported.
func ExampleNewBackend() {
	cfg, err := sim.FromScenario(sim.DefaultScenario()) // 9×9 mesh, q = 3, d = 3, k = 2
	if err != nil {
		fmt.Println(err)
		return
	}
	mb, err := pram.NewBackend(pram.BackendMesh, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	in := []pram.Word{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := pram.Run(&pram.PrefixSum{In: in}, mb); err != nil {
		fmt.Println(err)
		return
	}
	res, _ := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: 7}})
	fmt.Println("prefix total:", res[0])
	fmt.Println("simulation was charged mesh steps:", mb.Steps() > 0)
	// Output:
	// prefix total: 36
	// simulation was charged mesh steps: true
}
