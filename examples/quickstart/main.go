// Quickstart: simulate one PRAM step on a mesh-connected computer.
//
// This example builds the paper's simulation for an 81-processor mesh
// (9×9) with a shared memory of 117 variables organized by a 2-level
// HMOS with q = 3 (so every variable has 9 copies and any access
// touches a minimal target set of 4 of them), performs a full batch of
// writes followed by a batch of reads, and prints where the machine
// spent its steps.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/sim"
)

func main() {
	sc := sim.DefaultScenario()
	sc.Side = 9 // 9×9 mesh, n = 81 processors
	sc.Q = 3    // each module replicated into q = 3 copies per level
	sc.D = 3    // shared memory M = f(3,3) = 117 variables
	sc.K = 2    // two levels of logical modules
	scfg, err := sim.FromScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	simulator, err := scfg.NewSimulator()
	if err != nil {
		log.Fatal(err)
	}
	params := scfg.Params
	s := simulator.Scheme()
	fmt.Printf("mesh: %d processors; memory: %d variables (alpha = %.2f)\n",
		simulator.Mesh().N, s.Vars(), s.Alpha())
	fmt.Printf("redundancy: %d copies/variable, %d accessed per operation\n\n",
		s.CopiesPerVar(), hmos.MinTargetSetSize(params.Q, params.K, params.K))

	// One PRAM step: every processor writes a distinct variable.
	n := simulator.Mesh().N
	writes := make([]core.Op, n)
	for i := range writes {
		writes[i] = core.Op{Origin: i, Var: i, IsWrite: true, Value: core.Word(i * i)}
	}
	_, wst := simulator.Step(writes)
	fmt.Printf("write step: %d packets in %d mesh steps\n", wst.Packets, wst.Total())
	fmt.Printf("  culling %d | sort %d | rank %d | route %d | access %d | return %d\n\n",
		wst.Culling, wst.Sort, wst.Rank, wst.Forward, wst.Access, wst.Return)

	// Another PRAM step: every processor reads its neighbor's variable.
	reads := make([]core.Op, n)
	for i := range reads {
		reads[i] = core.Op{Origin: i, Var: (i + 1) % n}
	}
	vals, rst := simulator.Step(reads)
	fmt.Printf("read step: %d mesh steps; spot check: var 8 = %d (want 64)\n",
		rst.Total(), vals[7])
	if vals[7] != 64 {
		log.Fatal("consistency violated!")
	}

	// Theorem 3 diagnostics: page congestion vs the culling bound.
	for lvl := 1; lvl <= params.K; lvl++ {
		fmt.Printf("level-%d pages: max load %d (Theorem 3 bound %d)\n",
			lvl, rst.PageLoadMax[lvl], rst.PageLoadBound[lvl])
	}
	fmt.Printf("\ntotal mesh steps this session: %d (the PRAM did 2 steps)\n", simulator.Mesh().Steps())
}
