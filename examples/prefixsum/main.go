// Prefix sums on a simulated PRAM.
//
// The classic O(log n) PRAM prefix-sum algorithm (recursive doubling)
// runs unchanged on two backends: the ideal PRAM it was designed for,
// and the paper's deterministic mesh simulation. The example verifies
// both produce the same result and reports the measured slowdown —
// the quantity Theorem 1 bounds.
//
// Run with: go run ./examples/prefixsum
package main

import (
	"fmt"
	"log"
	"math/rand"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	in := make([]pram.Word, 81)
	for i := range in {
		in[i] = pram.Word(rng.Intn(1000))
	}

	// Reference result.
	want := make([]pram.Word, len(in))
	var run pram.Word
	for i, v := range in {
		run += v
		want[i] = run
	}

	// Ideal PRAM.
	sc := sim.DefaultScenario() // 9×9 mesh, q = 3, d = 3, k = 2
	sc.IdealMemory = 256
	scfg, err := sim.FromScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	ideal, err := pram.NewBackend(pram.BackendIdeal, scfg)
	if err != nil {
		log.Fatal(err)
	}
	idealPRAMSteps, err := pram.Run(&pram.PrefixSum{In: in}, ideal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ideal PRAM: %d steps for %d elements (2·log2(n)+1 doubling rounds)\n",
		idealPRAMSteps, len(in))

	// Mesh simulation: 81 processors, memory f(3,3)=117 ≥ 81 cells.
	mb, err := pram.NewBackend(pram.BackendMesh, scfg)
	if err != nil {
		log.Fatal(err)
	}
	meshPRAMSteps, err := pram.Run(&pram.PrefixSum{In: in}, mb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh:       same %d PRAM steps executed in %d mesh steps\n",
		meshPRAMSteps, mb.Steps())
	fmt.Printf("slowdown:   %.0f mesh steps per PRAM step\n",
		float64(mb.Steps())/float64(meshPRAMSteps))

	// Verify every output cell through the simulated memory.
	for i, w := range want {
		res, err := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: i}})
		if err != nil {
			log.Fatal(err)
		}
		if res[0] != w {
			log.Fatalf("prefix[%d] = %d, want %d", i, res[0], w)
		}
	}
	fmt.Printf("verified:   all %d prefix sums match the sequential reference\n", len(want))
}
