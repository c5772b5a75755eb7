// Parallel sorting on the simulated PRAM.
//
// Odd-even transposition sort — the textbook O(n)-round PRAM sorting
// network — runs on the mesh simulation. Every round alternates
// exclusive reads and conditional compare-exchange writes, a
// write-heavy access pattern that exercises the full write path of the
// simulation (all-copy target sets, timestamps, return routing).
//
// Run with: go run ./examples/sorting
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

func main() {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	in := make([]pram.Word, n)
	for i := range in {
		in[i] = pram.Word(rng.Intn(1000))
	}
	want := append([]pram.Word(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	scfg, err := sim.FromScenario(sim.DefaultScenario()) // 9×9 mesh, q = 3, d = 3, k = 2
	if err != nil {
		log.Fatal(err)
	}
	mb, err := pram.NewBackend(pram.BackendMesh, scfg)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := pram.Run(&pram.OddEvenSort{In: in}, mb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("odd-even transposition sort of %d keys: %d PRAM steps (2n+1 = %d)\n",
		n, steps, 2*n+1)
	fmt.Printf("mesh cost: %d steps on an 81-processor mesh\n", mb.Steps())

	for i, w := range want {
		res, err := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: i}})
		if err != nil {
			log.Fatal(err)
		}
		if res[0] != w {
			log.Fatalf("sorted[%d] = %d, want %d", i, res[0], w)
		}
	}
	fmt.Println("verified: output ascending and a permutation of the input")
}
