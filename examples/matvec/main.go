// Dense matrix–vector product on the simulated PRAM.
//
// One processor per matrix row; each column iteration reads one matrix
// entry (exclusive) and the vector entry (concurrent — combined by the
// backend). The memory footprint (A, x and y) exercises a larger HMOS
// instance: a 27×27 mesh with M = 1080 variables.
//
// Run with: go run ./examples/matvec
package main

import (
	"fmt"
	"log"
	"math/rand"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

func main() {
	const r, c = 24, 24
	rng := rand.New(rand.NewSource(3))
	A := make([][]pram.Word, r)
	for i := range A {
		A[i] = make([]pram.Word, c)
		for j := range A[i] {
			A[i][j] = pram.Word(rng.Intn(9) - 4)
		}
	}
	x := make([]pram.Word, c)
	for j := range x {
		x[j] = pram.Word(rng.Intn(9) - 4)
	}

	prog := &pram.MatVec{A: A, X: x, ABase: 0, XBase: r * c, YBase: r*c + c}
	if err := prog.Validate(); err != nil {
		log.Fatal(err)
	}

	// M = f(3,4) = 1080 ≥ r·c + c + r = 624 cells.
	sc := sim.DefaultScenario()
	sc.Side, sc.D = 27, 4
	scfg, err := sim.FromScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	b, err := pram.NewBackend(pram.BackendMesh, scfg)
	if err != nil {
		log.Fatal(err)
	}
	mb := b.(*pram.Mesh)
	steps, err := pram.Run(prog, mb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matvec %dx%d: %d PRAM steps on a %d-processor mesh (%d mesh steps)\n",
		r, c, steps, mb.Sim.Mesh().N, mb.Steps())

	// Verify y against the sequential product.
	for i := 0; i < r; i++ {
		var want pram.Word
		for j := 0; j < c; j++ {
			want += A[i][j] * x[j]
		}
		res, err := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: r*c + c + i}})
		if err != nil {
			log.Fatal(err)
		}
		if res[0] != want {
			log.Fatalf("y[%d] = %d, want %d", i, res[0], want)
		}
	}
	fmt.Println("verified: y = A·x matches the sequential reference")
}
