// List ranking with concurrent reads.
//
// Pointer jumping makes many processors read the same rank cell in the
// same step — a CRCW access pattern. The mesh backend combines
// concurrent requests at the source (one representative request per
// variable, results fanned out), so the paper's distinct-variables
// protocol serves the step; this example exercises that machinery on a
// 60-node linked list.
//
// Run with: go run ./examples/listranking
package main

import (
	"fmt"
	"log"
	"math/rand"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

func main() {
	const n = 50
	rng := rand.New(rand.NewSource(7))

	// Build a random list over nodes 0..n-1: order[0] -> order[1] -> ...
	order := rng.Perm(n)
	next := make([]int, n)
	for i := 0; i+1 < n; i++ {
		next[order[i]] = order[i+1]
	}
	terminal := order[n-1]
	next[terminal] = terminal

	prog := &pram.ListRank{Succ: next, NextBase: 0, RankBase: n}
	scfg, err := sim.FromScenario(sim.DefaultScenario()) // 9×9 mesh, q = 3, d = 3, k = 2
	if err != nil {
		log.Fatal(err)
	}
	mb, err := pram.NewBackend(pram.BackendMesh, scfg)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := pram.Run(prog, mb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pointer jumping: %d PRAM steps (≈5·log2(n) + init) on %d nodes\n", steps, n)
	fmt.Printf("mesh cost:       %d steps on an 81-processor mesh\n", mb.Steps())

	// Verify against a sequential walk.
	for i := 0; i < n; i++ {
		d, j := 0, i
		for next[j] != j {
			j = next[j]
			d++
		}
		res, err := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: n + i}})
		if err != nil {
			log.Fatal(err)
		}
		if res[0] != pram.Word(d) {
			log.Fatalf("rank[%d] = %d, want %d", i, res[0], d)
		}
	}
	fmt.Printf("verified:        all %d ranks correct (head %d has rank %d)\n",
		n, order[0], n-1)
}
