package route_test

import (
	"fmt"
	"math/rand"
	"testing"

	"meshpram/internal/mesh"
	"meshpram/internal/route"
)

// Benchmark instances for the greedy router. Payload = destination id,
// so the dest extractor is the identity and the measurement isolates
// the router itself.
//
//   - dense: every processor injects 4 packets to uniform random
//     destinations — the shape of a protocol-stage routing.
//   - transpose: processor (r,c) sends one packet to (c,r) — the
//     classic adversarial permutation for dimension-ordered routing.
//   - sparse: one in 16 processors injects a single packet — the shape
//     of a repair scrub or a lightly loaded submesh stage, where sweep
//     cost over empty nodes dominates the naive router.
func makeRouteInstance(kind string, m *mesh.Machine, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	dests := make([][]int, m.N)
	switch kind {
	case "dense":
		for p := 0; p < m.N; p++ {
			for j := 0; j < 4; j++ {
				dests[p] = append(dests[p], rng.Intn(m.N))
			}
		}
	case "transpose":
		for p := 0; p < m.N; p++ {
			dests[p] = append(dests[p], m.IDOf(m.ColOf(p), m.RowOf(p)))
		}
	case "sparse":
		for p := 0; p < m.N; p += 16 {
			dests[p] = append(dests[p], rng.Intn(m.N))
		}
	default:
		panic("unknown instance kind " + kind)
	}
	return dests
}

// benchGreedyRoute measures the hot-loop idiom: a persistent router
// reused across calls, items rebuilt from the instance each iteration,
// delivery buffers truncated and reused.
func benchGreedyRoute(b *testing.B, side int, kind string) {
	m := mesh.MustNew(side)
	dests := makeRouteInstance(kind, m, 1)
	items := make([][]int, m.N)
	dst := make([][]int, m.N)
	ident := func(d int) int { return d }
	eng := route.NewEngine[int](m)
	full := route.Whole(m, false)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		for p := range items {
			items[p] = append(items[p][:0], dests[p]...)
		}
		_, steps = eng.Route(dst, full, items, ident)
		for p := range dst {
			dst[p] = dst[p][:0]
		}
	}
	b.StopTimer()
	// CI smoke gate: the healthy path may skip cycles but never invent
	// them — executed iterations are bounded by charged cycles on every
	// workload.
	if exec := eng.Executed(); exec > steps {
		b.Fatalf("%s-%d: executed %d > charged %d cycles", kind, side, exec, steps)
	}
}

func benchSides(b *testing.B, kind string) {
	for _, side := range []int{27, 81} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			benchGreedyRoute(b, side, kind)
		})
	}
}

func BenchmarkGreedyRouteDense(b *testing.B)     { benchSides(b, "dense") }
func BenchmarkGreedyRouteTranspose(b *testing.B) { benchSides(b, "transpose") }
func BenchmarkGreedyRouteSparse(b *testing.B)    { benchSides(b, "sparse") }
