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
	benchRoute(b, m, route.Whole(m, false), makeRouteInstance(kind, m, 1), fmt.Sprintf("%s-%d", kind, side))
}

// benchRoute routes the instance dests over tiling t once per
// iteration on one engine.
func benchRoute(b *testing.B, m *mesh.Machine, t route.Tiles, dests [][]int, label string) {
	items := make([][]int, m.N)
	dst := make([][]int, m.N)
	ident := func(d int) int { return d }
	eng := route.NewEngine[int](m)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		for p := range items {
			items[p] = append(items[p][:0], dests[p]...)
		}
		_, steps = eng.Route(dst, t, items, ident)
		for p := range dst {
			dst[p] = dst[p][:0]
		}
	}
	b.StopTimer()
	// CI smoke gate: the healthy path may skip cycles but never invent
	// them — executed iterations are bounded by charged cycles on every
	// workload.
	if exec := eng.Executed(); exec > steps {
		b.Fatalf("%s: executed %d > charged %d cycles", label, exec, steps)
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

// BenchmarkGreedyRouteCrowded3x9 routes the 243 3×9 level-2 pages of a
// side-81, d = 7 machine in one tiled call at the load of protocol
// stage 2: every processor sends 4 packets to uniform random nodes of
// its own page. These lines are short and crowded, so a packet waits at
// almost every link.
func BenchmarkGreedyRouteCrowded3x9(b *testing.B) {
	m := mesh.MustNew(81)
	pages := route.Tiles{N: 243, At: func(i int) mesh.Region {
		return mesh.Region{R0: i / 9 * 3, C0: i % 9 * 9, H: 3, W: 9}
	}}
	rng := rand.New(rand.NewSource(1))
	dests := make([][]int, m.N)
	for i := 0; i < pages.N; i++ {
		r := pages.At(i)
		for row := r.R0; row < r.R0+r.H; row++ {
			for col := r.C0; col < r.C0+r.W; col++ {
				p := m.IDOf(row, col)
				for j := 0; j < 4; j++ {
					dests[p] = append(dests[p], m.IDOf(r.R0+rng.Intn(r.H), r.C0+rng.Intn(r.W)))
				}
			}
		}
	}
	benchRoute(b, m, pages, dests, "crowded3x9")
}
