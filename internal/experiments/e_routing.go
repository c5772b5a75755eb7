package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/stats"
)

// rpkt is the routing experiment packet.
type rpkt struct {
	dest int
	id   int32
}

// makeL1L2 builds an (l1,l2)-routing instance: every processor sends l1
// packets; destinations are drawn so no processor receives more than
// l2, biased to saturate the l2 cap on a subset of receivers.
func makeL1L2(m *mesh.Machine, l1, l2 int, rng *rand.Rand) [][]rpkt {
	items := make([][]rpkt, m.N)
	recv := make([]int, m.N)
	// Heavy receivers: the first n·l1/l2 processors take l2 each.
	heavy := m.N * l1 / l2
	if heavy < 1 {
		heavy = 1
	}
	var id int32
	for p := 0; p < m.N; p++ {
		for j := 0; j < l1; j++ {
			d := rng.Intn(heavy)
			for recv[d] >= l2 {
				d = rng.Intn(m.N)
			}
			recv[d]++
			items[p] = append(items[p], rpkt{dest: d, id: id})
			id++
		}
	}
	return items
}

// RunE5 measures general (l1,l2)-routing against the Theorem 2
// envelope √(l1·l2·n) + O(l1·√n).
func RunE5(w io.Writer, cfg Config) error {
	sides := []int{16, 32}
	if cfg.Big {
		sides = append(sides, 64)
	}
	combos := []struct{ l1, l2 int }{
		{1, 1}, {1, 4}, {1, 16}, {2, 8}, {4, 4}, {1, 64}, {4, 16},
	}
	var tb stats.Table
	tb.Add("n", "l1", "l2", "measured steps", "sqrt(l1*l2*n)", "ratio")
	for _, side := range sides {
		m := mesh.MustNew(side)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, c := range combos {
			if c.l2 > m.N {
				continue
			}
			items := makeL1L2(m, c.l1, c.l2, rng)
			_, cost := route.RouteL1L2(m, m.Full(), items, func(p rpkt) int { return p.dest })
			envelope := sqrtf(float64(c.l1) * float64(c.l2) * float64(m.N))
			tb.Add(m.N, c.l1, c.l2, cost.Total(), int64(envelope), float64(cost.Total())/envelope)
		}
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  Ratios should sit in a bounded band across the sweep: the measured")
	fmt.Fprintln(w, "  time scales with sqrt(l1*l2*n) plus the O(l1*sqrt(n) log n) sort term.")
	return nil
}

// makeSubmeshBounded builds an (l1,l2,δ,m)-instance on the given
// tessellation: every submesh receives exactly δ·msub packets but all
// of them target `hotPerSub` processors inside it, so l2 = δ·msub /
// hotPerSub is large while δ stays small.
func makeSubmeshBounded(m *mesh.Machine, parts, q int, delta, hotPerSub int, rng *rand.Rand) [][]rpkt {
	subs, err := m.Full().SplitQ(q, parts)
	if err != nil {
		panic(err)
	}
	items := make([][]rpkt, m.N)
	var id int32
	for _, sub := range subs {
		load := delta * sub.Size()
		for j := 0; j < load; j++ {
			src := rng.Intn(m.N)
			dst := sub.ProcAtSnake(m, j%hotPerSub)
			items[src] = append(items[src], rpkt{dest: dst, id: id})
			id++
		}
	}
	return items
}

// RunE6 compares the staged (l1,l2,δ,m)-routing of §2 against direct
// sorted-greedy routing on submesh-bounded instances, locating the
// crossover; figure F3 plots the two costs as receiver skew grows.
func RunE6(w io.Writer, cfg Config) error {
	side := 27
	q, parts := 3, 27
	m := mesh.MustNew(side)
	delta := 6
	var tb stats.Table
	tb.Add("hot/submesh", "l2", "greedy only", "direct sort+route", "(route part)", "staged total", "(route part)", "staged/direct route")
	var fx, fg, fd, fs []float64
	for _, hot := range []int{1, 2, 4, 9, 27} {
		mk := func() [][]rpkt {
			rng := rand.New(rand.NewSource(cfg.Seed))
			return makeSubmeshBounded(m, parts, q, delta, hot, rng)
		}
		_, greedyOnly := route.NewEngine[rpkt](m).Route(nil, route.Whole(m, false), mk(), func(p rpkt) int { return p.dest })
		_, dc := route.RouteL1L2(m, m.Full(), mk(), func(p rpkt) int { return p.dest })
		_, sc := route.RouteStaged(m, m.Full(), q, parts, mk(), func(p rpkt) int { return p.dest })
		dRoute := dc.Coarse + dc.Fine
		sRoute := sc.Coarse + sc.Fine
		l2 := delta * (m.N / parts) / hot
		tb.Add(hot, l2, greedyOnly, dc.Total(), dRoute, sc.Total(), sRoute,
			float64(sRoute)/float64(dRoute))
		fx = append(fx, float64(l2))
		fg = append(fg, float64(greedyOnly))
		fd = append(fd, float64(dRoute))
		fs = append(fs, float64(sRoute))
	}
	tb.Render(w)
	fmt.Fprintln(w, "\n  §2's condition: the staged route phase wins when l1, δ ∈ o(l2) — the")
	fmt.Fprintln(w, "  skewed (large l2) end — and loses its edge as l2 → δ. The shared sort")
	fmt.Fprintln(w, "  term is identical in both algorithms and shown only for scale.")
	fmt.Fprintln(w, "\n  F3: routing steps vs per-receiver load l2")
	stats.Plot(w, 55, 12,
		stats.Series{Name: "greedy only", X: fx, Y: fg},
		stats.Series{Name: "direct route", X: fx, Y: fd},
		stats.Series{Name: "staged route", X: fx, Y: fs})
	return nil
}
