package route

import (
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/mesh"
)

func TestTorusDist(t *testing.T) {
	m := mesh.MustNew(8)
	cases := []struct {
		a, b, want int
	}{
		{m.IDOf(0, 0), m.IDOf(0, 7), 1},  // wrap column
		{m.IDOf(0, 0), m.IDOf(7, 0), 1},  // wrap row
		{m.IDOf(0, 0), m.IDOf(4, 4), 8},  // antipodal: 4+4 either way
		{m.IDOf(0, 0), m.IDOf(0, 3), 3},  // no wrap shorter
		{m.IDOf(2, 2), m.IDOf(2, 2), 0},  // self
		{m.IDOf(1, 1), m.IDOf(6, 6), 10}, // 5+5 wrap? fwd 5 back 3 → 3+3=6
	}
	cases[5].want = 6
	for _, c := range cases {
		if got := hopDist(m, c.a, c.b, true); got != c.want {
			t.Errorf("torus dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		// Torus distance never exceeds mesh distance.
		if hopDist(m, c.a, c.b, true) > hopDist(m, c.a, c.b, false) {
			t.Errorf("torus dist exceeds mesh dist for (%d,%d)", c.a, c.b)
		}
	}
}

// Following nextDir hops on the torus from any source must reach the
// destination in exactly hopDist steps.
func TestTorusNextConvergesAlongShortestPath(t *testing.T) {
	m := mesh.MustNew(6)
	e := NewEngine[int](m)
	dist := func(p, q int) int { return hopDist(m, p, q, true) }
	for a := 0; a < m.N; a++ {
		for b := 0; b < m.N; b++ {
			p := a
			steps := 0
			for p != b {
				to, ok := e.stepBounded(p, int(nextDir(m, p, b, true)), m.Full(), true)
				if !ok || m.Dist(p, to) != 1 && !isWrapNeighbor(m, p, to) {
					t.Fatalf("next(%d,%d) jumped from %d to non-neighbor %d", a, b, p, to)
				}
				if dist(to, b) != dist(p, b)-1 {
					t.Fatalf("next(%d→%d) at %d did not reduce distance", a, b, p)
				}
				p = to
				steps++
				if steps > 2*m.Side {
					t.Fatalf("path %d→%d did not converge", a, b)
				}
			}
			if steps != dist(a, b) {
				t.Fatalf("path %d→%d took %d hops, dist says %d", a, b, steps, dist(a, b))
			}
		}
	}
}

func isWrapNeighbor(m *mesh.Machine, p, q int) bool {
	pr, pc := m.RowOf(p), m.ColOf(p)
	qr, qc := m.RowOf(q), m.ColOf(q)
	s := m.Side
	sameRow := pr == qr && (pc == 0 && qc == s-1 || pc == s-1 && qc == 0)
	sameCol := pc == qc && (pr == 0 && qr == s-1 || pr == s-1 && qr == 0)
	return sameRow || sameCol
}

func TestGreedyRouteTorusDelivers(t *testing.T) {
	m := mesh.MustNew(8)
	rng := rand.New(rand.NewSource(19))
	items := make([][]item, m.N)
	want := map[int]int{}
	for p := 0; p < m.N; p++ {
		for j := 0; j < 2; j++ {
			d := rng.Intn(m.N)
			items[p] = append(items[p], item{dest: d, id: p*2 + j})
			want[d]++
		}
	}
	delivered, steps := NewEngine[item](m).Route(nil, Whole(m, true), items, func(v item) int { return v.dest })
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != want[p] {
			t.Fatalf("proc %d received %d, want %d", p, len(delivered[p]), want[p])
		}
	}
	if steps <= 0 {
		t.Fatal("zero steps for nontrivial routing")
	}
}

// The torus must beat the mesh on corner-to-corner traffic (diameter
// halves per axis).
func TestTorusBeatsMeshOnLongHaul(t *testing.T) {
	m := mesh.MustNew(16)
	mk := func() [][]item {
		items := make([][]item, m.N)
		// Shift by 12 per axis: mesh distance 12+12, torus distance 4+4
		// (the wrap way is shorter).
		for p := 0; p < m.N; p++ {
			r := (m.RowOf(p) + 12) % 16
			c := (m.ColOf(p) + 12) % 16
			items[p] = append(items[p], item{dest: m.IDOf(r, c), id: p})
		}
		return items
	}
	_, meshSteps := greedyRoute(m, m.Full(), mk(), func(v item) int { return v.dest })
	_, torusSteps := NewEngine[item](m).Route(nil, Whole(m, true), mk(), func(v item) int { return v.dest })
	if torusSteps >= meshSteps {
		t.Fatalf("torus (%d) not faster than mesh (%d) on antipodal traffic", torusSteps, meshSteps)
	}
}

// TestTorusRingPriorityCycle routes the ring counterexample of DESIGN.md
// §17 on row 0 of a side-9 torus: four packets each for A 0→4, B 3→7
// and C 6→1, every hop +col. At column 3 B outranks A, at 6 C outranks
// B and at 0 A outranks C, so no order of the packets is the order sweep
// applies at every node. Placing them one at a time by the mesh lines'
// key (remaining distance + start column, unwrapped), each link at its
// first free cycle, charges 11 cycles where the cycle loop charges 8.
// That is why the line solver refuses wrap tilings (linesSafe) and the
// torus runs on the cycle loop: the healthy torus entry point must
// match the forced loop.
func TestTorusRingPriorityCycle(t *testing.T) {
	const side, copies = 9, 4
	m := mesh.MustNew(side)
	legs := [][2]int{{0, 4}, {3, 7}, {6, 1}} // (start, destination) column
	items := make([][]item, m.N)
	for i, leg := range legs {
		for j := 0; j < copies; j++ {
			items[leg[0]] = append(items[leg[0]], item{dest: leg[1], id: copies*i + j})
		}
	}
	dest := func(v item) int { return v.dest }
	want, wantS, lost := routeTorusFault(cycleEngine(m), nil, cloneItems(items), dest)
	got, gotS := NewEngine[item](m).Route(nil, Whole(m, true), items, dest)
	if lost != 0 || gotS != wantS || !reflect.DeepEqual(got, want) {
		t.Fatalf("torus line path charged %d cycles, cycle loop %d (lost %d); deliveries equal: %v",
			gotS, wantS, lost, reflect.DeepEqual(got, want))
	}
	// The static placement: legs in key order C, B, A (every leg is 4
	// hops, so the key is start + 4), copies in slot order.
	taken := map[[2]int]bool{} // (link, cycle)
	var static int
	for i := len(legs) - 1; i >= 0; i-- {
		for j := 0; j < copies; j++ {
			c := 0
			for x := legs[i][0]; x != legs[i][1]; x = (x + 1) % side {
				c++
				for taken[[2]int{x, c}] {
					c++
				}
				taken[[2]int{x, c}] = true
			}
			static = max(static, c)
		}
	}
	if wantS != 8 || static != 11 {
		t.Fatalf("cycle loop charged %d cycles (want 8), static order %d (want 11): the instance no longer shows a priority cycle", wantS, static)
	}
}
