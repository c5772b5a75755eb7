package route

import (
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/mesh"
)

// cloneItems deep-copies a per-processor item scatter so the same
// workload can be routed twice.
func cloneItems(items [][]item) [][]item {
	out := make([][]item, len(items))
	for p := range items {
		out[p] = append([]item(nil), items[p]...)
	}
	return out
}

// greedyRoute routes items inside region r through a fresh engine's
// healthy entry point.
func greedyRoute[T any](m *mesh.Machine, r mesh.Region, items [][]T, dest func(T) int) ([][]T, int64) {
	return NewEngine[T](m).Route(nil, Tile(r), items, dest)
}

// routeFault routes items over the whole of m through a fresh engine's
// fault-aware entry point.
func routeFault(m *mesh.Machine, items [][]item, dest func(item) int) (delivered [][]item, steps int64, lost int) {
	return NewEngine[item](m).RouteFault(nil, Whole(m, false), items, dest)
}

// TestFaultRouterEmptyMapIdentity pins the rate-0 guarantee at the
// router level: with a non-nil empty fault map, the fault-aware cycle
// loop (forced, since an empty map would take the line solver) must
// make bit-identical decisions to the healthy router — same delivered
// multisets per processor (in order) and the same cycle count, on both
// the mesh and the torus.
func TestFaultRouterEmptyMapIdentity(t *testing.T) {
	m1, m2 := mesh.MustNew(6), mesh.MustNew(6)
	m2.SetFaults(fault.NewMap(6))
	rng := rand.New(rand.NewSource(5))
	for _, r := range []mesh.Region{m1.Full(), {R0: 1, C0: 1, H: 4, W: 3}} {
		for trial := 0; trial < 8; trial++ {
			items := scatterItems(m1, r, 60, rng)
			healthy, hSteps := greedyRoute(m1, r, cloneItems(items), func(v item) int { return v.dest })
			faulty, fSteps, lost := cycleEngine(m2).RouteFault(nil, Tile(r), cloneItems(items), func(v item) int { return v.dest })
			if lost != 0 {
				t.Fatalf("region %v: empty map lost %d packets", r, lost)
			}
			if hSteps != fSteps {
				t.Fatalf("region %v: healthy %d cycles, fault path %d", r, hSteps, fSteps)
			}
			if !reflect.DeepEqual(healthy, faulty) {
				t.Fatalf("region %v: delivery order diverged on empty fault map", r)
			}
		}
	}
	// Torus flavor.
	items := scatterItems(m1, m1.Full(), 80, rng)
	healthy, hSteps := NewEngine[item](m1).Route(nil, Whole(m1, true), cloneItems(items), func(v item) int { return v.dest })
	faulty, fSteps, lost := routeTorusFault(cycleEngine(m2), nil, cloneItems(items), func(v item) int { return v.dest })
	if lost != 0 || hSteps != fSteps || !reflect.DeepEqual(healthy, faulty) {
		t.Fatalf("torus: empty-map identity broken (lost=%d, %d vs %d cycles)", lost, hSteps, fSteps)
	}
}

// TestFaultRouterDetour kills a link on the preferred dimension-ordered
// path and checks the packet still arrives (no loss), with the extra
// cycles charged. Without backtrack demotion this exact cut livelocks:
// the blocked packet's best detour undoes its last hop and it ping-pongs
// until the budget drops it.
func TestFaultRouterDetour(t *testing.T) {
	m := mesh.MustNew(5)
	f := fault.NewMap(5)
	// The packet 0→4 prefers the top row; sever it at 1-2.
	f.KillLink(1, 2)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 4, id: 1}}
	delivered, steps, lost := routeFault(m, items, func(v item) int { return v.dest })
	if lost != 0 {
		t.Fatalf("lost %d packets around a detourable cut", lost)
	}
	if len(delivered[4]) != 1 || delivered[4][0].id != 1 {
		t.Fatalf("packet not delivered: %v", delivered[4])
	}
	if steps < 5 {
		t.Errorf("detour charged %d cycles, want ≥ 5 (healthy distance is 4)", steps)
	}
}

// TestFaultRouterDoubleCutDrops documents the limitation of local greedy
// detouring: with the top row severed twice (1-2 and 6-7) the packet
// 0→4 would have to plan around both cuts at once, which a one-hop
// lookahead cannot do. The requirement is bounded failure — the packet
// is dropped and counted once the retry budget runs out, not routed
// forever.
func TestFaultRouterDoubleCutDrops(t *testing.T) {
	m := mesh.MustNew(5)
	f := fault.NewMap(5)
	f.KillLink(1, 2)
	f.KillLink(6, 7)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 4, id: 1}}
	delivered, steps, lost := routeFault(m, items, func(v item) int { return v.dest })
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (double cut defeats local detouring)", lost)
	}
	if len(delivered[4]) != 0 {
		t.Errorf("unexpected delivery through a double cut: %v", delivered[4])
	}
	if budget := int64(16*(5+5) + 4*1); steps > budget {
		t.Errorf("dropped after %d cycles, budget is %d — retry not bounded", steps, budget)
	}
}

// TestFaultRouterDeadDestination: packets to dead nodes are lost at
// injection, everything else still flows.
func TestFaultRouterDeadDestination(t *testing.T) {
	m := mesh.MustNew(4)
	f := fault.NewMap(4)
	f.KillNode(15)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 15, id: 1}, {dest: 5, id: 2}}
	delivered, _, lost := routeFault(m, items, func(v item) int { return v.dest })
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (the dead-destination packet)", lost)
	}
	if len(delivered[5]) != 1 || delivered[5][0].id != 2 {
		t.Errorf("live packet not delivered: %v", delivered[5])
	}
}

// TestFaultRouterSlowLink: a slow link stretches the cycle count but
// loses nothing.
func TestFaultRouterSlowLink(t *testing.T) {
	m := mesh.MustNew(4)
	healthyItems := func() [][]item {
		items := make([][]item, m.N)
		items[0] = []item{{dest: 3, id: 1}}
		return items
	}
	_, base, lost0 := routeFault(m, healthyItems(), func(v item) int { return v.dest })
	if lost0 != 0 {
		t.Fatal("healthy run lost packets")
	}
	f := fault.NewMap(4)
	f.SlowLink(1, 2, 4)
	m.SetFaults(f)
	delivered, slow, lost := routeFault(m, healthyItems(), func(v item) int { return v.dest })
	m.SetFaults(nil)
	if lost != 0 || len(delivered[3]) != 1 {
		t.Fatalf("slow link lost the packet (lost=%d)", lost)
	}
	if slow <= base {
		t.Errorf("slow-link route took %d cycles, healthy %d — no slowdown charged", slow, base)
	}
}

// TestFaultRouterWalledIn: a node with every link dead cannot be
// reached; its packets are dropped once the budget or the idle break
// triggers, not spun forever.
func TestFaultRouterWalledIn(t *testing.T) {
	m := mesh.MustNew(4)
	f := fault.NewMap(4)
	// Isolate processor 5 (links to 1, 4, 6, 9) without killing it.
	f.KillLink(5, 1)
	f.KillLink(5, 4)
	f.KillLink(5, 6)
	f.KillLink(5, 9)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 5, id: 1}, {dest: 10, id: 2}}
	delivered, _, lost := routeFault(m, items, func(v item) int { return v.dest })
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (the walled-in destination)", lost)
	}
	if len(delivered[10]) != 1 {
		t.Errorf("reachable packet not delivered")
	}
}

// TestFaultRouterDeadVerticalLink kills the one link (4,4)–(5,4) of an
// otherwise healthy side-9 machine and routes one packet per case
// across it. A packet detoured sideways off its vertical leg keeps
// moving vertically beside the dead link's column and turns onto its
// row at the destination row; turning straight back into that column
// would ping-pong it there until the retry budget drops it.
func TestFaultRouterDeadVerticalLink(t *testing.T) {
	const side = 9
	m := mesh.MustNew(side)
	at := m.IDOf
	dest := func(v item) int { return v.dest }
	for _, tc := range []struct {
		name            string
		torus           bool
		from, to        int
		healthy, detour int64
	}{
		{"mesh column", false, at(0, 4), at(8, 4), 8, 10},
		{"mesh turn into the column", false, at(0, 0), at(8, 4), 12, 14},
		{"torus column", true, at(2, 4), at(6, 4), 4, 6},
	} {
		items := func() [][]item {
			items := make([][]item, m.N)
			items[tc.from] = []item{{dest: tc.to, id: 1}}
			return items
		}
		run := func() ([][]item, int64, int) {
			if tc.torus {
				return routeTorusFault(NewEngine[item](m), nil, items(), dest)
			}
			return routeFault(m, items(), dest)
		}
		m.SetFaults(nil)
		_, healthy, _ := run()
		m.SetFaults(fault.NewMap(side).KillLink(at(4, 4), at(5, 4)))
		delivered, steps, lost := run()
		if lost != 0 || len(delivered[tc.to]) != 1 {
			t.Errorf("%s: lost %d, delivered %d packets", tc.name, lost, len(delivered[tc.to]))
		}
		if healthy != tc.healthy || steps != tc.detour {
			t.Errorf("%s: %d cycles around the dead link, %d healthy; want %d and %d",
				tc.name, steps, healthy, tc.detour, tc.healthy)
		}
	}
}

// FuzzOneDeadLink kills one link inside a random region of at least 2×2
// on a side-27 mesh, or anywhere on the side-27 torus, and routes 1–4
// packets per node of the region, each bound for a random node of it,
// on the fault path. One dead link never splits such a region, so no
// packet may be lost.
func FuzzOneDeadLink(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(8), uint8(8), uint16(40), true, false, uint8(0), int64(1))
	f.Add(uint8(3), uint8(5), uint8(0), uint8(20), uint16(7), false, false, uint8(3), int64(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(300), true, true, uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, r0, c0, h, w uint8, at uint16, vertical, torus bool, load uint8, seed int64) {
		const side = 27
		m := mesh.MustNew(side)
		r := m.Full()
		if !torus {
			r.H, r.W = 2+int(h)%(side-1), 2+int(w)%(side-1)
			r.R0, r.C0 = int(r0)%(side-r.H+1), int(c0)%(side-r.W+1)
		}
		// The dead link runs from a node of the region one hop +row or
		// +col; on the torus that hop may wrap.
		hr, hc := r.H, r.W
		if !torus {
			if vertical {
				hr--
			} else {
				hc--
			}
		}
		row, col := r.R0+int(at)%hr, r.C0+int(at)/hr%hc
		p, q := m.IDOf(row, col), m.IDOf(row, (col+1)%side)
		if vertical {
			q = m.IDOf((row+1)%side, col)
		}
		m.SetFaults(fault.NewMap(side).KillLink(p, q))
		rng := rand.New(rand.NewSource(seed))
		items := make([][]item, m.N)
		for row := r.R0; row < r.R0+r.H; row++ {
			for col := r.C0; col < r.C0+r.W; col++ {
				for j := 0; j <= int(load)%4; j++ {
					d := m.IDOf(r.R0+rng.Intn(r.H), r.C0+rng.Intn(r.W))
					items[m.IDOf(row, col)] = append(items[m.IDOf(row, col)], item{dest: d})
				}
			}
		}
		dest := func(v item) int { return v.dest }
		var lost int
		if torus {
			_, _, lost = routeTorusFault(NewEngine[item](m), nil, items, dest)
		} else {
			_, _, lost = NewEngine[item](m).RouteFault(nil, Tile(r), items, dest)
		}
		if lost != 0 {
			t.Fatalf("region %v, torus %v, dead link %d–%d: lost %d packets", r, torus, p, q, lost)
		}
	})
}
