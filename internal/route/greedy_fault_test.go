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
			healthy, hSteps := GreedyRoute(m1, r, cloneItems(items), func(v item) int { return v.dest })
			faulty, fSteps, lost := cycleEngine(m2).RouteFault(nil, r, cloneItems(items), func(v item) int { return v.dest })
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
	healthy, hSteps := GreedyRouteTorus(m1, cloneItems(items), func(v item) int { return v.dest })
	faulty, fSteps, lost := cycleEngine(m2).RouteTorusFault(nil, cloneItems(items), func(v item) int { return v.dest })
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
	delivered, steps, lost := GreedyRouteFaultInto(nil, m, m.Full(), items, func(v item) int { return v.dest })
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
	delivered, steps, lost := GreedyRouteFaultInto(nil, m, m.Full(), items, func(v item) int { return v.dest })
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
	delivered, _, lost := GreedyRouteFaultInto(nil, m, m.Full(), items, func(v item) int { return v.dest })
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
	_, base, lost0 := GreedyRouteFaultInto(nil, m, m.Full(), healthyItems(), func(v item) int { return v.dest })
	if lost0 != 0 {
		t.Fatal("healthy run lost packets")
	}
	f := fault.NewMap(4)
	f.SlowLink(1, 2, 4)
	m.SetFaults(f)
	delivered, slow, lost := GreedyRouteFaultInto(nil, m, m.Full(), healthyItems(), func(v item) int { return v.dest })
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
	delivered, _, lost := GreedyRouteFaultInto(nil, m, m.Full(), items, func(v item) int { return v.dest })
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (the walled-in destination)", lost)
	}
	if len(delivered[10]) != 1 {
		t.Errorf("reachable packet not delivered")
	}
}
