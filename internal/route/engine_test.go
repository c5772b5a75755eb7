package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// totalPackets returns the packets of sp's whole subtree.
func totalPackets(sp *trace.Span) int64 {
	t := sp.Packets()
	for _, c := range sp.Children() {
		t += totalPackets(c)
	}
	return t
}

// routeTorusFault routes items over the full machine's torus links,
// honoring its fault map: RouteFault on the one-tile wrap tiling.
func routeTorusFault[T any](e *Engine[T], dst [][]T, items [][]T, dest func(T) int) ([][]T, int64, int) {
	return e.RouteFault(dst, Whole(e.m, true), items, dest)
}

// An engine reused across calls must be bit-identical to a fresh one:
// delivered contents and per-processor order, cycle counts, lost
// accounting and ledger spans. No state may leak across calls through
// the recycled slab, queues, worklist, arrival buffers or line buffers.

// engineInstance builds a named adversarial or random workload.
func engineInstance(kind string, m *mesh.Machine, seed int64) [][]item {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]item, m.N)
	id := 0
	add := func(p, d int) {
		items[p] = append(items[p], item{key: uint64(id), dest: d, id: id})
		id++
	}
	switch kind {
	case "random":
		for p := 0; p < m.N; p++ {
			for j := 0; j < 3; j++ {
				add(p, rng.Intn(m.N))
			}
		}
	case "transpose":
		for p := 0; p < m.N; p++ {
			add(p, m.IDOf(m.ColOf(p), m.RowOf(p)))
		}
	case "hotspot":
		// Everyone floods one corner plus its mirror: maximal link
		// contention on the column-first paths.
		for p := 0; p < m.N; p++ {
			add(p, 0)
			add(p, m.N-1)
		}
	default:
		panic("unknown instance kind " + kind)
	}
	return items
}

// staticFaults carves a reproducible fault pattern into side-16 meshes:
// a dead interior node, a dead module corridor, severed and slowed
// links along busy columns.
func staticFaults(side int) *fault.Map {
	f := fault.NewMap(side)
	f.KillNode(3*side + 3)
	f.KillLink(5*side+7, 5*side+8)
	f.KillLink(7*side+5, 8*side+5)
	f.SlowLink(2*side+1, 2*side+2, 3)
	f.SlowLink(9*side+9, 10*side+9, 2)
	return f
}

// engineRun holds everything one routing call produced that bit-identity
// quantifies over.
type engineRun struct {
	delivered [][]item
	steps     int64
	lost      int
	observed  int64
	packets   int64
	phases    [trace.NumPhases]int64
	lostAttr  int64
}

// runEngine routes the instance through eng (a fresh engine on a fresh
// side-16 machine when nil), installing the static fault map or a
// healthy one on its machine first, and captures the full observable
// outcome including the ledger span.
func runEngine(t *testing.T, eng *Engine[item], withFaults, torus, faultPath bool, r func(m *mesh.Machine) mesh.Region, items func(m *mesh.Machine) [][]item) engineRun {
	t.Helper()
	if eng == nil {
		eng = NewEngine[item](mesh.MustNew(16))
	}
	m := eng.m
	var f *fault.Map
	if withFaults {
		f = staticFaults(m.Side)
	}
	m.SetFaults(f)
	ld := trace.New()
	m.AttachLedger(ld)
	reg := r(m)
	work := items(m)
	dest := func(v item) int { return v.dest }

	var run engineRun
	switch {
	case faultPath && torus:
		run.delivered, run.steps, run.lost = routeTorusFault(eng, nil, work, dest)
	case faultPath:
		run.delivered, run.steps, run.lost = eng.RouteFault(nil, Tile(reg), work, dest)
	case torus:
		run.delivered, run.steps = eng.Route(nil, Whole(m, true), work, dest)
	default:
		run.delivered, run.steps = eng.Route(nil, Tile(reg), work, dest)
	}
	sp := ld.Last()
	if sp == nil {
		t.Fatal("routing left no ledger span")
	}
	run.observed = sp.Observed()
	run.packets = totalPackets(sp)
	run.phases = sp.PhaseTotals()
	run.lostAttr, _ = sp.Attr("lost")
	return run
}

func requireIdentical(t *testing.T, label string, a, b engineRun) {
	t.Helper()
	if a.steps != b.steps {
		t.Fatalf("%s: %d cycles vs %d", label, a.steps, b.steps)
	}
	if a.lost != b.lost {
		t.Fatalf("%s: lost %d vs %d", label, a.lost, b.lost)
	}
	if !reflect.DeepEqual(a.delivered, b.delivered) {
		t.Fatalf("%s: delivered slices diverged between engines", label)
	}
	if a.observed != b.observed || a.packets != b.packets ||
		a.phases != b.phases || a.lostAttr != b.lostAttr {
		t.Fatalf("%s: ledger spans diverged (observed %d/%d packets %d/%d lost-attr %d/%d)",
			label, a.observed, b.observed, a.packets, b.packets, a.lostAttr, b.lostAttr)
	}
}

// TestEngineParallelBitIdentity sweeps instance kinds × topology ×
// fault path and demands that one engine, reused across the whole
// matrix (healthy and faulted calls, full mesh and subregion), matches
// a fresh engine on every call. It tests engine reuse on one goroutine;
// the engine has no parallel path.
func TestEngineParallelBitIdentity(t *testing.T) {
	shared := NewEngine[item](mesh.MustNew(16))
	full := func(m *mesh.Machine) mesh.Region { return m.Full() }
	sub := func(m *mesh.Machine) mesh.Region { return mesh.Region{R0: 1, C0: 2, H: 12, W: 13} }
	subItems := func(m *mesh.Machine) [][]item {
		rng := rand.New(rand.NewSource(23))
		return scatterItems(m, sub(m), 400, rng)
	}
	for _, kind := range []string{"random", "transpose", "hotspot"} {
		kind := kind
		inst := func(m *mesh.Machine) [][]item { return engineInstance(kind, m, 77) }
		for _, tc := range []struct {
			name              string
			withFaults, torus bool
			faultPath         bool
		}{
			{"mesh", false, false, false},
			{"torus", false, true, false},
			{"mesh-faultpath-clean", false, false, true},
			{"mesh-static-faults", true, false, true},
			{"torus-static-faults", true, true, true},
		} {
			t.Run(fmt.Sprintf("%s/%s", kind, tc.name), func(t *testing.T) {
				fresh := runEngine(t, nil, tc.withFaults, tc.torus, tc.faultPath, full, inst)
				reused := runEngine(t, shared, tc.withFaults, tc.torus, tc.faultPath, full, inst)
				requireIdentical(t, kind+"/"+tc.name, fresh, reused)
				if tc.name == "mesh-static-faults" && fresh.lost == 0 && kind == "random" {
					// The pattern includes a dead node that random traffic
					// hits; losing nothing would mean the faults were not
					// actually exercised.
					t.Fatal("static-fault instance lost no packets; fault path untested")
				}
			})
		}
	}
	t.Run("subregion/random", func(t *testing.T) {
		fresh := runEngine(t, nil, false, false, false, sub, subItems)
		reused := runEngine(t, shared, false, false, false, sub, subItems)
		requireIdentical(t, "subregion", fresh, reused)
	})
}

// TestEngineReuseMatchesFresh routes a sequence of different workloads
// (mixed topologies and fault paths, different region shapes) through
// ONE engine and checks every call matches a fresh single-use engine:
// no state may leak across calls through the recycled slab, queues,
// worklist or arrival buffers.
func TestEngineReuseMatchesFresh(t *testing.T) {
	m := mesh.MustNew(16)
	m.SetFaults(staticFaults(16))
	m.AttachLedger(trace.New())
	shared := NewEngine[item](m)
	dest := func(v item) int { return v.dest }
	sub := mesh.Region{R0: 2, C0: 0, H: 9, W: 14}
	rng := rand.New(rand.NewSource(99))
	calls := []struct {
		name  string
		run   func(eng *Engine[item], items [][]item) ([][]item, int64, int)
		items func() [][]item
	}{
		{"mesh-full", func(e *Engine[item], it [][]item) ([][]item, int64, int) {
			d, s := e.Route(nil, Whole(m, false), it, dest)
			return d, s, 0
		}, func() [][]item { return engineInstance("random", m, 1) }},
		{"fault-sub", func(e *Engine[item], it [][]item) ([][]item, int64, int) {
			return e.RouteFault(nil, Tile(sub), it, dest)
		}, func() [][]item { return scatterItems(m, sub, 300, rng) }},
		{"torus-fault", func(e *Engine[item], it [][]item) ([][]item, int64, int) {
			return routeTorusFault(e, nil, it, dest)
		}, func() [][]item { return engineInstance("transpose", m, 2) }},
		{"mesh-full-again", func(e *Engine[item], it [][]item) ([][]item, int64, int) {
			d, s := e.Route(nil, Whole(m, false), it, dest)
			return d, s, 0
		}, func() [][]item { return engineInstance("hotspot", m, 3) }},
	}
	for _, c := range calls {
		items := c.items()
		wantD, wantS, wantL := c.run(NewEngine[item](m), cloneItems(items))
		gotD, gotS, gotL := c.run(shared, items)
		if wantS != gotS || wantL != gotL || !reflect.DeepEqual(wantD, gotD) {
			t.Fatalf("%s: reused engine diverged from fresh (cycles %d vs %d, lost %d vs %d)",
				c.name, gotS, wantS, gotL, wantL)
		}
	}
}

// TestEngineReleaseKeepsIdentity interleaves Release with routing calls
// and demands the released-and-regrown engine stays bit-identical to a
// fresh one, while MemBytes reflects the retained footprint.
func TestEngineReleaseKeepsIdentity(t *testing.T) {
	m := mesh.MustNew(16)
	m.SetFaults(staticFaults(16))
	m.AttachLedger(trace.New())
	shared := NewEngine[item](m)
	dest := func(v item) int { return v.dest }
	for round := 0; round < 3; round++ {
		items := engineInstance("random", m, int64(10+round))
		wantD, wantS, wantL := NewEngine[item](m).RouteFault(nil, Whole(m, false), cloneItems(items), dest)
		gotD, gotS, gotL := shared.RouteFault(nil, Whole(m, false), items, dest)
		if wantS != gotS || wantL != gotL || !reflect.DeepEqual(wantD, gotD) {
			t.Fatalf("round %d: released engine diverged from fresh (cycles %d vs %d, lost %d vs %d)",
				round, gotS, wantS, gotL, wantL)
		}
		if shared.MemBytes() == 0 {
			t.Fatalf("round %d: MemBytes 0 after routing", round)
		}
		shared.Release()
		if got := shared.MemBytes(); got != 0 {
			t.Fatalf("round %d: MemBytes %d after Release, want 0", round, got)
		}
	}
}
