package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// lineCase is one routing call of the line-path identity matrix.
type lineCase struct {
	name  string
	r     mesh.Region
	torus bool
	load  int // items per node of the region
}

// lineItems puts load items on every node of r, each bound for a random
// node of r (self-destined items included).
func lineItems(m *mesh.Machine, r mesh.Region, load int, rng *rand.Rand) [][]item {
	items := make([][]item, m.N)
	id := 0
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for j := 0; j < load; j++ {
				d := m.IDOf(r.R0+rng.Intn(r.H), r.C0+rng.Intn(r.W))
				items[p] = append(items[p], item{dest: d, id: id})
				id++
			}
		}
	}
	return items
}

// lineCall routes items through eng — on the healthy path, or on the
// fault path when faultPath is set — and returns the delivered lists,
// the charged cycles, the lost packets and the greedy span's observed
// cycles and packets.
func lineCall(eng *Engine[item], ld *trace.Ledger, c lineCase, faultPath bool, items [][]item) ([][]item, int64, int, [2]int64) {
	dest := func(v item) int { return v.dest }
	var got [][]item
	var steps int64
	var lost int
	switch {
	case faultPath && c.torus:
		got, steps, lost = eng.RouteTorusFault(nil, items, dest)
	case faultPath:
		got, steps, lost = eng.RouteFault(nil, c.r, items, dest)
	case c.torus:
		got, steps = eng.RouteTorus(nil, items, dest)
	default:
		got, steps = eng.Route(nil, c.r, items, dest)
	}
	sp := ld.Last()
	return got, steps, lost, [2]int64{sp.Observed(), sp.TotalPackets()}
}

// TestLineRouteIdentity pins the line-decomposed healthy path against
// the cycle-stepped reference, the fault path forced onto the cycle
// loop on the same healthy machine: delivered contents, per-processor order, charged cycles and
// the ledger span must match on the full machine and on offset
// non-square regions, at about 1, 4 and 9 packets per node, on the mesh
// and the torus (side 2 makes a two-node ring), and the reference loses
// no packet. One engine per side serves every line-path call, so
// buffers sized by a larger region are reused by smaller ones and the
// other way round. Executed never exceeds charged.
func TestLineRouteIdentity(t *testing.T) {
	for _, side := range []int{2, 9, 27, 81} {
		m := mesh.MustNew(side)
		ld := trace.New()
		m.AttachLedger(ld)
		evt := NewEngine[item](m)
		var cases []lineCase
		for _, load := range []int{1, 4, 9} {
			cases = append(cases,
				lineCase{"full", m.Full(), false, load},
				lineCase{"torus", m.Full(), true, load})
			if side >= 27 {
				cases = append(cases,
					lineCase{"3x9@(3,9)", mesh.Region{R0: 3, C0: 9, H: 3, W: 9}, false, load},
					lineCase{"9x27@(0,0)", mesh.Region{R0: 0, C0: 0, H: 9, W: 27}, false, load},
					lineCase{"17x4@(5,2)", mesh.Region{R0: 5, C0: 2, H: 17, W: 4}, false, load})
			}
		}
		rng := rand.New(rand.NewSource(int64(side)))
		for _, c := range cases {
			label := fmt.Sprintf("side=%d/%s/load=%d", side, c.name, c.load)
			items := lineItems(m, c.r, c.load, rng)
			wantD, wantS, lost, wantSpan := lineCall(cycleEngine(m), ld, c, true, cloneItems(items))
			gotD, gotS, _, gotSpan := lineCall(evt, ld, c, false, items)
			if lost != 0 {
				t.Errorf("%s: reference lost %d packets on a healthy machine", label, lost)
			}
			if gotS != wantS {
				t.Errorf("%s: line path charged %d cycles, cycle loop %d", label, gotS, wantS)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Errorf("%s: delivered lists or their order differ from the cycle loop", label)
			}
			if gotSpan != wantSpan {
				t.Errorf("%s: span observed/packets %v, cycle loop %v", label, gotSpan, wantSpan)
			}
			if exec := evt.Executed(); exec > gotS || (gotS > 0 && exec <= 0) {
				t.Errorf("%s: executed %d outside (0, charged=%d]", label, exec, gotS)
			}
		}
	}
}

// TestLineRouteMemRelease checks that the line path counts its buffers
// in MemBytes, leaves the per-node queue tables of the sweep path
// unallocated, and that Release returns the engine to its just-built
// footprint.
func TestLineRouteMemRelease(t *testing.T) {
	m := mesh.MustNew(27)
	eng := NewEngine[item](m)
	built := eng.MemBytes()
	items := lineItems(m, m.Full(), 4, rand.New(rand.NewSource(5)))
	eng.Route(nil, m.Full(), items, func(v item) int { return v.dest })
	lines := int64(cap(eng.rowAt)+cap(eng.colAt)+cap(eng.dcnt)+cap(eng.dorder))*4 +
		int64(cap(eng.colq)+cap(eng.occ))*8 + int64(cap(eng.lq))*24
	if lines == 0 || eng.MemBytes() < built+lines {
		t.Fatalf("MemBytes %d after routing, just built %d, line buffers alone %d", eng.MemBytes(), built, lines)
	}
	if cap(eng.queues) != 0 || cap(eng.inQ) != 0 || cap(eng.active) != 0 {
		t.Fatalf("line path grew the sweep tables: queues %d, inQ %d, worklist %d",
			cap(eng.queues), cap(eng.inQ), cap(eng.active))
	}
	eng.Release()
	if got := eng.MemBytes(); got != built {
		t.Fatalf("MemBytes %d after Release, just built %d", got, built)
	}
}
