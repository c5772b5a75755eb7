package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// lineCase is one routing call of the line-path identity matrix.
type lineCase struct {
	name string
	r    mesh.Region
	load int  // items per node of the region
	hot  bool // every item is bound for the region's column W/3
}

// lineItems puts c.load items on every node of c.r, each bound for a
// random node of c.r (self-destined items included), or with c.hot for
// a random row of column W/3.
func lineItems(m *mesh.Machine, c lineCase, rng *rand.Rand) [][]item {
	r := c.r
	items := make([][]item, m.N)
	id := 0
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for j := 0; j < c.load; j++ {
				d := m.IDOf(r.R0+rng.Intn(r.H), r.C0+rng.Intn(r.W))
				if c.hot {
					d = m.IDOf(m.RowOf(d), r.C0+r.W/3)
				}
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
	if faultPath {
		got, steps, lost = eng.RouteFault(nil, Tile(c.r), items, dest)
	} else {
		got, steps = eng.Route(nil, Tile(c.r), items, dest)
	}
	sp := ld.Last()
	return got, steps, lost, [2]int64{sp.Observed(), totalPackets(sp)}
}

// TestLineRouteIdentity pins the line-decomposed healthy path against
// the cycle-stepped reference, the fault path forced onto the cycle
// loop on the same healthy machine: delivered contents, per-processor order, charged cycles and
// the ledger span must match on the full machine and on offset
// non-square regions, at about 1, 4 and 9 packets per node, and the
// reference loses no packet. The torus runs on the cycle loop itself,
// so it has no rows here. Hot-exit cases send every packet of a row to one column, so
// packets wait hundreds of cycles at one link and their waits cross the
// 64-cycle words of the per-link view; on side 200 the regions' lines
// are longer than 128 positions, so a diagonal spans three words. One
// engine per side serves every line-path call, so buffers sized by a
// larger region are reused by smaller ones and the other way round.
// Executed never exceeds charged.
func TestLineRouteIdentity(t *testing.T) {
	for _, side := range []int{2, 9, 27, 81, 200} {
		m := mesh.MustNew(side)
		ld := trace.New()
		m.AttachLedger(ld)
		evt := NewEngine[item](m)
		var cases []lineCase
		if side <= 81 {
			for _, load := range []int{1, 4, 9} {
				cases = append(cases, lineCase{"full", m.Full(), load, false})
				if side >= 27 {
					cases = append(cases,
						lineCase{"3x9@(3,9)", mesh.Region{R0: 3, C0: 9, H: 3, W: 9}, load, false},
						lineCase{"9x27@(0,0)", mesh.Region{R0: 0, C0: 0, H: 9, W: 27}, load, false},
						lineCase{"17x4@(5,2)", mesh.Region{R0: 5, C0: 2, H: 17, W: 4}, load, false})
				}
			}
		}
		switch side {
		case 81:
			cases = append(cases,
				lineCase{"hot 9x81@(4,0)", mesh.Region{R0: 4, C0: 0, H: 9, W: 81}, 4, true},
				lineCase{"hot 81x81", m.Full(), 1, true})
		case 200:
			cases = append(cases,
				lineCase{"3x200@(7,0)", mesh.Region{R0: 7, C0: 0, H: 3, W: 200}, 4, false},
				lineCase{"200x3@(0,190)", mesh.Region{R0: 0, C0: 190, H: 200, W: 3}, 4, false},
				lineCase{"hot 2x180@(50,11)", mesh.Region{R0: 50, C0: 11, H: 2, W: 180}, 3, true})
		}
		rng := rand.New(rand.NewSource(int64(side)))
		for _, c := range cases {
			label := fmt.Sprintf("side=%d/%s/load=%d", side, c.name, c.load)
			items := lineItems(m, c, rng)
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

// FuzzLineRoute compares the mesh line solver with the cycle loop on a
// random region of a side-160 machine (widths and heights up to 160, so
// lines of more than 128 positions occur), load and seed: deliveries,
// their order, charged cycles and the span must match. A second call on
// the same engine, one packet per node more, checks that the first left
// every buffer at rest.
func FuzzLineRoute(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(1), uint16(149), uint8(3), int64(1))
	f.Add(uint16(3), uint16(5), uint16(150), uint16(2), uint8(2), int64(2))
	f.Add(uint16(40), uint16(7), uint16(8), uint16(26), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, r0, c0, h, w uint16, load uint8, seed int64) {
		const side = 160
		m := mesh.MustNew(side)
		ld := trace.New()
		m.AttachLedger(ld)
		r := mesh.Region{W: 1 + int(w)%side}
		r.H = 1 + int(h)%min(side, max(1, 1200/r.W))
		r.R0, r.C0 = int(r0)%(side-r.H+1), int(c0)%(side-r.W+1)
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine[item](m)
		for call := 0; call < 2; call++ {
			c := lineCase{"fuzz", r, 1 + int(load)%6 + call, false}
			items := lineItems(m, c, rng)
			wantD, wantS, _, wantSpan := lineCall(cycleEngine(m), ld, c, true, cloneItems(items))
			gotD, gotS, _, gotSpan := lineCall(eng, ld, c, false, items)
			if gotS != wantS || gotSpan != wantSpan || !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("%v load %d call %d: line solver %d cycles, span %v; cycle loop %d cycles, span %v; deliveries equal: %v",
					r, c.load, call, gotS, gotSpan, wantS, wantSpan, reflect.DeepEqual(gotD, wantD))
			}
		}
	})
}

// TestLineRouteMemRelease checks that the line path counts its buffers
// in MemBytes, that mesh routing leaves the per-node queue tables of the
// sweep path unallocated, that torus routing, which runs on the cycle
// loop, leaves the line buffers unallocated, and that Release returns
// the engine to its just-built footprint.
func TestLineRouteMemRelease(t *testing.T) {
	m := mesh.MustNew(27)
	eng := NewEngine[item](m)
	built := eng.MemBytes()
	items := lineItems(m, lineCase{r: m.Full(), load: 4}, rand.New(rand.NewSource(5)))
	eng.Route(nil, Whole(m, false), items, func(v item) int { return v.dest })
	lineBytes := func() int64 {
		return int64(cap(eng.rowAt)+cap(eng.colAt)+cap(eng.dcnt)+cap(eng.dorder))*4 +
			int64(cap(eng.colq)+cap(eng.lnKeys)+cap(eng.dBits)+cap(eng.lBits)+cap(eng.lnRuns))*8 +
			int64(cap(eng.lnPk))*int64(unsafe.Sizeof(lnPacket{}))
	}
	lines := lineBytes()
	if cap(eng.dBits) == 0 || cap(eng.lBits) == 0 || cap(eng.lnKeys) == 0 || cap(eng.lnPk) == 0 || cap(eng.lnRuns) == 0 ||
		eng.MemBytes() < built+lines {
		t.Fatalf("MemBytes %d after routing, just built %d, line buffers alone %d (diagonal bits %d, link bits %d, sort keys %d, packets %d, runs %d)",
			eng.MemBytes(), built, lines, cap(eng.dBits), cap(eng.lBits), cap(eng.lnKeys), cap(eng.lnPk), cap(eng.lnRuns))
	}
	if cap(eng.queues) != 0 || cap(eng.inQ) != 0 || cap(eng.active) != 0 {
		t.Fatalf("line path grew the sweep tables: queues %d, inQ %d, worklist %d",
			cap(eng.queues), cap(eng.inQ), cap(eng.active))
	}
	eng.Release()
	if got := eng.MemBytes(); got != built {
		t.Fatalf("MemBytes %d after Release, just built %d", got, built)
	}
	eng.Route(nil, Whole(m, true), lineItems(m, lineCase{r: m.Full(), load: 4}, rand.New(rand.NewSource(6))), func(v item) int { return v.dest })
	if lines := lineBytes(); lines != 0 {
		t.Fatalf("torus routing allocated %d bytes of line buffers", lines)
	}
	if cap(eng.queues) == 0 || eng.MemBytes() <= built {
		t.Fatalf("torus routing did not run the cycle loop: queues %d, MemBytes %d, just built %d",
			cap(eng.queues), eng.MemBytes(), built)
	}
	eng.Release()
	if got := eng.MemBytes(); got != built {
		t.Fatalf("MemBytes %d after Release of a torus engine, just built %d", got, built)
	}
}
