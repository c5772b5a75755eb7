package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// Route and RouteFault route a protocol stage's disjoint submeshes in
// one call. These tests pin a tiled call against the references it must
// agree with: one call per tile in index order through the same entry
// point, the same tiled call on an engine forced onto the cycle loop,
// and, for Route on a healthy machine, the tiled RouteFault call.

// pageTiles is the tiling of a scheme's level-`level` pages in index
// order, as core routes a stage or return leg.
func pageTiles(s *hmos.Scheme, level int) Tiles {
	return Tiles{N: s.PageCount(level), At: func(i int) mesh.Region { return s.PageRegion(level, i) }}
}

// splitTiles is the tiling of m's full machine into parts congruent
// regions (mesh.Region.SplitQ with q = 3).
func splitTiles(t *testing.T, m *mesh.Machine, parts int) Tiles {
	t.Helper()
	regs, err := m.Full().SplitQ(3, parts)
	if err != nil {
		t.Fatal(err)
	}
	return Tiles{N: len(regs), At: func(i int) mesh.Region { return regs[i] }}
}

// tileItems puts load items on every node, each bound for a random node
// of the node's own tile.
func tileItems(m *mesh.Machine, tiles Tiles, load int, seed int64) [][]item {
	rng := rand.New(rand.NewSource(seed))
	items := make([][]item, m.N)
	id := 0
	for i := range tiles.N {
		r := tiles.At(i)
		for k := 0; k < r.Size(); k++ {
			p := r.ProcAtSnake(m, k)
			for range load {
				d := r.ProcAtSnake(m, rng.Intn(r.Size()))
				items[p] = append(items[p], item{dest: d, id: id})
				id++
			}
		}
	}
	return items
}

// tileWorld is one side of a tiled-call comparison: a machine with its
// own copy of the fault map, ledger, engine and (optional) local view.
type tileWorld struct {
	m    *mesh.Machine
	f    *fault.Map
	ld   *trace.Ledger
	eng  *Engine[item]
	view *faultview.View
}

func newTileWorld(side int, f *fault.Map, wrap, local, forced bool) *tileWorld {
	w := &tileWorld{m: mesh.MustNew(side), f: f.Clone(), ld: trace.New()}
	w.m.SetFaults(w.f)
	w.m.AttachLedger(w.ld)
	w.eng = NewEngine[item](w.m)
	if forced {
		w.eng.ForceCycleLoop()
	}
	if local {
		w.view = faultview.New(side, wrap, w.f, 3)
		w.eng.SetFaultView(w.view)
	}
	return w
}

// killModule kills module p on the world's map and lets its view
// witness the death, so the notice is still spreading during the next
// call.
func (w *tileWorld) killModule(p int) {
	ev := fault.Event{Kind: fault.EvKillModule, P: p}
	w.f.Apply(ev)
	if w.view != nil {
		w.view.ObserveEvent(ev, w.f)
	}
}

// tileRun is everything one routing of a tiling produced: the
// deliveries, the slowest tile's cycles, the losses, and the greedy
// spans' count, packets and largest observed and executed figures.
type tileRun struct {
	delivered       [][]item
	steps           int64
	lost            int
	spans           int
	packets         int64
	observed, execs int64
}

// route routes items over the tiling through Route when healthy is set
// and RouteFault otherwise, in one call or, with each, in one call per
// tile; the calls run under a wrapping span so that their greedy spans
// can be read back.
func (w *tileWorld) route(tiles Tiles, items [][]item, healthy, each bool) tileRun {
	dest := func(v item) int { return v.dest }
	call := func(dst [][]item, t Tiles) ([][]item, int64, int) {
		if healthy {
			d, s := w.eng.Route(dst, t, items, dest)
			return d, s, 0
		}
		return w.eng.RouteFault(dst, t, items, dest)
	}
	var run tileRun
	root := w.ld.Begin("call", trace.PhaseOther)
	if !each {
		run.delivered, run.steps, run.lost = call(nil, tiles)
	} else {
		run.delivered = make([][]item, w.m.N)
		for i := range tiles.N {
			t := Tile(tiles.At(i))
			t.Wrap = tiles.Wrap
			_, steps, lost := call(run.delivered, t)
			run.steps, run.lost = max(run.steps, steps), run.lost+lost
		}
	}
	root.End()
	for _, sp := range w.ld.Last().Children() {
		run.spans++
		run.packets += sp.Packets()
		run.observed = max(run.observed, sp.Observed())
		run.execs = max(run.execs, sp.Executed())
	}
	return run
}

// TestRouteTilesIdentity routes seeded workloads over a tiling in one
// call and through the references, on the pages of a side-27 and a
// side-81 scheme (whose level-1 pages are 1×1), a side-9 tiling into 1×1
// tiles, the torus's one full tile, a module-only fault map under the
// local view with module deaths between calls, a dead-link map, and a
// dead-node map on 1×1 tiles. The healthy-entry rows route through Route
// on a machine without a fault map and are also checked against the
// tiled RouteFault call; the others route through RouteFault.
// Deliveries and their per-processor order, charged cycles, packets and
// lost packets must match; so must the local view's gossip image and
// stats after every call. The tiled call opens one greedy span, which
// observes its cycles and, on a healthy network, counts every packet not
// already home; the forced loop executes exactly its charged cycles.
func TestRouteTilesIdentity(t *testing.T) {
	s27, err := hmos.New(hmos.Params{Side: 27, Q: 3, D: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s81, err := hmos.New(hmos.Params{Side: 81, Q: 3, D: 7, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := s81.PageRegion(1, 0); r.Size() != 1 {
		t.Fatalf("side-81 level-1 page %v is not 1×1", r)
	}
	m9 := mesh.MustNew(9)
	moduleMap, err := fault.Model{ModuleRate: 0.15, Seed: 5}.Build(27)
	if err != nil {
		t.Fatal(err)
	}
	linkMap, err := fault.Model{LinkRate: 0.03, Seed: 7}.Build(27)
	if err != nil {
		t.Fatal(err)
	}
	nodeMap := fault.NewMap(9).KillNode(10).KillNode(40).KillNode(41)
	for _, tc := range []struct {
		name    string
		side    int
		tiles   Tiles
		f       *fault.Map
		local   bool
		load    int
		healthy bool // route through Route, not RouteFault
	}{
		{"side27/level1", 27, pageTiles(s27, 1), nil, false, 3, false},
		{"side27/level2", 27, pageTiles(s27, 2), nil, false, 3, false},
		{"side81/level1", 81, pageTiles(s81, 1), nil, false, 2, false},
		{"side81/level2", 81, pageTiles(s81, 2), nil, false, 2, false},
		{"side9/1x1", 9, splitTiles(t, m9, 81), nil, false, 3, false},
		{"side27/torus", 27, Whole(mesh.MustNew(27), true), nil, false, 2, false},
		{"healthy/side27/level1", 27, pageTiles(s27, 1), nil, false, 3, true},
		{"healthy/side27/level2", 27, pageTiles(s27, 2), nil, false, 3, true},
		{"healthy/side81/level2", 81, pageTiles(s81, 2), nil, false, 2, true},
		{"healthy/side9/3x3", 9, splitTiles(t, m9, 9), nil, false, 3, true},
		{"healthy/side9/1x1", 9, splitTiles(t, m9, 81), nil, false, 3, true},
		{"healthy/side27/torus", 27, Whole(mesh.MustNew(27), true), nil, false, 2, true},
		{"side27/level2/modules/local", 27, pageTiles(s27, 2), moduleMap, true, 3, false},
		{"side27/torus/modules/local", 27, Whole(mesh.MustNew(27), true), moduleMap, true, 2, false},
		{"side27/level2/dead-links", 27, pageTiles(s27, 2), linkMap, false, 3, false},
		{"side27/full/dead-links", 27, Whole(mesh.MustNew(27), false), linkMap, false, 2, false},
		{"side9/1x1/dead-nodes", 9, splitTiles(t, m9, 81), nodeMap, false, 3, false},
		{"side9/1x1/dead-nodes/local", 9, splitTiles(t, m9, 81), nodeMap, true, 3, false},
	} {
		tiled := newTileWorld(tc.side, tc.f, tc.tiles.Wrap, tc.local, false)
		each := newTileWorld(tc.side, tc.f, tc.tiles.Wrap, tc.local, false)
		forced := newTileWorld(tc.side, tc.f, tc.tiles.Wrap, tc.local, true)
		var viaFault *tileWorld // the tiled RouteFault call on the same healthy machine
		if tc.healthy {
			viaFault = newTileWorld(tc.side, nil, tc.tiles.Wrap, false, false)
		}
		lost := 0
		for call := range 3 {
			at := fmt.Sprintf("%s/call=%d", tc.name, call)
			if tc.local && tc.f.NetworkHealthy() {
				for _, w := range []*tileWorld{tiled, each, forced} {
					w.killModule(97*call + 11)
				}
			}
			items := tileItems(tiled.m, tc.tiles, tc.load, int64(call))
			moving := 0 // packets not already at their destination
			for p := range items {
				for _, v := range items[p] {
					if v.dest != p {
						moving++
					}
				}
			}
			loop := forced.route(tc.tiles, cloneItems(items), tc.healthy, false)
			type ref struct {
				name string
				run  tileRun
			}
			refs := []ref{
				{"per-tile calls", each.route(tc.tiles, cloneItems(items), tc.healthy, true)},
				{"forced cycle loop", loop},
			}
			if viaFault != nil {
				refs = append(refs, ref{"tiled RouteFault call", viaFault.route(tc.tiles, cloneItems(items), false, false)})
			}
			got := tiled.route(tc.tiles, items, tc.healthy, false)
			for _, c := range refs {
				if got.steps != c.run.steps || got.lost != c.run.lost || got.packets != c.run.packets {
					t.Fatalf("%s: cycles %d, lost %d, packets %d; %s: %d, %d, %d",
						at, got.steps, got.lost, got.packets, c.name, c.run.steps, c.run.lost, c.run.packets)
				}
				if !reflect.DeepEqual(got.delivered, c.run.delivered) {
					t.Fatalf("%s: delivered lists or their order differ from the %s", at, c.name)
				}
			}
			if tc.f.NetworkHealthy() && got.packets != int64(moving) {
				t.Fatalf("%s: the span counts %d packets, %d moved", at, got.packets, moving)
			}
			if got.spans != 1 || loop.spans != 1 {
				t.Fatalf("%s: tiled calls opened %d and %d greedy spans, want 1", at, got.spans, loop.spans)
			}
			if got.observed != got.steps || got.execs > got.steps || loop.execs != loop.steps {
				t.Fatalf("%s: span observed %d executed %d for %d cycles; forced loop executed %d of %d",
					at, got.observed, got.execs, got.steps, loop.execs, loop.steps)
			}
			if tc.local {
				for _, w := range []*tileWorld{each, forced} {
					if !reflect.DeepEqual(tiled.view.Image(), w.view.Image()) || tiled.view.Stats() != w.view.Stats() {
						t.Fatalf("%s: gossip differs (rounds %d/%d)", at, tiled.view.Stats().Round, w.view.Stats().Round)
					}
				}
			}
			lost += got.lost
		}
		// A healthy network loses nothing; the dead-node maps must lose
		// the packets bound for dead nodes.
		if tc.f.NetworkHealthy() && lost != 0 || tc.f.NodeDead(10) && lost == 0 {
			t.Errorf("%s: %d packets lost over the calls", tc.name, lost)
		}
	}
}

// TestRouteTilesForeignDestinationPanics pins the per-tile target
// check of both entry points: a packet bound for another tile panics
// even though its destination lies inside the union of the tiles, on
// 3×3 tiles and on the 1×1 tiles that skip the line solver.
func TestRouteTilesForeignDestinationPanics(t *testing.T) {
	m := mesh.MustNew(9)
	dest := func(v item) int { return v.dest }
	for _, parts := range []int{9, 81} {
		for _, healthy := range []bool{true, false} {
			tiles := splitTiles(t, m, parts)
			items := make([][]item, m.N)
			p := tiles.At(0).ProcAtSnake(m, 0)
			items[p] = append(items[p], item{dest: tiles.At(1).ProcAtSnake(m, 0)})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d tiles, healthy entry %v: a packet bound for another tile did not panic", parts, healthy)
					}
				}()
				if healthy {
					NewEngine[item](m).Route(nil, tiles, items, dest)
				} else {
					NewEngine[item](m).RouteFault(nil, tiles, items, dest)
				}
			}()
		}
	}
}
