package route

import (
	"fmt"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// A dead memory module blocks no link, so the fault entry points solve
// module-only fault worlds with the line solver. These tests pin that
// the line path is then indistinguishable from the cycle loop, and that
// the guard keeps every world with a network fault — or a local view
// that ever held one — on the loop.

// cycleEngine returns a fresh engine on m forced onto the cycle loop:
// the reference of the identity matrices.
func cycleEngine(m *mesh.Machine) *Engine[item] {
	e := NewEngine[item](m)
	e.ForceCycleLoop()
	return e
}

// moduleWorld is one side of a module-fault comparison: a machine with
// its own module-only truth map, ledger and (optional) local view.
type moduleWorld struct {
	m     *mesh.Machine
	truth *fault.Map
	view  *faultview.View
	ld    *trace.Ledger
	eng   *Engine[item]
}

func newModuleWorld(t *testing.T, side int, torus, local, forced bool) *moduleWorld {
	t.Helper()
	w := &moduleWorld{m: mesh.MustNew(side), ld: trace.New()}
	truth, err := fault.Model{ModuleRate: 0.15, Seed: 5}.Build(side)
	if err != nil {
		t.Fatal(err)
	}
	w.truth = truth
	w.m.SetFaults(w.truth)
	w.m.AttachLedger(w.ld)
	w.eng = NewEngine[item](w.m)
	if forced {
		w.eng.ForceCycleLoop()
	}
	if local {
		w.view = faultview.New(side, torus, w.truth, 9)
		w.eng.SetFaultView(w.view)
	}
	return w
}

// churn kills (or revives) module p on the truth and lets the view
// witness it, so its notice is still spreading during the next route.
func (w *moduleWorld) churn(kind fault.EventKind, p int) {
	ev := fault.Event{Kind: kind, P: p}
	w.truth.Apply(ev)
	if w.view != nil {
		w.view.ObserveEvent(ev, w.truth)
	}
}

// moduleCall is everything one routing call produced.
type moduleCall struct {
	delivered         [][]item
	steps             int64
	lost              int
	observed, packets int64
	exec              int64
}

func (w *moduleWorld) route(torus bool, items [][]item) moduleCall {
	dest := func(v item) int { return v.dest }
	var c moduleCall
	if torus {
		c.delivered, c.steps, c.lost = routeTorusFault(w.eng, nil, items, dest)
	} else {
		c.delivered, c.steps, c.lost = w.eng.RouteFault(nil, Whole(w.m, false), items, dest)
	}
	sp := w.ld.Last()
	c.observed, c.packets, c.exec = sp.Observed(), totalPackets(sp), sp.Executed()
	return c
}

// TestModuleFaultLineIdentity routes a sequence of workloads through a
// module-only fault world — static dead modules plus module churn
// between calls — with the line path allowed and with the cycle loop
// forced, on {mesh, torus} × {global, local view}. Deliveries and their
// order, charged cycles, losses, the span's observed cycles and
// packets, and the view's notice log, image and stats must match after
// every call. The forced loop executes one sweep per charged cycle. On
// the mesh the line path must be taken and execute fewer; the torus
// must stay on the cycle loop, executing one sweep per charged cycle.
func TestModuleFaultLineIdentity(t *testing.T) {
	const side = 16
	for _, torus := range []bool{false, true} {
		for _, local := range []bool{false, true} {
			label := fmt.Sprintf("torus=%v/local=%v", torus, local)
			ref := newModuleWorld(t, side, torus, local, true)
			got := newModuleWorld(t, side, torus, local, false)
			fewer := false
			for call, kind := range []string{"random", "hotspot", "transpose", "random"} {
				for _, w := range []*moduleWorld{ref, got} {
					w.churn(fault.EvKillModule, 17*call+3)
					if call > 1 {
						w.churn(fault.EvReviveModule, 17*(call-2)+3)
					}
				}
				items := engineInstance(kind, ref.m, int64(call))
				want := ref.route(torus, cloneItems(items))
				have := got.route(torus, items)
				at := fmt.Sprintf("%s/call=%d-%s", label, call, kind)
				if lines := got.eng.linesSafe(got.m.Full(), torus, got.truth); lines == torus {
					t.Fatalf("%s: on the line path %v, want %v", at, lines, !torus)
				}
				if want.steps != have.steps || want.lost != have.lost ||
					want.observed != have.observed || want.packets != have.packets {
					t.Fatalf("%s: cycles %d/%d lost %d/%d observed %d/%d packets %d/%d (loop/lines)",
						at, want.steps, have.steps, want.lost, have.lost,
						want.observed, have.observed, want.packets, have.packets)
				}
				if want.lost != 0 {
					t.Fatalf("%s: the cycle loop lost %d packets on a healthy network", at, want.lost)
				}
				if !reflect.DeepEqual(want.delivered, have.delivered) {
					t.Fatalf("%s: delivered lists or their order differ", at)
				}
				if want.exec != want.steps {
					t.Fatalf("%s: forced loop executed %d of %d charged cycles", at, want.exec, want.steps)
				}
				if have.exec > have.steps || torus && have.exec != have.steps {
					t.Fatalf("%s: executed %d of %d charged cycles", at, have.exec, have.steps)
				}
				fewer = fewer || have.exec < have.steps
				if local {
					if !reflect.DeepEqual(ref.view.Image(), got.view.Image()) {
						t.Fatalf("%s: view images differ (rounds %d/%d)", at, ref.view.Stats().Round, got.view.Stats().Round)
					}
					if ref.view.Stats() != got.view.Stats() {
						t.Fatalf("%s: view stats %+v, loop %+v", at, got.view.Stats(), ref.view.Stats())
					}
				}
			}
			if !torus && !fewer {
				t.Errorf("%s: the line path never executed fewer iterations than it charged", label)
			}
		}
	}
}

// TestLinesSafeGuard pins the guard's table: only a mesh tiling, on a
// network with no dead node, dead link or slow link — and no local view
// that ever held one — takes the line path from the fault entry points.
func TestLinesSafeGuard(t *testing.T) {
	const side = 9
	m := mesh.MustNew(side)
	full := m.Full()
	view := func(base *fault.Map, evs ...fault.Event) *faultview.View {
		v := faultview.New(side, false, base, 1)
		truth := base.Clone()
		if truth == nil {
			truth = fault.NewMap(side)
		}
		for _, ev := range evs {
			truth.Apply(ev)
			v.ObserveEvent(ev, truth)
		}
		v.TickN(truth, 2*side)
		return v
	}
	kill := fault.Event{Kind: fault.EvKillNode, P: 40}
	revive := fault.Event{Kind: fault.EvReviveNode, P: 40}
	modKill := fault.Event{Kind: fault.EvKillModule, P: 40}
	revived := fault.NewMap(side)
	revived.Apply(kill)
	revived.Apply(revive)
	for _, tc := range []struct {
		name   string
		f      *fault.Map
		v      *faultview.View
		forced bool
		wrap   bool
		want   bool
	}{
		{"nil map", nil, nil, false, false, true},
		{"empty map", fault.NewMap(side), nil, false, false, true},
		{"dead modules", fault.NewMap(side).KillModule(3).KillModule(40), nil, false, false, true},
		{"dead node", fault.NewMap(side).KillNode(3), nil, false, false, false},
		{"dead link", fault.NewMap(side).KillLink(3, 4), nil, false, false, false},
		{"slow link", fault.NewMap(side).SlowLink(3, 4, 2), nil, false, false, false},
		{"node killed and revived, global view", revived, nil, false, false, true},
		{"node killed and revived, local view", revived, view(nil, kill, revive), false, false, false},
		{"module notices, local view", fault.NewMap(side).KillModule(40), view(nil, modKill), false, false, true},
		{"slow link in the view's base", fault.NewMap(side), view(fault.NewMap(side).SlowLink(3, 4, 2)), false, false, false},
		{"nil map ignores the view", nil, view(nil, kill, revive), false, false, true},
		{"forced cycle loop", nil, nil, true, false, false},
		{"wrap tiling", nil, nil, false, true, false},
	} {
		e := NewEngine[item](m)
		e.SetFaultView(tc.v)
		if tc.forced {
			e.ForceCycleLoop()
		}
		if got := e.linesSafe(full, tc.wrap, tc.f); got != tc.want {
			t.Errorf("%s: linesSafe = %v, want %v", tc.name, got, tc.want)
		}
	}
	if NewEngine[item](m).linesSafe(mesh.Region{H: 1, W: lnMaxSide + 1}, false, nil) {
		t.Error("a region wider than the line encoding took the line path")
	}
}
