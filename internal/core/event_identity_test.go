package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
	"meshpram/internal/trace"
)

// The line-decomposed healthy routing must be invisible at the
// protocol level: a simulation run whose network is healthy produces,
// step by step, the same read results, the same StepStats, the same
// ledger spans (but for executed iterations), the same fault reports
// and gossip state and — after the run — the same snapshot bytes as the
// same configuration with its routing engine, which routes the
// protocol and the repair scrubs, forced onto its cycle-stepped loop.
// A forced simulator is the reference side of the identity matrices.
// This is the end-to-end half of the bit-identity
// contract (the packet-level half lives in
// internal/route/event_identity_test.go).

// eventMatrixTrace is everything observable from one simulation run.
type eventMatrixTrace struct {
	words    [][]Word
	stats    []*StepStats
	reports  []string
	spans    [][]spanRow
	execs    [][]int64 // executed iterations per span, depth-first
	notices  []faultview.Notice
	image    *faultview.Image
	snapshot []byte
}

// runEventMatrix executes a seeded mixed read/write workload and
// captures every observable output; cycleLoop forces the cycle loop.
func runEventMatrix(t *testing.T, torus bool, fm *fault.Map, sch *fault.Schedule, cycleLoop bool) eventMatrixTrace {
	return runViewMatrix(t, faultview.Global, torus, fm, sch, cycleLoop)
}

// runViewMatrix is runEventMatrix with an explicit fault-view mode.
func runViewMatrix(t *testing.T, view faultview.Mode, torus bool, fm *fault.Map, sch *fault.Schedule, cycleLoop bool) eventMatrixTrace {
	t.Helper()
	cfg := Config{
		Torus:         torus,
		Schedule:      sch,
		Repair:        RepairEager,
		FaultView:     view,
		FaultViewSeed: 1234,
	}
	if fm != nil {
		cfg.Faults = fm.Clone()
	}
	s, err := New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cycleLoop {
		s.eng.ForceCycleLoop()
	}
	nv := s.Scheme().Vars()
	rng := rand.New(rand.NewSource(99))
	var tr eventMatrixTrace
	for step := 0; step < 8; step++ {
		ops := make([]Op, 6)
		vars := rng.Perm(nv)[:len(ops)]
		for i := range ops {
			ops[i] = Op{Origin: rng.Intn(s.M.N), Var: vars[i]}
			if rng.Intn(2) == 0 {
				ops[i].IsWrite = true
				ops[i].Value = Word(rng.Intn(1 << 20))
			}
		}
		words, stats, err := s.StepChecked(ops)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		tr.words = append(tr.words, append([]Word(nil), words...))
		tr.stats = append(tr.stats, stats)
		tr.reports = append(tr.reports, s.LastReport().String())
		tr.spans = append(tr.spans, flattenSpans(s.Ledger().Last(), nil))
		tr.execs = append(tr.execs, flattenExecs(s.Ledger().Last(), nil))
	}
	if v := s.FaultView(); v != nil {
		img := v.Image()
		tr.notices = img.Log
		tr.image = &img
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	tr.snapshot = buf.Bytes()
	return tr
}

// requireSameTrace compares two runs observable-by-observable so a
// divergence names the first differing step and output kind.
func requireSameTrace(t *testing.T, label string, ref, got eventMatrixTrace) {
	t.Helper()
	for i := range ref.words {
		if !reflect.DeepEqual(ref.words[i], got.words[i]) {
			t.Errorf("%s: step %d read results diverge: reference %v, got %v",
				label, i, ref.words[i], got.words[i])
		}
		if !reflect.DeepEqual(ref.stats[i], got.stats[i]) {
			t.Errorf("%s: step %d stats diverge:\n reference %+v\n got       %+v",
				label, i, ref.stats[i], got.stats[i])
		}
		if ref.reports[i] != got.reports[i] {
			t.Errorf("%s: step %d fault report diverges:\n reference %s\n got       %s",
				label, i, ref.reports[i], got.reports[i])
		}
		if !reflect.DeepEqual(ref.spans[i], got.spans[i]) {
			t.Errorf("%s: step %d ledger spans diverge", label, i)
		}
	}
	if !reflect.DeepEqual(ref.notices, got.notices) {
		t.Errorf("%s: notice logs diverge (%d vs %d notices)", label, len(ref.notices), len(got.notices))
	}
	if !reflect.DeepEqual(ref.image, got.image) {
		t.Errorf("%s: fault-view images diverge", label)
	}
	if !bytes.Equal(ref.snapshot, got.snapshot) {
		t.Errorf("%s: snapshot bytes diverge (%d vs %d bytes)",
			label, len(ref.snapshot), len(got.snapshot))
	}
}

// staticEventFaults is the static-fault corner of the matrix: a dead
// module, a dead link and a slow link, all chosen away from each other.
func staticEventFaults() *fault.Map {
	return fault.NewMap(9).
		KillModule(3*9+4).
		KillLink(5*9+1, 5*9+2).
		SlowLink(1*9+6, 2*9+6, 3)
}

// churnEventSchedule is the dynamic corner: a module dies mid-run, a
// link slows, another dies and later heals.
func churnEventSchedule() *fault.Schedule {
	return fault.NewSchedule(9).
		Add(fault.Event{Step: 2, Kind: fault.EvKillModule, P: 3*9 + 4}).
		Add(fault.Event{Step: 3, Kind: fault.EvSlowLink, P: 1*9 + 6, Q: 2*9 + 6, Factor: 3}).
		Add(fault.Event{Step: 4, Kind: fault.EvKillLink, P: 5*9 + 1, Q: 5*9 + 2}).
		Add(fault.Event{Step: 6, Kind: fault.EvHealLink, P: 5*9 + 1, Q: 5*9 + 2})
}

// TestEventCycleSimulationIdentity is the acceptance matrix:
// {mesh, torus} × {fault-free, static faults, churn schedule},
// asserting identical delivered contents (read results), charged
// cycles (StepStats), ledger spans, lost counts (fault reports) and
// snapshot bytes between a reference run with the cycle loop forced
// and two unforced runs. The fault-free reference also uses an empty
// fault map instead of none. The unforced runs take the line solver
// wherever the network is healthy: throughout the fault-free rows, and
// in the churn rows until the first link fault.
func TestEventCycleSimulationIdentity(t *testing.T) {
	faultCases := []struct {
		name string
		fm   func() *fault.Map
		sch  func() *fault.Schedule
	}{
		{"healthy", nil, nil},
		{"static", staticEventFaults, nil},
		{"churn", nil, churnEventSchedule},
	}
	for _, torus := range []bool{false, true} {
		for _, fc := range faultCases {
			var fm *fault.Map
			var sch *fault.Schedule
			if fc.fm != nil {
				fm = fc.fm()
			}
			if fc.sch != nil {
				sch = fc.sch()
			}
			refMap := fm
			if fm == nil && sch == nil {
				refMap = fault.NewMap(9)
			}
			ref := runEventMatrix(t, torus, refMap, sch, true)
			for run := 0; run < 2; run++ {
				label := fmt.Sprintf("torus=%v/%s/run=%d", torus, fc.name, run)
				got := runEventMatrix(t, torus, fm, sch, false)
				requireSameTrace(t, label, ref, got)
			}
		}
	}
}

// TestLocalViewSimulationIdentity is the local-fault-view half of the
// acceptance matrix: under FaultView=Local with a churn schedule, runs
// are bit-identical (read results, StepStats, ledger spans, fault
// reports, notice logs, view images and snapshot bytes including the
// gossip view state) to a reference with the cycle loop forced, across
// double runs and with the schedule applied over an explicit empty
// fault map instead of the simulator's own — for both mesh and torus
// topologies.
func TestLocalViewSimulationIdentity(t *testing.T) {
	for _, torus := range []bool{false, true} {
		ref := runViewMatrix(t, faultview.Local, torus, nil, churnEventSchedule(), true)
		if len(ref.snapshot) == 0 {
			t.Fatal("local-view snapshot is empty")
		}
		for run := 0; run < 2; run++ {
			label := fmt.Sprintf("torus=%v/local-churn/run=%d", torus, run)
			got := runViewMatrix(t, faultview.Local, torus, nil, churnEventSchedule(), false)
			requireSameTrace(t, label, ref, got)
			empty := runViewMatrix(t, faultview.Local, torus, fault.NewMap(9), churnEventSchedule(), false)
			requireSameTrace(t, label+"/empty-map", ref, empty)
		}
		// Static faults are boot knowledge under the local view: beliefs
		// start exact, so the run must match the global view bit for bit
		// — except for the snapshot, which appends the (empty-log) view
		// state in local mode, and the view itself, which the global run
		// does not have.
		glob := runViewMatrix(t, faultview.Global, torus, staticEventFaults(), nil, false)
		loc := runViewMatrix(t, faultview.Local, torus, staticEventFaults(), nil, false)
		label := fmt.Sprintf("torus=%v/local-static-vs-global", torus)
		loc.snapshot, loc.image, loc.notices = loc.snapshot[:0], nil, nil
		glob.snapshot = glob.snapshot[:0]
		requireSameTrace(t, label, glob, loc)
	}
}

// moduleChurnSchedule kills and revives memory modules only: the
// network stays healthy throughout.
func moduleChurnSchedule() *fault.Schedule {
	return fault.NewSchedule(9).
		Add(fault.Event{Step: 1, Kind: fault.EvKillModule, P: 40}).
		Add(fault.Event{Step: 2, Kind: fault.EvKillModule, P: 3*9 + 4}).
		Add(fault.Event{Step: 4, Kind: fault.EvReviveModule, P: 40}).
		Add(fault.Event{Step: 5, Kind: fault.EvKillModule, P: 7*9 + 7}).
		Add(fault.Event{Step: 6, Kind: fault.EvReviveModule, P: 3*9 + 4})
}

// TestModuleFaultSimulationIdentity is the oracle matrix for module-only
// fault worlds, which route on the line solver: {static rand:module,
// module churn} × {global, local view} × {mesh, torus}. Each unforced
// run must match the run with the cycle loop forced in read results,
// StepStats, ledger spans (all but executed iterations), fault reports,
// notice logs, view images and snapshot bytes — and must actually have
// taken the line solver somewhere (a span executing fewer iterations
// than the loop). A last row kills a node and revives it under the
// local view: the truth is healthy again, but beliefs may not be, so
// that world stays on the cycle loop from the death on (every span's
// executed count matches the forced run).
func TestModuleFaultSimulationIdentity(t *testing.T) {
	static, err := fault.Parse(9, "rand:module=0.06,seed=3")
	if err != nil || static == nil || !static.NetworkHealthy() {
		t.Fatalf("rand:module map: %v, %v", static, err)
	}
	worlds := []struct {
		name string
		fm   *fault.Map
		sch  func() *fault.Schedule
	}{
		{"static-rand-module", static, func() *fault.Schedule { return nil }},
		{"module-churn", nil, moduleChurnSchedule},
	}
	for _, torus := range []bool{false, true} {
		for _, view := range []faultview.Mode{faultview.Global, faultview.Local} {
			for _, w := range worlds {
				label := fmt.Sprintf("torus=%v/%v/%s", torus, view, w.name)
				ref := runViewMatrix(t, view, torus, w.fm, w.sch(), true)
				got := runViewMatrix(t, view, torus, w.fm, w.sch(), false)
				requireSameTrace(t, label, ref, got)
				if reflect.DeepEqual(ref.execs, got.execs) {
					t.Errorf("%s: executed iterations match the forced loop; the line solver never ran", label)
				}
			}
		}
		label := fmt.Sprintf("torus=%v/local/node-killed-and-revived", torus)
		revived := func() *fault.Schedule {
			return moduleChurnSchedule().
				Add(fault.Event{Step: 2, Kind: fault.EvKillNode, P: 5*9 + 2}).
				Add(fault.Event{Step: 3, Kind: fault.EvReviveNode, P: 5*9 + 2})
		}
		ref := runViewMatrix(t, faultview.Local, torus, nil, revived(), true)
		got := runViewMatrix(t, faultview.Local, torus, nil, revived(), false)
		requireSameTrace(t, label, ref, got)
		heard := false
		for _, nt := range got.notices {
			heard = heard || nt.Kind == fault.EvKillNode
		}
		if !heard {
			t.Errorf("%s: the node death was never logged", label)
		}
		// Steps 0 and 1 precede the death and may take the line solver.
		if !reflect.DeepEqual(ref.execs[2:], got.execs[2:]) {
			t.Errorf("%s: executed iterations differ from the forced loop after the node death; the world left the cycle loop", label)
		}
	}
}

// spanRow is one ledger span's semantic axes, for comparing trees.
type spanRow struct {
	name                       string
	charged, observed, packets int64
}

// flattenSpans lists the spans of a ledger tree in depth-first order.
func flattenSpans(s *trace.Span, out []spanRow) []spanRow {
	out = append(out, spanRow{s.Name(), s.Charged(), s.Observed(), s.Packets()})
	for _, c := range s.Children() {
		out = flattenSpans(c, out)
	}
	return out
}

// flattenExecs lists the executed iterations of a ledger tree's spans
// in the depth-first order of flattenSpans.
func flattenExecs(s *trace.Span, out []int64) []int64 {
	out = append(out, s.Executed())
	for _, c := range s.Children() {
		out = flattenExecs(c, out)
	}
	return out
}

// TestEventCycleSimulationIdentityE1 runs the identity contract at the
// benchmark geometry — side 81, q=3, d=7, k=2, two full random batches
// in which every processor accesses a distinct variable — where the
// healthy forward and return legs span the whole machine. Read
// results, StepStats, every ledger span's charged/observed/packets and
// the snapshot bytes of the healthy run must match the same
// configuration with an empty fault map and the cycle loop forced, on
// the mesh and the torus.
func TestEventCycleSimulationIdentityE1(t *testing.T) {
	do := func(torus bool, fm *fault.Map, cycleLoop bool) eventMatrixTrace {
		s, err := New(hmos.Params{Side: 81, Q: 3, D: 7, K: 2}, Config{Torus: torus, Faults: fm})
		if err != nil {
			t.Fatal(err)
		}
		if cycleLoop {
			s.eng.ForceCycleLoop()
		}
		n, nv := s.M.N, s.Scheme().Vars()
		rng := rand.New(rand.NewSource(81))
		var r eventMatrixTrace
		for step := 0; step < 2; step++ {
			ops := make([]Op, n)
			for pid, v := range rng.Perm(nv)[:n] {
				ops[pid] = Op{Origin: pid, Var: v}
				if pid%2 == 0 {
					ops[pid].IsWrite, ops[pid].Value = true, Word(step)<<32|Word(pid+1)
				}
			}
			words, stats, err := s.StepChecked(ops)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			r.words = append(r.words, words)
			r.stats = append(r.stats, stats)
			r.reports = append(r.reports, s.LastReport().String())
			r.spans = append(r.spans, flattenSpans(s.Ledger().Last(), nil))
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		r.snapshot = buf.Bytes()
		return r
	}
	for _, torus := range []bool{false, true} {
		label := fmt.Sprintf("side=81/torus=%v", torus)
		requireSameTrace(t, label, do(torus, fault.NewMap(81), true), do(torus, nil, false))
	}
}
