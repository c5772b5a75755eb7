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
	"meshpram/internal/route"
	"meshpram/internal/trace"
)

// The event-skip routing engine must be invisible at the protocol
// level: a full simulation run under route.ModeEvent produces, step by
// step, the same read results, the same StepStats, the same fault
// reports and — after the run — the same snapshot bytes as the
// cycle-stepped reference. This is the end-to-end half of the
// bit-identity contract (the packet-level half lives in
// internal/route/event_identity_test.go).

// eventMatrixTrace is everything observable from one simulation run.
type eventMatrixTrace struct {
	words    [][]Word
	stats    []*StepStats
	reports  []string
	snapshot []byte
}

// runEventMatrix executes a seeded mixed read/write workload and
// captures every observable output.
func runEventMatrix(t *testing.T, mode route.EngineMode, torus bool, fm *fault.Map, sch *fault.Schedule, workers int) eventMatrixTrace {
	return runViewMatrix(t, mode, faultview.Global, torus, fm, sch, workers)
}

// runViewMatrix is runEventMatrix with an explicit fault-view mode.
func runViewMatrix(t *testing.T, mode route.EngineMode, view faultview.Mode, torus bool, fm *fault.Map, sch *fault.Schedule, workers int) eventMatrixTrace {
	t.Helper()
	cfg := Config{
		Workers:       workers,
		Torus:         torus,
		EngineMode:    mode,
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
func requireSameTrace(t *testing.T, label string, cyc, evt eventMatrixTrace) {
	t.Helper()
	for i := range cyc.words {
		if !reflect.DeepEqual(cyc.words[i], evt.words[i]) {
			t.Errorf("%s: step %d read results diverge: cycle %v, event %v",
				label, i, cyc.words[i], evt.words[i])
		}
		if !reflect.DeepEqual(cyc.stats[i], evt.stats[i]) {
			t.Errorf("%s: step %d stats diverge:\n cycle %+v\n event %+v",
				label, i, cyc.stats[i], evt.stats[i])
		}
		if cyc.reports[i] != evt.reports[i] {
			t.Errorf("%s: step %d fault report diverges:\n cycle %s\n event %s",
				label, i, cyc.reports[i], evt.reports[i])
		}
	}
	if !bytes.Equal(cyc.snapshot, evt.snapshot) {
		t.Errorf("%s: snapshot bytes diverge (%d vs %d bytes)",
			label, len(cyc.snapshot), len(evt.snapshot))
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
		At(2, fault.EvKillModule, 3*9+4).
		At(3, fault.EvSlowLink, 1*9+6, 2*9+6, 3).
		At(4, fault.EvKillLink, 5*9+1, 5*9+2).
		At(6, fault.EvHealLink, 5*9+1, 5*9+2)
}

// TestEventCycleSimulationIdentity is the acceptance matrix:
// {mesh, torus} × {fault-free, static faults, churn schedule} ×
// workers {1, 4, 8}, asserting identical delivered contents (read
// results), charged cycles (StepStats), lost counts (fault reports)
// and snapshot bytes between route.ModeCycle and route.ModeEvent.
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
			for _, workers := range []int{1, 4, 8} {
				label := fmt.Sprintf("torus=%v/%s/workers=%d", torus, fc.name, workers)
				var fm *fault.Map
				var sch *fault.Schedule
				if fc.fm != nil {
					fm = fc.fm()
				}
				if fc.sch != nil {
					sch = fc.sch()
				}
				cyc := runEventMatrix(t, route.ModeCycle, torus, fm, sch, workers)
				evt := runEventMatrix(t, route.ModeEvent, torus, fm, sch, workers)
				requireSameTrace(t, label, cyc, evt)
			}
		}
	}
}

// TestLocalViewSimulationIdentity is the local-fault-view half of the
// acceptance matrix: under FaultView=Local with a churn schedule, runs
// are bit-identical (read results, StepStats, fault reports, snapshot
// bytes including the gossip view state) across worker widths {1,4,8},
// across double runs of the same width, and between route.ModeCycle
// and route.ModeEvent — for both mesh and torus topologies.
func TestLocalViewSimulationIdentity(t *testing.T) {
	for _, torus := range []bool{false, true} {
		ref := runViewMatrix(t, route.ModeCycle, faultview.Local, torus, nil, churnEventSchedule(), 1)
		if len(ref.snapshot) == 0 {
			t.Fatal("local-view snapshot is empty")
		}
		for _, workers := range []int{1, 4, 8} {
			for run := 0; run < 2; run++ {
				label := fmt.Sprintf("torus=%v/local-churn/workers=%d/run=%d", torus, workers, run)
				got := runViewMatrix(t, route.ModeCycle, faultview.Local, torus, nil, churnEventSchedule(), workers)
				requireSameTrace(t, label, ref, got)
				evt := runViewMatrix(t, route.ModeEvent, faultview.Local, torus, nil, churnEventSchedule(), workers)
				requireSameTrace(t, label+"/event", ref, evt)
			}
		}
		// Static faults are boot knowledge under the local view: beliefs
		// start exact, so the run must match the global view bit for bit
		// — except for the snapshot, which appends the (empty-log) view
		// state in local mode.
		glob := runViewMatrix(t, route.ModeEvent, faultview.Global, torus, staticEventFaults(), nil, 4)
		loc := runViewMatrix(t, route.ModeEvent, faultview.Local, torus, staticEventFaults(), nil, 4)
		label := fmt.Sprintf("torus=%v/local-static-vs-global", torus)
		loc.snapshot = loc.snapshot[:0]
		glob.snapshot = glob.snapshot[:0]
		requireSameTrace(t, label, glob, loc)
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

// TestEventCycleSimulationIdentityE1 runs the identity contract at the
// benchmark geometry — side 81, q=3, d=7, k=2, two full random batches
// in which every processor accesses a distinct variable — where the
// healthy forward and return legs span the whole machine. Read
// results, StepStats, every ledger span's charged/observed/packets and
// the snapshot bytes must match between route.ModeCycle and
// route.ModeEvent, on the mesh and the torus.
func TestEventCycleSimulationIdentityE1(t *testing.T) {
	type run struct {
		eventMatrixTrace
		spans [][]spanRow
	}
	do := func(mode route.EngineMode, torus bool) run {
		s, err := New(hmos.Params{Side: 81, Q: 3, D: 7, K: 2}, Config{Torus: torus, EngineMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		n, nv := s.M.N, s.Scheme().Vars()
		rng := rand.New(rand.NewSource(81))
		var r run
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
		cyc, evt := do(route.ModeCycle, torus), do(route.ModeEvent, torus)
		requireSameTrace(t, label, cyc.eventMatrixTrace, evt.eventMatrixTrace)
		for i := range cyc.spans {
			if !reflect.DeepEqual(cyc.spans[i], evt.spans[i]) {
				t.Errorf("%s: step %d ledger spans diverge", label, i)
			}
		}
	}
}
