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
// protocol level: a healthy simulation run produces, step by step, the
// same read results, the same StepStats, the same fault reports and —
// after the run — the same snapshot bytes as the same configuration
// with an empty fault map, which routes every packet through the
// engine's cycle-stepped loop. This is the end-to-end half of the
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
func runEventMatrix(t *testing.T, torus bool, fm *fault.Map, sch *fault.Schedule) eventMatrixTrace {
	return runViewMatrix(t, faultview.Global, torus, fm, sch)
}

// runViewMatrix is runEventMatrix with an explicit fault-view mode.
func runViewMatrix(t *testing.T, view faultview.Mode, torus bool, fm *fault.Map, sch *fault.Schedule) eventMatrixTrace {
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
		At(2, fault.EvKillModule, 3*9+4).
		At(3, fault.EvSlowLink, 1*9+6, 2*9+6, 3).
		At(4, fault.EvKillLink, 5*9+1, 5*9+2).
		At(6, fault.EvHealLink, 5*9+1, 5*9+2)
}

// TestEventCycleSimulationIdentity is the acceptance matrix:
// {mesh, torus} × {fault-free, static faults, churn schedule},
// asserting identical delivered contents (read results), charged
// cycles (StepStats), lost counts (fault reports) and snapshot bytes
// between a reference run and two more runs. The fault-free runs route
// on the healthy path; their reference is the same configuration with
// an empty fault map, which routes through the cycle loop. The faulted
// rows run the cycle loop throughout and are their own reference.
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
			ref := runEventMatrix(t, torus, refMap, sch)
			for run := 0; run < 2; run++ {
				label := fmt.Sprintf("torus=%v/%s/run=%d", torus, fc.name, run)
				got := runEventMatrix(t, torus, fm, sch)
				requireSameTrace(t, label, ref, got)
			}
		}
	}
}

// TestLocalViewSimulationIdentity is the local-fault-view half of the
// acceptance matrix: under FaultView=Local with a churn schedule, runs
// are bit-identical (read results, StepStats, fault reports, snapshot
// bytes including the gossip view state) across double runs and with
// the schedule applied over an explicit empty fault map instead of the
// simulator's own — for both mesh and torus topologies.
func TestLocalViewSimulationIdentity(t *testing.T) {
	for _, torus := range []bool{false, true} {
		ref := runViewMatrix(t, faultview.Local, torus, nil, churnEventSchedule())
		if len(ref.snapshot) == 0 {
			t.Fatal("local-view snapshot is empty")
		}
		for run := 0; run < 2; run++ {
			label := fmt.Sprintf("torus=%v/local-churn/run=%d", torus, run)
			got := runViewMatrix(t, faultview.Local, torus, nil, churnEventSchedule())
			requireSameTrace(t, label, ref, got)
			empty := runViewMatrix(t, faultview.Local, torus, fault.NewMap(9), churnEventSchedule())
			requireSameTrace(t, label+"/empty-map", ref, empty)
		}
		// Static faults are boot knowledge under the local view: beliefs
		// start exact, so the run must match the global view bit for bit
		// — except for the snapshot, which appends the (empty-log) view
		// state in local mode.
		glob := runViewMatrix(t, faultview.Global, torus, staticEventFaults(), nil)
		loc := runViewMatrix(t, faultview.Local, torus, staticEventFaults(), nil)
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
// the snapshot bytes of the healthy run must match the same
// configuration with an empty fault map (the cycle loop), on the mesh
// and the torus.
func TestEventCycleSimulationIdentityE1(t *testing.T) {
	type run struct {
		eventMatrixTrace
		spans [][]spanRow
	}
	do := func(torus bool, fm *fault.Map) run {
		s, err := New(hmos.Params{Side: 81, Q: 3, D: 7, K: 2}, Config{Torus: torus, Faults: fm})
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
		ref, got := do(torus, fault.NewMap(81)), do(torus, nil)
		requireSameTrace(t, label, ref.eventMatrixTrace, got.eventMatrixTrace)
		for i := range ref.spans {
			if !reflect.DeepEqual(ref.spans[i], got.spans[i]) {
				t.Errorf("%s: step %d ledger spans diverge", label, i)
			}
		}
	}
}
