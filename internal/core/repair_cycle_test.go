package core

import (
	"testing"

	"meshpram/internal/fault"
)

// TestRemapKillReviveKillSpare is the regression test for the remap
// cycle that used to hang resolveProc forever: kill module A (remap
// A→S), revive A, then kill the spare S. spareFor(S) must not pick the
// revived A — A still chains to S, so remap[S]=A would close the cycle
// A→S→A. The timeline must complete, the remap table must stay
// acyclic, and the surviving data must still be readable.
func TestRemapKillReviveKillSpare(t *testing.T) {
	// Phase 1: discover which spare S the scrub picks for host A.
	probe := faultSim(t, nil)
	hosts := moduleHosts(probe, 0)
	A := hosts[0]

	sch1 := fault.NewSchedule(9).Add(fault.Event{Step: 1, Kind: fault.EvKillModule, P: A})
	s1 := schedSim(t, sch1, RepairEager)
	if _, _, err := s1.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: 7}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.StepChecked([]Op{{Origin: 0, Var: 0}}); err != nil {
		t.Fatal(err)
	}
	S, ok := s1.remap[A]
	if !ok {
		t.Fatalf("no remap established for %d: %v", A, s1.remap)
	}

	// Phase 2: full timeline. kill A @1, revive A @2, kill S @3.
	sch2 := fault.NewSchedule(9).
		Add(fault.Event{Step: 1, Kind: fault.EvKillModule, P: A}).
		Add(fault.Event{Step: 2, Kind: fault.EvReviveModule, P: A}).
		Add(fault.Event{Step: 3, Kind: fault.EvKillModule, P: S})
	s2 := schedSim(t, sch2, RepairEager)
	var res []Word
	for step := 0; step < 5; step++ {
		op := Op{Origin: 0, Var: 0}
		if step == 0 {
			op.IsWrite, op.Value = true, 7
		}
		var err error
		res, _, err = s2.StepChecked([]Op{op})
		if err != nil {
			t.Fatalf("step %d: %v (remap=%v)", step, err, s2.remap)
		}
	}
	for from := range s2.remap {
		if _, err := s2.resolveProc(from); err != nil {
			t.Fatalf("remap table is cyclic after timeline: %v (%v)", err, s2.remap)
		}
	}
	if sp, ok := s2.remap[S]; ok && sp == A {
		t.Fatalf("spareFor picked the revived origin A=%d for S=%d: cycle %v", A, S, s2.remap)
	}
	if res[0] != 7 {
		t.Fatalf("final read = %d, want 7 (remap=%v, stats=%+v)", res[0], s2.remap, s2.RepairStats())
	}
}

// TestResolveProcCycleErrors pins the backstop beneath the spareFor
// invariant: if a cycle does end up in the table, resolveProc must
// return an error after a bounded walk instead of looping forever, and
// the error must surface through StepChecked.
func TestResolveProcCycleErrors(t *testing.T) {
	s := faultSim(t, fault.NewMap(9))
	// Close a cycle through a module that actually hosts copies of the
	// variable the step touches, so the step's resolution walks it.
	hosts := moduleHosts(s, 0)
	a, b := hosts[0], hosts[1]
	s.remap = map[int]int{a: b, b: a}
	if _, err := s.resolveProc(a); err == nil {
		t.Fatal("resolveProc on a cyclic table returned no error")
	}
	other := 0
	for other == a || other == b {
		other++
	}
	if p, err := s.resolveProc(other); err != nil || p != other {
		t.Fatalf("resolveProc(%d) = %d, %v; want identity, nil (unmapped module must resolve even beside a cycle)", other, p, err)
	}
	// remapReaches must also terminate on the cyclic table (and reject).
	if !s.remapReaches(a, 99) {
		t.Fatal("remapReaches on a cyclic chain must conservatively report true (reject the candidate)")
	}
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}}); err == nil {
		t.Fatal("StepChecked with a cyclic remap table returned no error")
	}
}
