package core

import (
	"bytes"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/hmos"
)

// schedSim builds the standard fault-test machine (side 9, q=3, d=3,
// k=2) driven by a dynamic schedule and the given repair policy.
func schedSim(t testing.TB, sch *fault.Schedule, pol RepairPolicy) *Simulator {
	t.Helper()
	s, err := New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2},
		Config{Schedule: sch, Repair: pol})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// killHostsSchedule kills the first n host modules of variable v, one
// per step starting at step 1, so the write at step 1 lands on a
// healthy machine and each later read sees one more death.
func killHostsSchedule(t testing.TB, v, n int) *fault.Schedule {
	t.Helper()
	probe := faultSim(t, nil)
	hosts := moduleHosts(probe, v)
	if len(hosts) < n {
		t.Fatalf("variable %d spans only %d modules, need %d", v, len(hosts), n)
	}
	sch := fault.NewSchedule(9)
	for i := 0; i < n; i++ {
		sch.At(int64(i+1), fault.EvKillModule, hosts[i])
	}
	return sch
}

// TestEagerRepairHealsSequentialDeaths is the acceptance scenario: the
// five modules hosting variable 0 die one per step. Under RepairEager
// every lost copy is rebuilt from the surviving majority before the
// next read, so all reads return the written value with zero
// unrecoverable ops. The identical timeline under RepairOff provably
// degrades once the fifth death breaks the majority.
func TestEagerRepairHealsSequentialDeaths(t *testing.T) {
	const val = 4242

	run := func(pol RepairPolicy) (*Simulator, []*fault.StepReport, []Word) {
		s := schedSim(t, killHostsSchedule(t, 0, 5), pol)
		if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: val}}); err != nil {
			t.Fatal(err)
		}
		if rep := s.LastReport(); rep.Degraded() {
			t.Fatalf("%v: write step before any death degraded: %v", pol, rep)
		}
		var reps []*fault.StepReport
		var vals []Word
		for step := 0; step < 6; step++ {
			res, _, err := s.StepChecked([]Op{{Origin: step, Var: 0}})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, s.LastReport())
			vals = append(vals, res[0])
		}
		return s, reps, vals
	}

	// Eager: every read is correct and clean, even with all five
	// original hosts dead by the last two reads.
	s, reps, vals := run(RepairEager)
	for i, rep := range reps {
		if len(rep.Unrecoverable) != 0 {
			t.Errorf("eager read %d unrecoverable: %v", i, rep)
		}
		if vals[i] != val {
			t.Errorf("eager read %d = %d, want %d", i, vals[i], val)
		}
	}
	rs := s.RepairStats()
	if rs.ModuleDeaths != 5 {
		t.Errorf("eager ModuleDeaths = %d, want 5", rs.ModuleDeaths)
	}
	if rs.Scrubs == 0 || rs.Repaired == 0 {
		t.Errorf("eager repair never ran: %+v", rs)
	}
	if rs.Residual != 0 {
		t.Errorf("eager left %d residual copies with no link faults", rs.Residual)
	}
	if rs.Remapped == 0 {
		t.Errorf("eager never remapped a dead module: %+v", rs)
	}
	if rs.Steps <= 0 {
		t.Errorf("repair charged %d steps, want > 0", rs.Steps)
	}

	// Off: the same timeline degrades. The first four deaths are within
	// the majority margin (cf. TestMajorityToleratesDeadCopies); the
	// fifth breaks it and the read becomes unrecoverable.
	s, reps, vals = run(RepairOff)
	for i := 0; i < 4; i++ {
		if len(reps[i].Unrecoverable) != 0 {
			t.Errorf("off read %d (%d deaths) unrecoverable: %v", i, i+1, reps[i])
		}
		if vals[i] != val {
			t.Errorf("off read %d = %d, want %d", i, vals[i], val)
		}
	}
	for i := 4; i < 6; i++ {
		if got := reps[i].Unrecoverable; len(got) != 1 || got[0] != 0 {
			t.Errorf("off read %d (5 deaths) Unrecoverable = %v, want [0]", i, got)
		}
	}
	rs = s.RepairStats()
	if rs.ModuleDeaths != 5 || rs.Scrubs != 0 || rs.Repaired != 0 {
		t.Errorf("off must count deaths but never scrub: %+v", rs)
	}
}

// TestLazyRepairWaitsForTouch pins the Lazy policy contract: a death
// is recorded immediately, but the scrub runs only when a later step
// touches the degraded world — idle steps never repair.
func TestLazyRepairWaitsForTouch(t *testing.T) {
	const val = 99
	s := schedSim(t, killHostsSchedule(t, 0, 1), RepairLazy)
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: val}}); err != nil {
		t.Fatal(err)
	}
	// Idle step: the step-1 kill applies, but Lazy must not scrub yet.
	if _, _, err := s.StepChecked(nil); err != nil {
		t.Fatal(err)
	}
	rs := s.RepairStats()
	if rs.ModuleDeaths != 1 {
		t.Fatalf("death not applied on the idle step: %+v", rs)
	}
	if rs.Scrubs != 0 {
		t.Fatalf("lazy policy scrubbed on an idle step: %+v", rs)
	}
	// First touch triggers the scrub and the read is already healed.
	res, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.LastReport(); len(rep.Unrecoverable) != 0 {
		t.Fatalf("lazy read after scrub unrecoverable: %v", rep)
	}
	if res[0] != val {
		t.Fatalf("lazy read = %d, want %d", res[0], val)
	}
	if rs = s.RepairStats(); rs.Scrubs != 1 {
		t.Fatalf("touch did not trigger exactly one scrub: %+v", rs)
	}
}

// TestSnapshotRoundTripUnderRepair checks that Save/Load carries the
// self-healing state: quarantined slots and the pending-death list
// before a scrub, and the spare-module remap after one. A restored
// image must neither serve a lost copy as fresh nor look for relocated
// copies at their original homes.
func TestSnapshotRoundTripUnderRepair(t *testing.T) {
	const val = 314
	s := schedSim(t, killHostsSchedule(t, 0, 1), RepairLazy)
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: val}}); err != nil {
		t.Fatal(err)
	}
	// Idle step applies the kill: quarantine and pending are live,
	// no scrub has run yet.
	if _, _, err := s.StepChecked(nil); err != nil {
		t.Fatal(err)
	}

	var preScrub bytes.Buffer
	if err := s.Save(&preScrub); err != nil {
		t.Fatal(err)
	}

	// Touch: the lazy scrub runs and relocates the dead module's copies.
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}}); err != nil {
		t.Fatal(err)
	}
	if s.RepairStats().Scrubs != 1 {
		t.Fatalf("expected one scrub, got %+v", s.RepairStats())
	}

	var postScrub bytes.Buffer
	if err := s.Save(&postScrub); err != nil {
		t.Fatal(err)
	}

	// Overwrite the variable, then roll back to the post-scrub image:
	// the read must resolve the relocated copies and see the old value.
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: 777}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(bytes.NewReader(postScrub.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != val || len(s.LastReport().Unrecoverable) != 0 {
		t.Fatalf("post-scrub restore: read = %d (%v), want %d clean",
			res[0], s.LastReport(), val)
	}

	// Roll back further, to before the scrub: quarantine and pending
	// must come back with the image, so the next touch re-heals from
	// scratch instead of trusting blank relocated copies.
	if err := s.Load(bytes.NewReader(preScrub.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, _, err = s.StepChecked([]Op{{Origin: 0, Var: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != val || len(s.LastReport().Unrecoverable) != 0 {
		t.Fatalf("pre-scrub restore: read = %d (%v), want %d clean",
			res[0], s.LastReport(), val)
	}
	if rs := s.RepairStats(); rs.Scrubs < 2 {
		t.Fatalf("restored pre-scrub image did not re-trigger the scrub: %+v", rs)
	}
}

// TestRepairNowRederivesPendingWork pins the rollback entry point used
// by the pram retry loop: RepairNow must find every dead module from
// the live fault map alone — not trust whatever pending list the
// current image happens to hold — and heal eagerly, without
// double-counting deaths that were already recorded.
func TestRepairNowRederivesPendingWork(t *testing.T) {
	const val = 2718
	s := schedSim(t, killHostsSchedule(t, 0, 2), RepairOff)
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0, IsWrite: true, Value: val}}); err != nil {
		t.Fatal(err)
	}
	// Three idle steps apply both kills; Off never scrubs.
	for i := 0; i < 3; i++ {
		if _, _, err := s.StepChecked(nil); err != nil {
			t.Fatal(err)
		}
	}
	rs := s.RepairStats()
	if rs.ModuleDeaths != 2 || rs.Scrubs != 0 {
		t.Fatalf("setup: %+v", rs)
	}
	if err := s.RepairNow(); err != nil {
		t.Fatal(err)
	}
	rs = s.RepairStats()
	if rs.Scrubs != 1 || rs.Repaired == 0 {
		t.Fatalf("RepairNow did not heal: %+v", rs)
	}
	if rs.ModuleDeaths != 2 {
		t.Fatalf("RepairNow double-counted deaths: %+v", rs)
	}
	res, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != val || len(s.LastReport().Unrecoverable) != 0 {
		t.Fatalf("read after RepairNow = %d (%v), want %d clean",
			res[0], s.LastReport(), val)
	}
}
