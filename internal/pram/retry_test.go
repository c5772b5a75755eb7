package pram

import (
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/sim"
)

// isolateModule kills every mesh link incident to p, so packets
// addressed to (or staged through) p are lost while the module itself
// stays alive and keeps its data.
func isolateModule(f *fault.Map, side, p int) {
	r, c := p/side, p%side
	if r > 0 {
		f.KillLink(p, p-side)
	}
	if r < side-1 {
		f.KillLink(p, p+side)
	}
	if c > 0 {
		f.KillLink(p, p-1)
	}
	if c < side-1 {
		f.KillLink(p, p+1)
	}
}

// TestRetryRecoversLostPackets drives the checkpointed-retry loop end
// to end: module 9 (a host of variable 0) is link-isolated, so the
// minimal target set loses a packet and the first attempt of each step
// ends unrecoverable. The retry rolls the memory image back and
// re-executes hardened — all copies, extensive quorums — which
// tolerates the isolated copy, so both the write and the read recover.
func TestRetryRecoversLostPackets(t *testing.T) {
	f := fault.NewMap(meshParams.Side)
	isolateModule(f, meshParams.Side, 9)
	mb, err := newMesh(meshParams, core.Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	mb.SetRetryBudget(3)

	if _, err := mb.ExecStep([]Op{{Kind: Write, Addr: 0, Value: 4242}}); err != nil {
		t.Fatal(err)
	}
	if rep := mb.LastReport(); len(rep.Unrecoverable) != 0 {
		t.Fatalf("write did not recover: %v", rep)
	}
	res, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := mb.LastReport(); len(rep.Unrecoverable) != 0 {
		t.Fatalf("read did not recover: %v", rep)
	}
	if res[0] != 4242 {
		t.Fatalf("recovered read = %d, want 4242", res[0])
	}

	rec := mb.Recovery()
	if rec.Retries == 0 || rec.Recovered != 2 || rec.Exhausted != 0 {
		t.Fatalf("recovery stats = %+v, want both steps recovered via retries", rec)
	}
	if rec.Backoff <= 0 {
		t.Fatalf("retries charged no backoff steps: %+v", rec)
	}
	// A recovered step counts as clean in the run total.
	if tot := mb.TotalReport(); tot != nil && len(tot.Unrecoverable) != 0 {
		t.Fatalf("recovered steps leaked into the total: %v", tot)
	}
}

// TestRetryExhaustsOnUnhealableLoss pins the other outcome: when the
// surviving copies genuinely no longer grant root access (five of
// variable 0's host modules dead, no spare data to rebuild from),
// rollback plus eager repair cannot help, the budget runs out, and the
// step is reported unrecoverable with the attempts accounted.
func TestRetryExhaustsOnUnhealableLoss(t *testing.T) {
	probe := testMesh(t)
	hosts := moduleHostsOf(t, probe, 0)
	f := fault.NewMap(meshParams.Side)
	for _, h := range hosts[:5] {
		f.KillModule(h)
	}
	mb, err := newMesh(meshParams, core.Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	mb.SetRetryBudget(2)

	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}}); err != nil {
		t.Fatal(err)
	}
	if rep := mb.LastReport(); len(rep.Unrecoverable) != 1 || rep.Unrecoverable[0] != 0 {
		t.Fatalf("unhealable read = %v, want unrecoverable [0]", rep)
	}
	rec := mb.Recovery()
	if rec.Retries != 2 || rec.Exhausted != 1 || rec.Recovered != 0 {
		t.Fatalf("recovery stats = %+v, want 2 retries, 1 exhausted", rec)
	}
	// Backoff doubles per attempt: 1 + 2.
	if rec.Backoff != 3 {
		t.Fatalf("backoff = %d steps, want 3", rec.Backoff)
	}
}

// TestRollbackCapStopsLivelock pins the run-wide rollback cap: with an
// unhealable loss every step would burn its full per-step budget
// forever (a livelocked schedule hiding behind backoff). The cap cuts
// the run off after 3 total rollbacks — the first step exhausts its
// budget of 2, the second gets one rollback then hits the cap, the
// third is denied any rollback — and RecoveryStats reports the capped
// steps distinctly from budget-exhausted ones.
func TestRollbackCapStopsLivelock(t *testing.T) {
	probe := testMesh(t)
	hosts := moduleHostsOf(t, probe, 0)
	f := fault.NewMap(meshParams.Side)
	for _, h := range hosts[:5] {
		f.KillModule(h)
	}
	mb, err := newMesh(meshParams, core.Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	mb.SetRetryBudget(2)
	mb.rollbackCap = 3

	for i := 0; i < 3; i++ {
		if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}}); err != nil {
			t.Fatal(err)
		}
		if rep := mb.LastReport(); len(rep.Unrecoverable) != 1 {
			t.Fatalf("step %d: report %v, want unrecoverable [0]", i, rep)
		}
	}

	rec := mb.Recovery()
	if rec.Retries != 3 {
		t.Errorf("retries = %d, want the cap of 3", rec.Retries)
	}
	if rec.Exhausted != 1 || rec.Capped != 2 {
		t.Errorf("recovery stats = %+v, want 1 exhausted, 2 capped", rec)
	}
	if rec.Recovered != 0 {
		t.Errorf("recovered = %d on an unhealable loss", rec.Recovered)
	}
	// Backoff stops accumulating once the cap bites: 1+2 from step one,
	// 1 from step two's single attempt, none from step three.
	if rec.Backoff != 4 {
		t.Errorf("backoff = %d steps, want 4", rec.Backoff)
	}

	// Capped steps still run once and report honest degradation.
	if tot := mb.TotalReport(); tot == nil || len(tot.Unrecoverable) != 3 {
		t.Errorf("total report %v, want 3 unrecoverable step entries", tot)
	}

	// The default cap follows the budget.
	mb2, err := newMesh(meshParams, core.Config{Faults: fault.NewMap(meshParams.Side)})
	if err != nil {
		t.Fatal(err)
	}
	mb2.SetRetryBudget(2)
	if mb2.rollbackCap != 2*rollbackCapFactor {
		t.Errorf("default cap = %d, want %d", mb2.rollbackCap, 2*rollbackCapFactor)
	}
}

// TestRetryBudgetBound pins the retry budget's bound: a budget above
// sim.MaxRetry is clamped to it, and a step that exhausts the full
// bound charges 2^MaxRetry − 1 backoff steps — positive and unwrapped.
func TestRetryBudgetBound(t *testing.T) {
	probe := testMesh(t)
	hosts := moduleHostsOf(t, probe, 0)
	f := fault.NewMap(meshParams.Side)
	for _, h := range hosts[:5] {
		f.KillModule(h)
	}
	mb, err := newMesh(meshParams, core.Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	mb.SetRetryBudget(64)

	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}}); err != nil {
		t.Fatal(err)
	}
	rec := mb.Recovery()
	if rec.Retries != sim.MaxRetry || rec.Exhausted != 1 {
		t.Fatalf("recovery stats = %+v, want %d retries, 1 exhausted", rec, sim.MaxRetry)
	}
	if want := int64(1)<<sim.MaxRetry - 1; rec.Backoff != want {
		t.Errorf("backoff = %d steps, want %d", rec.Backoff, want)
	}
	if steps := mb.Steps(); steps <= rec.Backoff {
		t.Errorf("Steps() = %d, want above the %d backoff steps", steps, rec.Backoff)
	}
}

// TestRetryBudgetZeroNeverSnapshots is the degenerate case: without a
// budget the wrapper must not checkpoint, retry, or touch the
// recovery counters even when a step fails.
func TestRetryBudgetZeroNeverSnapshots(t *testing.T) {
	probe := testMesh(t)
	hosts := moduleHostsOf(t, probe, 0)
	f := fault.NewMap(meshParams.Side)
	for _, h := range hosts[:5] {
		f.KillModule(h)
	}
	mb, err := newMesh(meshParams, core.Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}}); err != nil {
		t.Fatal(err)
	}
	if rep := mb.LastReport(); len(rep.Unrecoverable) != 1 {
		t.Fatalf("expected the plain unrecoverable verdict, got %v", rep)
	}
	if rec := mb.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("recovery stats moved without a budget: %+v", rec)
	}
}

// moduleHostsOf lists the distinct modules hosting copies of variable
// v, in leaf order (the pram-layer twin of the core test helper).
func moduleHostsOf(t testing.TB, mb *Mesh, v int) []int {
	t.Helper()
	s := mb.Sim.Scheme()
	seen := map[int]bool{}
	var hosts []int
	for _, c := range s.Copies(v, nil) {
		if !seen[c.Proc] {
			seen[c.Proc] = true
			hosts = append(hosts, c.Proc)
		}
	}
	return hosts
}
