package meshpram_test

import (
	"reflect"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/hmos"
	"meshpram/internal/workload"
)

// TestEngineEquivalenceUnderFaults is TestEngineEquivalence with a live
// fault schedule and eager repair: two simulators replay the identical
// churn timeline and must produce identical verdicts — read results,
// degradation reports (dead origins, lost packets, unrecoverable ops),
// repair counters — and identical accounting (machine steps, ledger
// totals, phase totals).
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("n=729 machine is slow in -short mode")
	}
	p := hmos.Params{Side: 27, Q: 3, D: 4, K: 2}
	churn := fault.Churn{ModuleRate: 0.004, Repair: 2, Horizon: 3, Seed: 11}
	mk := func() *core.Simulator {
		return core.MustNew(p, core.Config{
			Schedule: churn.Build(p.Side),
			Repair:   core.RepairEager,
		})
	}
	a, b := mk(), mk()
	n := a.Mesh().N
	sawDeath := false
	for step := 0; step < 3; step++ {
		vars := workload.RandomDistinct(a.Scheme().Vars(), n, 42+int64(step))
		ops := vars.Mixed(1000)
		resA, stA, errA := a.StepChecked(ops)
		if errA != nil {
			t.Fatalf("step%d: first run error %v", step, errA)
		}
		resB, stB, errB := b.StepChecked(ops)
		if errB != nil {
			t.Fatalf("step%d: second run error %v", step, errB)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("step%d: results differ between runs", step)
		}
		if !reflect.DeepEqual(stA, stB) {
			t.Errorf("step%d: stats differ:\nfirst  %+v\nsecond %+v", step, stA, stB)
		}
		if !reflect.DeepEqual(a.LastReport(), b.LastReport()) {
			t.Errorf("step%d: degradation verdicts differ:\nfirst  %+v\nsecond %+v",
				step, a.LastReport(), b.LastReport())
		}
		if sa, sb := a.Mesh().Steps(), b.Mesh().Steps(); sa != sb {
			t.Errorf("step%d: mesh steps %d != %d", step, sa, sb)
		}
		rootA, rootB := a.Ledger().Last(), b.Ledger().Last()
		if rootA == nil || rootB == nil {
			t.Fatalf("step%d: missing ledger tree", step)
		}
		if ta, tb := rootA.Total(), rootB.Total(); ta != tb {
			t.Errorf("step%d: ledger totals %d != %d", step, ta, tb)
		}
		if pa, pb := rootA.PhaseTotals(), rootB.PhaseTotals(); pa != pb {
			t.Errorf("step%d: ledger phase totals %v != %v", step, pa, pb)
		}
		if a.RepairStats().ModuleDeaths > 0 {
			sawDeath = true
		}
	}
	if ra, rb := a.RepairStats(), b.RepairStats(); ra != rb {
		t.Errorf("repair stats differ:\nfirst  %+v\nsecond %+v", ra, rb)
	}
	if !sawDeath {
		t.Fatal("timeline delivered no module deaths; the fixture is vacuous")
	}
}
