package meshpram_test

import (
	"reflect"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/workload"
)

// TestEngineEquivalence runs the same steps on two simulators built
// from one configuration. The cost model is deterministic, so
// everything — read results, per-phase stats, the machine step
// counter, and the ledger's phase totals — must be identical.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("n=729 machine is slow in -short mode")
	}
	p := hmos.Params{Side: 27, Q: 3, D: 4, K: 2}
	a := mustNew(p, core.Config{})
	b := mustNew(p, core.Config{})
	n := a.Mesh().N
	for step := 0; step < 2; step++ {
		vars := workload.RandomDistinct(a.Scheme().Vars(), n, 42+int64(step))
		ops := vars.Mixed(1000)
		resA, stA := a.Step(ops)
		resB, stB := b.Step(ops)
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("step%d: results differ between runs", step)
		}
		if !reflect.DeepEqual(stA, stB) {
			t.Errorf("step%d: stats differ:\nfirst  %+v\nsecond %+v", step, stA, stB)
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
	}
}
