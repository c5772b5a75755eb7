package meshpram_test

import (
	"bytes"
	"reflect"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/hmos"
	"meshpram/internal/workload"
)

// TestChurnBitIdentity runs the same seeded RECOVER timeline twice and
// asserts the two runs are bit-identical: per-step read results,
// degradation reports, repair counters, the machine step counter, the
// ledger's phase totals, and — the strictest check — the raw snapshot
// bytes of the final memory image. This pins the determinism work the
// detlint suite enforces statically: sorted iteration on the repair
// path (spareFor's claimed set), deterministic spare selection, and the
// map-free snapshot wire format. Any randomized map order sneaking back
// into those paths shows up here as a diff.
func TestChurnBitIdentity(t *testing.T) {
	churn := fault.Churn{ModuleRate: 0.02, Repair: 4, Horizon: 8, Seed: 7}
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}

	type run struct {
		results [][]core.Word
		reports []*fault.StepReport
		rstats  core.RepairStats
		steps   int64
		phases  [][]int64
		image   []byte
	}
	execute := func() run {
		// Each run builds its own schedule from the same churn spec, so
		// Build's determinism is pinned along with the simulation's.
		sim := mustNew(p, core.Config{
			Schedule: churn.Build(p.Side),
			Repair:   core.RepairEager,
		})
		n := sim.Mesh().N
		var r run
		for step := 0; step < 10; step++ {
			vars := workload.RandomDistinct(sim.Scheme().Vars(), n, 1000+int64(step))
			ops := vars.Mixed(60)
			res, _, err := sim.StepChecked(ops)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			r.results = append(r.results, res)
			r.reports = append(r.reports, sim.LastReport())
			pt := sim.Ledger().Last().PhaseTotals()
			r.phases = append(r.phases, append([]int64(nil), pt[:]...))
		}
		r.rstats = sim.RepairStats()
		r.steps = sim.Mesh().Steps()
		var buf bytes.Buffer
		if err := sim.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r.image = buf.Bytes()
		return r
	}

	a := execute()
	if a.rstats.ModuleDeaths == 0 {
		t.Fatalf("timeline delivered no module deaths; the fixture is vacuous (stats %+v)", a.rstats)
	}
	b := execute()
	if a.rstats != b.rstats {
		t.Errorf("RepairStats differ:\n  a %+v\n  b %+v", a.rstats, b.rstats)
	}
	if a.steps != b.steps {
		t.Errorf("mesh steps differ: %d vs %d", a.steps, b.steps)
	}
	if !reflect.DeepEqual(a.results, b.results) {
		t.Error("read results differ")
	}
	if !reflect.DeepEqual(a.reports, b.reports) {
		t.Error("degradation reports differ")
	}
	if !reflect.DeepEqual(a.phases, b.phases) {
		t.Errorf("ledger phase totals differ:\n  a %v\n  b %v", a.phases, b.phases)
	}
	if !bytes.Equal(a.image, b.image) {
		t.Errorf("snapshot images differ (%d vs %d bytes): Save is not deterministic",
			len(a.image), len(b.image))
	}
}
