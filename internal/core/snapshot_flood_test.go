package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
)

// TestSnapshotMidFlood takes a snapshot while a fault notice is still
// spreading and restores it into a second simulator whose own gossip
// has long gone quiet. The image does not store the gossip frontier, so
// Restore must re-seed a full round; otherwise the restored view would
// never spread the notice further. Both simulators then run the same
// steps and must agree on reads, StepStats, gossip stats and the final
// snapshot bytes.
//
// The image does not carry the live fault map either (Load keeps the
// events the simulator already applied), so the second simulator first
// replays the same steps to reach the same fault world.
func TestSnapshotMidFlood(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	mk := func() *Simulator {
		sch := fault.NewSchedule(9).
			At(2, fault.EvKillLink, 4*9+4, 4*9+5).
			At(2, fault.EvKillModule, 2*9+2)
		sim, err := New(p, Config{
			Schedule:      sch,
			Repair:        RepairLazy,
			FaultView:     faultview.Local,
			FaultViewSeed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	idle := func(sim *Simulator, steps int) {
		for i := 0; i < steps; i++ {
			if _, _, err := sim.StepChecked(nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Empty steps advance one gossip round each, so after the events
	// apply the notices crawl outward one hop per step.
	a := mk()
	idle(a, 5)
	if a.FaultView().NoticeCount() == 0 || a.FaultView().Quiet() {
		t.Fatalf("setup: want notices still spreading, got %d notices, quiet=%v",
			a.FaultView().NoticeCount(), a.FaultView().Quiet())
	}
	var img bytes.Buffer
	if err := a.Save(&img); err != nil {
		t.Fatal(err)
	}

	b := mk()
	idle(b, 5)
	for i := 0; !b.FaultView().Quiet(); i++ {
		if i > 4*p.Side {
			t.Fatal("setup: the second simulator's view never went quiet")
		}
		idle(b, 1)
	}
	if err := b.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.FaultView().Quiet() {
		t.Fatal("the restored view must be mid-flood")
	}

	rngA, rngB := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
	ops := func(rng *rand.Rand, sim *Simulator) []Op {
		vars := rng.Perm(sim.S.Vars())[:12]
		out := make([]Op, len(vars))
		for i, v := range vars {
			out[i] = Op{Origin: rng.Intn(sim.M.N), Var: v}
			if rng.Intn(2) == 0 {
				out[i].IsWrite, out[i].Value = true, Word(rng.Intn(1<<20))
			}
		}
		return out
	}
	for step := 0; step < 4; step++ {
		// The first step idles: one more gossip round with no routing.
		var opsA, opsB []Op
		if step > 0 {
			opsA, opsB = ops(rngA, a), ops(rngB, b)
		}
		wa, sa, err := a.StepChecked(opsA)
		if err != nil {
			t.Fatal(err)
		}
		wb, sb, err := b.StepChecked(opsB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wa, wb) {
			t.Fatalf("step %d: reads %v, restored %v", step, wa, wb)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("step %d: stats\n %+v\nrestored\n %+v", step, sa, sb)
		}
		if ga, gb := a.FaultView().Stats(), b.FaultView().Stats(); ga != gb {
			t.Fatalf("step %d: gossip stats %+v, restored %+v", step, ga, gb)
		}
	}
	if !a.FaultView().Quiet() {
		t.Fatal("the flood must have finished by the end of the run")
	}
	var sa, sb bytes.Buffer
	if err := a.Save(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("snapshot bytes differ (%d vs %d bytes)", sa.Len(), sb.Len())
	}
}
