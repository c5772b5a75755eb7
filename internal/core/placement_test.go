package core

import (
	"math/rand"
	"testing"
)

// TestCarriedPlacementMatchesSlotPlace: every packet carries its copy's
// placement from selection to the access (see pkt). After each step,
// every packet's (page, r1) must equal SlotPlace of its slot, its
// destination must be the copy's home resolved through the remap table,
// and foreign must say whether the two differ. A wrong carried rank
// would otherwise surface only as a wrong word in some later read.
// Runs on a healthy machine, under module deaths with eager repair
// (remapped homes, so the foreign path runs) and under ROWA with and
// without faults.
func TestCarriedPlacementMatchesSlotPlace(t *testing.T) {
	cases := []struct {
		name        string
		sim         func() *Simulator
		wantForeign bool
	}{
		{"healthy", func() *Simulator { return MustNew(smallParams, Config{}) }, false},
		{"eager-remap", func() *Simulator { return schedSim(t, killHostsSchedule(t, 0, 5), RepairEager) }, true},
		{"rowa", func() *Simulator {
			return MustNew(smallParams, Config{Policy: ReadOneWriteAllPolicy})
		}, false},
		{"rowa-eager-remap", func() *Simulator {
			s, err := New(smallParams, Config{Policy: ReadOneWriteAllPolicy,
				Schedule: killHostsSchedule(t, 0, 5), Repair: RepairEager})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := c.sim()
			rng := rand.New(rand.NewSource(23))
			n, foreign := sim.M.N, 0
			for step := 0; step < 12; step++ {
				// Variable 0 (whose hosts the fault cases kill) is in
				// every batch, written on even steps and read on odd ones.
				batch := 1 + rng.Intn(n)
				ops := make([]Op, 0, batch)
				ops = append(ops, Op{Origin: rng.Intn(n), Var: 0, IsWrite: step%2 == 0, Value: Word(step + 1)})
				for _, v := range rng.Perm(sim.S.Vars() - 1)[:batch-1] {
					ops = append(ops, Op{Origin: rng.Intn(n), Var: v + 1, IsWrite: rng.Intn(2) == 0, Value: rng.Int63()})
				}
				if _, _, err := sim.StepChecked(ops); err != nil {
					t.Fatal(err)
				}
				if len(sim.pk) == 0 {
					t.Fatalf("step %d routed no packets", step)
				}
				for h, pk := range sim.pk {
					page, r1, home := sim.S.SlotPlace(pk.slot)
					host, err := sim.resolveProc(home)
					if err != nil {
						t.Fatal(err)
					}
					if int(pk.page) != page || int(pk.r1) != r1 || int(pk.dest) != host || pk.foreign != (host != home) {
						t.Fatalf("step %d packet %d (slot %d): carried (page %d, r1 %d, dest %d, foreign %v), want (%d, %d, %d, %v)",
							step, h, pk.slot, pk.page, pk.r1, pk.dest, pk.foreign, page, r1, host, host != home)
					}
					if pk.foreign {
						foreign++
					}
				}
			}
			if c.wantForeign && foreign == 0 {
				t.Fatal("no packet reached a remapped copy: the foreign path never ran")
			}
			if !c.wantForeign && foreign != 0 {
				t.Fatalf("%d foreign packets without a remap", foreign)
			}
		})
	}
}
