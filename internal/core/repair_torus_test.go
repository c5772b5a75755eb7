package core

import (
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/hmos"
)

// TestTorusScrubUsesWrapLinks runs one scrub on a mesh and on a torus
// simulator that hold the same data and lose the same module. Placement,
// remap and the scrub's packets do not depend on the links, so both
// scrubs rebuild the same copies; the torus one routes over the wrap
// links as well and must charge no more cycles. Losing a module on the
// bottom edge sends repair packets from the top rows, which the wrap
// links bring closer: there the torus scrub must charge strictly fewer.
func TestTorusScrubUsesWrapLinks(t *testing.T) {
	scrub := func(torus bool, dead int) RepairStats {
		t.Helper()
		sch := fault.NewSchedule(9)
		sch.Add(fault.Event{Step: 1, Kind: fault.EvKillModule, P: dead})
		s, err := New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Schedule: sch, Repair: RepairOff, Torus: torus})
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]Op, 81)
		for i := range ops {
			ops[i] = Op{Origin: i, Var: i, IsWrite: true, Value: Word(1000 + i)}
		}
		for _, batch := range [][]Op{ops, nil} { // the kill applies at step 1
			if _, _, err := s.StepChecked(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RepairNow(); err != nil {
			t.Fatal(err)
		}
		return s.RepairStats()
	}
	for _, c := range []struct {
		name    string
		dead    int
		shorter bool
	}{
		{"centre", 4*9 + 4, false},
		{"corner", 0, false},
		{"bottom edge", 8*9 + 3, true},
	} {
		mesh, torus := scrub(false, c.dead), scrub(true, c.dead)
		if mesh.Repaired == 0 || torus.Repaired != mesh.Repaired || torus.Lost != 0 || mesh.Lost != 0 {
			t.Fatalf("%s: repaired %d on the mesh, %d on the torus (lost %d, %d)",
				c.name, mesh.Repaired, torus.Repaired, mesh.Lost, torus.Lost)
		}
		t.Logf("%s: mesh scrub %d cycles, torus scrub %d cycles, %d copies", c.name, mesh.Steps, torus.Steps, mesh.Repaired)
		if torus.Steps > mesh.Steps || (c.shorter && torus.Steps >= mesh.Steps) {
			t.Errorf("%s: torus scrub charged %d cycles, mesh scrub %d", c.name, torus.Steps, mesh.Steps)
		}
	}
}
