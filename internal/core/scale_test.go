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
)

// Large-n acceptance tests for the compact-state layer: the slab store,
// the streaming snapshot format and rerun determinism must hold at
// n ≥ 10^5, not just on the side-9 fixtures. Side 324 gives
// n = 104,976 with the SCALE scheme (q=3, d=4, k=2, M=1080) — the
// smallest valid side (multiple of 27) above 10^5 processors, chosen
// because the local fault view's gossip makes churn steps cost minutes
// at side 486.

func largeParams() hmos.Params { return hmos.Params{Side: 324, Q: 3, D: 4, K: 2} }

// largeChurnSchedule kills two host modules of variable 0 mid-run and
// degrades a link, so the snapshot under test carries quarantine bits,
// a remap-free fault map and a populated local view log.
func largeChurnSchedule(t *testing.T, s *hmos.Scheme) *fault.Schedule {
	t.Helper()
	hosts := s.Copies(0, nil)
	if len(hosts) < 2 {
		t.Fatalf("variable 0 has %d copies", len(hosts))
	}
	return fault.NewSchedule(324).
		Add(fault.Event{Step: 1, Kind: fault.EvKillModule, P: hosts[0].Proc}).
		Add(fault.Event{Step: 2, Kind: fault.EvSlowLink, P: 0, Q: 1, Factor: 3}).
		Add(fault.Event{Step: 2, Kind: fault.EvKillModule, P: hosts[1].Proc})
}

// largeWorkload writes every variable (step 0), then runs mixed steps.
func largeWorkload(t *testing.T, sim *Simulator, steps int, seed int64) [][]Word {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nv := sim.S.Vars()
	var out [][]Word
	for step := 0; step < steps; step++ {
		ops := make([]Op, nv)
		for i, v := range rng.Perm(nv) {
			ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v}
			if step == 0 || rng.Intn(2) == 0 {
				ops[i].IsWrite = true
				ops[i].Value = Word(v*1000 + step)
			}
		}
		words, _, err := sim.StepChecked(ops)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		out = append(out, append([]Word(nil), words...))
	}
	return out
}

// TestLargeMeshSnapshotChurnRoundtrip runs a 100k-processor simulation
// through module churn under the local fault view, snapshots mid-state,
// and requires: byte-deterministic re-save after load, equal clocks,
// and bit-identical behavior of the restored simulator on the
// continuation workload.
func TestLargeMeshSnapshotChurnRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-processor mesh")
	}
	if raceEnabled {
		// The ~20× race slowdown breaks the package timeout (see
		// race_on_test.go).
		t.Skip("sequential capacity test; race covered by the identity matrices")
	}
	p := largeParams()
	mk := func(sch *fault.Schedule) *Simulator {
		sim, err := New(p, Config{
			Schedule:      sch,
			Repair:        RepairLazy,
			FaultView:     faultview.Local,
			FaultViewSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	probe, err := hmos.New(p)
	if err != nil {
		t.Fatal(err)
	}
	sch := largeChurnSchedule(t, probe)
	sim := mk(sch)
	if sim.M.N < 100_000 {
		t.Fatalf("n = %d, want ≥ 10^5", sim.M.N)
	}
	largeWorkload(t, sim, 3, 21)

	var img bytes.Buffer
	if err := sim.Save(&img); err != nil {
		t.Fatal(err)
	}
	restored := mk(sch)
	if err := restored.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.now != sim.now {
		t.Fatalf("clock %d after load, want %d", restored.now, sim.now)
	}
	var again bytes.Buffer
	if err := restored.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), again.Bytes()) {
		t.Fatalf("save → load → save changed the image (%d vs %d bytes)",
			img.Len(), again.Len())
	}

	// The restored simulator must be indistinguishable on continuation.
	a := largeWorkload(t, sim, 2, 22)
	b := largeWorkload(t, restored, 2, 22)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored simulator diverged on the continuation workload")
	}
}

// TestLargeMeshRerunIdentity pins determinism at a large-n point: two
// runs on the same churn timeline must produce identical read results,
// charged steps and snapshot bytes.
func TestLargeMeshRerunIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-processor mesh")
	}
	p := largeParams()
	probe, err := hmos.New(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([][]Word, []int64, []byte) {
		sim, err := New(p, Config{
			Schedule: largeChurnSchedule(t, probe),
			Repair:   RepairLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		var words [][]Word
		var charged []int64
		for step := 0; step < 3; step++ {
			ops := make([]Op, sim.S.Vars())
			for i, v := range rng.Perm(sim.S.Vars()) {
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: step == 0, Value: Word(v)}
			}
			res, st, err := sim.StepChecked(ops)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			words = append(words, append([]Word(nil), res...))
			charged = append(charged, st.Total())
		}
		var img bytes.Buffer
		if err := sim.Save(&img); err != nil {
			t.Fatal(err)
		}
		return words, charged, img.Bytes()
	}
	w1, c1, s1 := run()
	w2, c2, s2 := run()
	if !reflect.DeepEqual(w1, w2) {
		t.Error("read results differ between runs")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("charged steps differ between runs: %v vs %v", c1, c2)
	}
	if !bytes.Equal(s1, s2) {
		t.Errorf("snapshot bytes differ between runs (%d vs %d)", len(s1), len(s2))
	}
	// Sanity that the timeline actually degraded something (the churn
	// schedule kills two hosts of variable 0).
	if fmt.Sprint(c1) == "[0 0 0]" {
		t.Fatal("no cycles charged; workload did not run")
	}
}
