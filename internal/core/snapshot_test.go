package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"meshpram/internal/hmos"
)

func TestSnapshotRoundtrip(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	sim := mustNew(p, Config{})
	rng := rand.New(rand.NewSource(4))

	// Populate with a few write steps.
	written := map[int]Word{}
	for step := 0; step < 5; step++ {
		vars := rng.Perm(sim.S.Vars())[:30]
		ops := make([]Op, len(vars))
		for i, v := range vars {
			ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: true, Value: Word(v*100 + step)}
			written[v] = ops[i].Value
		}
		sim.Step(ops)
	}

	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh simulator and verify every written variable.
	sim2 := mustNew(p, Config{})
	if err := sim2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if sim2.now != sim.now {
		t.Fatalf("clock %d, want %d", sim2.now, sim.now)
	}
	for v, want := range written {
		res, _ := sim2.Step([]Op{{Origin: 0, Var: v}})
		if res[0] != want {
			t.Fatalf("restored var %d = %d, want %d", v, res[0], want)
		}
	}
}

func TestSnapshotContinuesConsistently(t *testing.T) {
	// Writes after a restore must still dominate pre-snapshot writes.
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	sim := mustNew(p, Config{})
	sim.Step([]Op{{Origin: 0, Var: 7, IsWrite: true, Value: 100}})
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sim2 := mustNew(p, Config{})
	if err := sim2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	sim2.Step([]Op{{Origin: 1, Var: 7, IsWrite: true, Value: 200}})
	res, _ := sim2.Step([]Op{{Origin: 2, Var: 7}})
	if res[0] != 200 {
		t.Fatalf("post-restore write lost: read %d", res[0])
	}
}

func TestSnapshotParamMismatch(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{})
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := mustNew(hmos.Params{Side: 9, Q: 3, D: 4, K: 1}, Config{})
	if err := other.Load(&buf); err == nil {
		t.Fatal("mismatched params accepted")
	}
}

func TestSnapshotGarbage(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{})
	if err := sim.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSnapshotRejectsOtherVersions pins that Load reads only the
// current format: a header of any other version, the pre-slab
// version 1 included, is refused before anything is restored.
func TestSnapshotRejectsOtherVersions(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	sim := mustNew(p, Config{})
	for _, v := range []int{0, 1, snapshotVersion + 1} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snapHeader{Version: v, Params: p}); err != nil {
			t.Fatal(err)
		}
		if err := sim.Load(&buf); err == nil {
			t.Fatalf("version %d image accepted", v)
		}
	}
}

// TestSnapshotByteDeterminism pins the determinism contract: identical
// logical state yields byte-identical images, whether reached by
// stepping or by a save/load round trip.
func TestSnapshotByteDeterminism(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	run := func() []byte {
		sim := mustNew(p, Config{})
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 4; step++ {
			vars := rng.Perm(sim.S.Vars())[:25]
			ops := make([]Op, len(vars))
			for i, v := range vars {
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: step%2 == 0, Value: Word(v + step)}
			}
			sim.Step(ops)
		}
		var buf bytes.Buffer
		if err := sim.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different snapshot bytes")
	}
	sim := mustNew(p, Config{})
	if err := sim.Load(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := sim.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, again.Bytes()) {
		t.Fatal("save → load → save changed the image bytes")
	}
}
