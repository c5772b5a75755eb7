package baseline

import (
	"math/rand"
	"testing"
)

func TestNoReplicationReadWrite(t *testing.T) {
	b, err := NewNoReplication(9, 500)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 50)
	for i := range ops {
		ops[i] = Op{Origin: i, Var: i * 7 % 500, IsWrite: true, Value: Word(100 + i)}
	}
	// Ensure distinct vars.
	seen := map[int]bool{}
	for i := range ops {
		for seen[ops[i].Var] {
			ops[i].Var = (ops[i].Var + 1) % 500
		}
		seen[ops[i].Var] = true
	}
	res, cost := b.Step(ops)
	if cost.Total() <= 0 {
		t.Fatal("free step")
	}
	for i := range ops {
		if res[i] != ops[i].Value {
			t.Fatalf("write echo %d", i)
		}
	}
	reads := make([]Op, len(ops))
	for i := range reads {
		reads[i] = Op{Origin: (i + 3) % b.M.N, Var: ops[i].Var}
	}
	res, _ = b.Step(reads)
	for i := range reads {
		if res[i] != ops[i].Value {
			t.Fatalf("read %d got %d want %d", i, res[i], ops[i].Value)
		}
	}
}

func TestNoReplicationUnwrittenZero(t *testing.T) {
	b, _ := NewNoReplication(9, 100)
	res, _ := b.Step([]Op{{Origin: 0, Var: 5}})
	if res[0] != 0 {
		t.Fatalf("unwritten read %d", res[0])
	}
}

// TestUnwrittenReadIgnoresValue reads never-written variables with a
// nonzero Value on a fresh machine, where no processor has stored a
// word: both organizations must answer 0, not the op's own Value.
func TestUnwrittenReadIgnoresValue(t *testing.T) {
	nr, _ := NewNoReplication(9, 100)
	rm, err := NewRandomMOS(9, 100, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{{Origin: 0, Var: 5, Value: 77}, {Origin: 3, Var: 9, Value: -4}}
	for _, c := range []struct {
		name string
		b    stepper
	}{{"NoReplication", nr}, {"RandomMOS", rm}} {
		res, _ := c.b.Step(ops)
		for i, w := range res {
			if w != 0 {
				t.Errorf("%s: unwritten read %d answered %d", c.name, i, w)
			}
		}
	}
}

func TestNoReplicationAdversarialHotspot(t *testing.T) {
	b, _ := NewNoReplication(9, 20000)
	hot := b.Home(0)
	vars := b.VarsOnProc(hot, 64)
	if len(vars) < 32 {
		t.Skipf("only %d vars on hotspot", len(vars))
	}
	ops := make([]Op, len(vars))
	for i, v := range vars {
		ops[i] = Op{Origin: i, Var: v}
	}
	_, hotCost := b.Step(ops)

	// Same number of random distinct vars for comparison.
	rng := rand.New(rand.NewSource(1))
	rops := make([]Op, len(vars))
	seen := map[int]bool{}
	for i := range rops {
		v := rng.Intn(20000)
		for seen[v] {
			v = rng.Intn(20000)
		}
		seen[v] = true
		rops[i] = Op{Origin: i, Var: v}
	}
	_, rndCost := b.Step(rops)
	if hotCost.Total() <= rndCost.Total() {
		t.Fatalf("hotspot (%d) not slower than random (%d)", hotCost.Total(), rndCost.Total())
	}
	// The access phase alone must serialize: |vars| accesses at one proc.
	if hotCost.Access != int64(len(vars)) {
		t.Fatalf("hotspot access %d, want %d", hotCost.Access, len(vars))
	}
}

func TestNoReplicationPanics(t *testing.T) {
	b, _ := NewNoReplication(3, 10)
	mustPanic := func(ops []Op) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		b.Step(ops)
	}
	mustPanic([]Op{{Origin: 0, Var: 10}})
	mustPanic([]Op{{Origin: 0, Var: 1}, {Origin: 1, Var: 1}})
}

func TestRandomMOSConsistency(t *testing.T) {
	b, err := NewRandomMOS(9, 300, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ideal := map[int]Word{}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 25; step++ {
		batch := rng.Intn(40) + 1
		vars := rng.Perm(300)[:batch]
		ops := make([]Op, batch)
		expect := make([]Word, batch)
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				val := Word(rng.Intn(1 << 20))
				ops[i] = Op{Origin: rng.Intn(b.M.N), Var: v, IsWrite: true, Value: val}
				expect[i] = val
			} else {
				ops[i] = Op{Origin: rng.Intn(b.M.N), Var: v}
				expect[i] = ideal[v]
			}
		}
		res, _ := b.Step(ops)
		for i := range ops {
			if res[i] != expect[i] {
				t.Fatalf("step %d op %d: got %d want %d", step, i, res[i], expect[i])
			}
			if ops[i].IsWrite {
				ideal[ops[i].Var] = ops[i].Value
			}
		}
	}
}

func TestRandomMOSValidation(t *testing.T) {
	if _, err := NewRandomMOS(9, 10, 1, 0); err == nil {
		t.Error("c=1 accepted")
	}
	if _, err := NewRandomMOS(0, 10, 2, 0); err == nil {
		t.Error("side 0 accepted")
	}
}

func TestRandomMOSPlacementDistinct(t *testing.T) {
	b, _ := NewRandomMOS(9, 200, 3, 11)
	for v, procs := range b.place {
		if len(procs) != 5 {
			t.Fatalf("var %d has %d copies", v, len(procs))
		}
		seen := map[int32]bool{}
		for _, p := range procs {
			if seen[p] {
				t.Fatalf("var %d placed twice on proc %d", v, p)
			}
			seen[p] = true
		}
	}
}

func TestMapBytes(t *testing.T) {
	rm, _ := NewRandomMOS(9, 1000, 2, 1)
	if rm.MapBytes() != 1000*3*4 {
		t.Fatalf("random MOS map %d bytes", rm.MapBytes())
	}
}

func BenchmarkNoReplicationStep(b *testing.B) {
	nr, _ := NewNoReplication(27, 100000)
	ops := make([]Op, nr.M.N)
	for i := range ops {
		ops[i] = Op{Origin: i, Var: i, IsWrite: i%2 == 0, Value: Word(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nr.Step(ops)
	}
}
