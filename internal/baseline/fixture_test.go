package baseline

import (
	"math/rand"
	"slices"
	"testing"
)

// stepper is the Step surface both memory organizations share.
type stepper interface {
	Step(ops []Op) ([]Word, StepCost)
}

// fixtureBatches runs four seeded batches of distinct-variable requests
// (mixed reads and writes, every read op carrying a nonzero Value) and
// returns, per batch, a checksum of the read results and the charged
// cost breakdown.
func fixtureBatches(t *testing.T, b stepper, n, vars int) ([]uint64, []StepCost) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var sums []uint64
	var costs []StepCost
	for step := 0; step < 4; step++ {
		batch := n/2 + rng.Intn(n/2)
		ops := make([]Op, batch)
		for i, v := range rng.Perm(vars)[:batch] {
			ops[i] = Op{Origin: rng.Intn(n), Var: v, IsWrite: rng.Intn(3) == 0, Value: Word(rng.Intn(1 << 20))}
		}
		res, c := b.Step(ops)
		var h uint64
		for _, w := range res {
			h = h*1000003 + uint64(w)
		}
		sums = append(sums, h)
		costs = append(costs, c)
	}
	return sums, costs
}

// TestStepFixtures pins read results and StepCost of both memory
// organizations on seeded batches. The costs were recorded before the
// two Step implementations were folded into one pipeline; the RandomMOS
// read checksums were re-recorded when reads of copies on processors
// that never stored a word stopped echoing the op's Value.
func TestStepFixtures(t *testing.T) {
	const side, vars = 9, 500
	cases := []struct {
		name  string
		build func() (stepper, error)
		sums  []uint64
		costs []StepCost
	}{
		{"NoReplication", func() (stepper, error) { return NewNoReplication(side, vars) },
			[]uint64{0x7719971044cecf65, 0xf4464fd5cb35c40d, 0x118610371291ba7d, 0xe084b58d9f884a8},
			[]StepCost{{396, 17, 3, 14}, {396, 17, 4, 13}, {297, 15, 4, 14}, {297, 13, 3, 13}}},
		{"NoReplicationCW", func() (stepper, error) { return NewNoReplicationCW(side, vars, 3) },
			[]uint64{0x7719971044cecf65, 0xf4464fd5cb35c40d, 0x118610371291ba7d, 0xe084b58d9f884a8},
			[]StepCost{{396, 15, 3, 15}, {396, 15, 3, 13}, {297, 16, 3, 14}, {297, 14, 3, 14}}},
		// Every organization answers the same PRAM semantics, so the
		// RandomMOS sums equal the single-copy ones: an unwritten variable
		// reads 0 wherever its copies sit.
		{"RandomMOS-c2", func() (stepper, error) { return NewRandomMOS(side, vars, 2, 7) },
			[]uint64{0x7719971044cecf65, 0xf4464fd5cb35c40d, 0x118610371291ba7d, 0xe084b58d9f884a8},
			[]StepCost{{792, 30, 7, 15}, {792, 29, 6, 14}, {594, 21, 5, 15}, {594, 22, 7, 15}}},
		{"RandomMOS-c3", func() (stepper, error) { return NewRandomMOS(side, vars, 3, 7) },
			[]uint64{0x7719971044cecf65, 0xf4464fd5cb35c40d, 0x118610371291ba7d, 0xe084b58d9f884a8},
			[]StepCost{{1188, 35, 6, 14}, {1188, 38, 7, 19}, {891, 31, 7, 18}, {891, 32, 6, 15}}},
	}
	for _, c := range cases {
		b, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		sums, costs := fixtureBatches(t, b, side*side, vars)
		if !slices.Equal(sums, c.sums) {
			t.Errorf("%s: read checksums %#x, want %#x", c.name, sums, c.sums)
		}
		if !slices.Equal(costs, c.costs) {
			t.Errorf("%s: costs %+v, want %+v", c.name, costs, c.costs)
		}
	}
}
