package core

import (
	"math/rand"
	"testing"

	"meshpram/internal/hmos"
)

// The MV84 read-one/write-all policy must also behave as an ideal
// shared memory (all copies are always current).
func TestReadOneWriteAllConsistency(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Policy: ReadOneWriteAllPolicy})
	rng := rand.New(rand.NewSource(12))
	ideal := map[int]Word{}
	for step := 0; step < 20; step++ {
		vars := rng.Perm(sim.S.Vars())[:30]
		ops := make([]Op, len(vars))
		expect := make([]Word, len(vars))
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				val := Word(rng.Intn(1 << 20))
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: true, Value: val}
				expect[i] = val
			} else {
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v}
				expect[i] = ideal[v]
			}
		}
		res, _ := sim.Step(ops)
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

// Reads under MV84 route one packet per op; writes route q^k.
func TestReadOneWriteAllPacketCounts(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Policy: ReadOneWriteAllPolicy})
	reads := make([]Op, 20)
	for i := range reads {
		reads[i] = Op{Origin: i, Var: i}
	}
	_, st := sim.Step(reads)
	if st.Packets != 20 {
		t.Fatalf("read step routed %d packets, want 20", st.Packets)
	}
	if st.Culling != 0 {
		t.Fatalf("MV84 policy charged culling steps: %d", st.Culling)
	}
	writes := make([]Op, 20)
	for i := range writes {
		writes[i] = Op{Origin: i, Var: i, IsWrite: true, Value: Word(i)}
	}
	_, st = sim.Step(writes)
	if st.Packets != 20*sim.S.Redundant {
		t.Fatalf("write step routed %d packets, want %d", st.Packets, 20*sim.S.Redundant)
	}
}

// The MV84 weakness: a write burst to module-hot variables loads one
// level-1 page with one packet per (variable, copy-in-module) while the
// majority policy's culled selection can avoid the hot module entirely
// for most variables. Compare the measured level-1 page loads.
func TestReadOneWriteAllHotModuleLoads(t *testing.T) {
	params := hmos.Params{Side: 27, Q: 3, D: 4, K: 2}
	mv := mustNew(params, Config{Policy: ReadOneWriteAllPolicy})
	paper := mustNew(params, Config{})

	g := mv.S.Graphs[0]
	hot := 3
	count := g.Degree(hot)
	ops := make([]Op, count)
	for r := 0; r < count; r++ {
		ops[r] = Op{Origin: r, Var: g.InputAtRank(hot, r), IsWrite: true, Value: Word(r)}
	}
	_, stMV := mv.Step(ops)
	_, stP := paper.Step(append([]Op(nil), ops...))
	if stMV.PageLoadMax[1] < count {
		t.Fatalf("MV84 hot page load %d, want ≥ %d (every var writes its copy there)",
			stMV.PageLoadMax[1], count)
	}
	if stP.PageLoadMax[1] > stMV.PageLoadMax[1] {
		t.Fatalf("majority policy page load %d exceeds MV84's %d on MV84's worst case",
			stP.PageLoadMax[1], stMV.PageLoadMax[1])
	}
}
