package core

import (
	"math/rand"
	"slices"
	"testing"

	"meshpram/internal/culling"
	"meshpram/internal/fault"
	"meshpram/internal/hmos"
)

// The MV84 read-one/write-all policy must also behave as an ideal
// shared memory (all copies are always current).
func TestReadOneWriteAllConsistency(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Access: culling.ReadOneWriteAll})
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
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Access: culling.ReadOneWriteAll})
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
	mv := mustNew(params, Config{Access: culling.ReadOneWriteAll})
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

// TestAccessPrecedence pins which discipline a step selects by, on a
// side-9 machine with dead modules: the configured one, except that a
// hardened retry selects level-0 sets — under the culled and the
// unculled majority alike — while read-one/write-all keeps its copies.
// Hardened itself is not a configurable discipline.
// Each step's packets must be exactly the expected discipline's
// selection, and their count the step's packet count.
func TestAccessPrecedence(t *testing.T) {
	if _, err := New(smallParams, Config{Access: culling.Hardened}); err == nil {
		t.Fatal("a configured hardened discipline was accepted")
	}
	f, err := fault.Parse(9, "module:4,13,40,41,66")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		access   culling.Discipline
		hardened bool
		want     culling.Discipline
	}{
		{culling.Culled, false, culling.Culled},
		{culling.Culled, true, culling.Hardened},
		{culling.Unculled, false, culling.Unculled},
		{culling.Unculled, true, culling.Hardened},
		{culling.ReadOneWriteAll, false, culling.ReadOneWriteAll},
		{culling.ReadOneWriteAll, true, culling.ReadOneWriteAll},
	}
	for _, c := range cases {
		sim := mustNew(smallParams, Config{Access: c.access, Faults: f})
		sim.SetHardened(c.hardened)
		s, qk := sim.S, sim.S.Redundant
		vars := rand.New(rand.NewSource(4)).Perm(s.Vars())[:60]
		ops := make([]Op, len(vars))
		reqs := make([]culling.Request, len(vars))
		avail := make([][]bool, len(vars))
		for i, v := range vars {
			ops[i] = Op{Origin: i, Var: v, IsWrite: i%3 == 0, Value: Word(i)}
			reqs[i] = culling.Request{Origin: i, Var: v, Write: ops[i].IsWrite}
			avail[i] = make([]bool, qk)
			for leaf := range avail[i] {
				avail[i][leaf] = !f.ModuleDead(s.CopyAt(v, leaf).Proc)
			}
		}
		_, st, err := sim.StepChecked(ops)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]int, len(ops))
		for _, pk := range sim.pk {
			got[pk.op] = append(got[pk.op], int(pk.slot%int64(qk)))
		}
		want := culling.Place(s, sim.M, reqs).Select(c.want, avail)
		total, degraded := 0, 0
		for i, sel := range want.Selected {
			leaves := make([]int, len(sel))
			for j, cp := range sel {
				leaves[j] = cp.Leaf
			}
			if !slices.Equal(got[i], leaves) {
				t.Fatalf("access %d hardened %v: op %d selected leaves %v, want %v (discipline %d)",
					c.access, c.hardened, i, got[i], leaves, c.want)
			}
			total += len(sel)
			live := 0
			for _, on := range avail[i] {
				if on {
					live++
				}
			}
			if live < qk {
				degraded++
				continue
			}
			size := hmos.MinTargetSetSize(s.Q, s.K, s.K)
			switch {
			case c.want == culling.Hardened:
				size = hmos.MinTargetSetSize(s.Q, s.K, 0)
			case c.want == culling.ReadOneWriteAll && ops[i].IsWrite:
				size = qk
			case c.want == culling.ReadOneWriteAll:
				size = 1
			}
			if len(sel) != size {
				t.Fatalf("access %d hardened %v: op %d selected %d copies, want %d", c.access, c.hardened, i, len(sel), size)
			}
		}
		if st.Packets != total {
			t.Fatalf("access %d hardened %v: %d packets, want %d", c.access, c.hardened, st.Packets, total)
		}
		if degraded == 0 {
			t.Fatal("no op had a dead copy: the fault map misses the batch")
		}
	}
}
