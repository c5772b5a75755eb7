package core

import (
	"math/rand"
	"strings"
	"testing"

	"meshpram/internal/culling"
	"meshpram/internal/hmos"
	"meshpram/internal/trace"
)

var smallParams = hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
var midParams = hmos.Params{Side: 27, Q: 3, D: 4, K: 2}

// mustNew is New for a configuration the test knows is valid.
func mustNew(p hmos.Params, cfg Config) *Simulator {
	sim, err := New(p, cfg)
	if err != nil {
		panic(err)
	}
	return sim
}

func TestWriteThenRead(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	n := sim.M.N
	// Write distinct values to the first n variables.
	writes := make([]Op, n)
	for i := range writes {
		writes[i] = Op{Origin: i, Var: i, IsWrite: true, Value: Word(1000 + i)}
	}
	res, st := sim.Step(writes)
	if st.Total() <= 0 {
		t.Fatal("write step charged no steps")
	}
	for i, v := range res {
		if v != Word(1000+i) {
			t.Fatalf("write %d echoed %d", i, v)
		}
	}
	// Read them back from different origins.
	reads := make([]Op, n)
	for i := range reads {
		reads[i] = Op{Origin: (i + 17) % n, Var: i}
	}
	res, _ = sim.Step(reads)
	for i, v := range res {
		if v != Word(1000+i) {
			t.Fatalf("read of var %d returned %d, want %d", i, v, 1000+i)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	res, _ := sim.Step([]Op{{Origin: 0, Var: 42}, {Origin: 1, Var: 77}})
	for i, v := range res {
		if v != 0 {
			t.Fatalf("unwritten read %d returned %d", i, v)
		}
	}
}

func TestOverwriteVisibility(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	v := 13
	for round := 1; round <= 5; round++ {
		sim.Step([]Op{{Origin: round % sim.M.N, Var: v, IsWrite: true, Value: Word(round * 11)}})
		res, _ := sim.Step([]Op{{Origin: (round * 7) % sim.M.N, Var: v}})
		if res[0] != Word(round*11) {
			t.Fatalf("round %d: read %d, want %d", round, res[0], round*11)
		}
	}
}

// The consistency property test (E11): arbitrary interleaved read/write
// batches must behave exactly like an ideal shared memory.
func TestConsistencyRandomTraffic(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	rng := rand.New(rand.NewSource(77))
	ideal := map[int]Word{}
	n := sim.M.N
	for step := 0; step < 30; step++ {
		batch := rng.Intn(n) + 1
		vars := rng.Perm(sim.S.Vars())[:batch]
		ops := make([]Op, batch)
		expect := make([]Word, batch)
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				val := Word(rng.Intn(1 << 30))
				ops[i] = Op{Origin: rng.Intn(n), Var: v, IsWrite: true, Value: val}
				expect[i] = val
			} else {
				ops[i] = Op{Origin: rng.Intn(n), Var: v}
				expect[i] = ideal[v]
			}
		}
		res, st := sim.Step(ops)
		for i := range ops {
			if res[i] != expect[i] {
				t.Fatalf("step %d op %d (var %d write=%v): got %d want %d",
					step, i, ops[i].Var, ops[i].IsWrite, res[i], expect[i])
			}
			if ops[i].IsWrite {
				ideal[ops[i].Var] = ops[i].Value
			}
		}
		if st.Packets <= 0 {
			t.Fatal("no packets routed")
		}
	}
}

// Consistency must hold in the ablation modes too: they change routing
// and congestion control, not the quorum rule.
func TestConsistencyAblations(t *testing.T) {
	for _, cfg := range []Config{{Access: culling.Unculled}, {DirectRouting: true}, {Access: culling.Unculled, DirectRouting: true}} {
		sim := mustNew(smallParams, cfg)
		rng := rand.New(rand.NewSource(5))
		ideal := map[int]Word{}
		for step := 0; step < 10; step++ {
			vars := rng.Perm(sim.S.Vars())[:20]
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
					t.Fatalf("cfg %+v step %d op %d: got %d want %d", cfg, step, i, res[i], expect[i])
				}
				if ops[i].IsWrite {
					ideal[ops[i].Var] = ops[i].Value
				}
			}
		}
	}
}

func TestStepStatsBreakdown(t *testing.T) {
	sim := mustNew(midParams, Config{})
	rng := rand.New(rand.NewSource(2))
	n := sim.M.N
	ops := make([]Op, n)
	perm := rng.Perm(sim.S.Vars())
	for i := range ops {
		ops[i] = Op{Origin: i, Var: perm[i], IsWrite: i%2 == 0, Value: Word(i)}
	}
	before := sim.M.Steps()
	_, st := sim.Step(ops)
	if st.Culling <= 0 || st.Sort <= 0 || st.Forward <= 0 || st.Access <= 0 || st.Return <= 0 {
		t.Fatalf("incomplete breakdown: %+v", st)
	}
	if sim.M.Steps()-before != st.Total() {
		t.Fatalf("machine charged %d, stats say %d", sim.M.Steps()-before, st.Total())
	}
	// Theorem 3 diagnostics must be populated and within bounds.
	for i := 1; i <= sim.S.K; i++ {
		if st.PageLoadBound[i] <= 0 {
			t.Fatalf("level %d bound missing", i)
		}
		if st.PageLoadMax[i] > st.PageLoadBound[i] {
			t.Fatalf("level %d load %d exceeds bound %d", i, st.PageLoadMax[i], st.PageLoadBound[i])
		}
	}
	// Packets: n ops × minimal plain target set size.
	want := n * hmos.MinTargetSetSize(sim.S.Q, sim.S.K, sim.S.K)
	if st.Packets != want {
		t.Fatalf("packets %d, want %d", st.Packets, want)
	}
	// Deltas measured for each stage.
	for s := 1; s <= sim.S.K+1; s++ {
		if st.Delta[s] <= 0 {
			t.Fatalf("delta for stage %d missing", s)
		}
	}
}

func TestEmptyStep(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	res, st := sim.Step(nil)
	if res != nil || st.Total() != 0 {
		t.Fatal("empty step did something")
	}
}

func TestTooManyOpsPanics(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	ops := make([]Op, sim.M.N+1)
	for i := range ops {
		ops[i] = Op{Origin: i % sim.M.N, Var: i}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized batch did not panic")
		}
	}()
	sim.Step(ops)
}

// Writes must survive an unrelated flood of writes to other variables
// (quorum intersection across different request sets).
func TestWriteSurvivesFlood(t *testing.T) {
	sim := mustNew(smallParams, Config{})
	sim.Step([]Op{{Origin: 0, Var: 99, IsWrite: true, Value: 4242}})
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 5; round++ {
		vars := rng.Perm(sim.S.Vars())
		ops := make([]Op, 0, sim.M.N)
		for _, v := range vars[:sim.M.N] {
			if v == 99 {
				continue
			}
			ops = append(ops, Op{Origin: len(ops), Var: v, IsWrite: true, Value: Word(v)})
		}
		sim.Step(ops)
	}
	res, _ := sim.Step([]Op{{Origin: 5, Var: 99}})
	if res[0] != 4242 {
		t.Fatalf("flooded read returned %d", res[0])
	}
}

// Two runs of one seeded workload must give identical results and step
// counts.
func TestRerunEquivalence(t *testing.T) {
	mk := func() ([]Word, int64) {
		sim := mustNew(smallParams, Config{})
		rng := rand.New(rand.NewSource(11))
		var last []Word
		for step := 0; step < 5; step++ {
			vars := rng.Perm(sim.S.Vars())[:40]
			ops := make([]Op, len(vars))
			for i, v := range vars {
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: i%3 == 0, Value: Word(v * 2)}
			}
			last, _ = sim.Step(ops)
		}
		return last, sim.M.Steps()
	}
	aRes, aSteps := mk()
	bRes, bSteps := mk()
	if aSteps != bSteps {
		t.Fatalf("step counts differ: %d vs %d", aSteps, bSteps)
	}
	for i := range aRes {
		if aRes[i] != bRes[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}

func BenchmarkStepFullMachine(b *testing.B) {
	sim := mustNew(midParams, Config{})
	rng := rand.New(rand.NewSource(1))
	n := sim.M.N
	perm := rng.Perm(sim.S.Vars())
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Origin: i, Var: perm[i], IsWrite: i%2 == 0, Value: Word(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(ops)
	}
}

// TestStageRoutingSpanShape pins one engine call per protocol stage and
// return leg: a full random batch at side 81, d = 7 (K = 2), where
// stage 1 and return leg 0 route 6,561 1×1 pages and stage 2 and return
// leg 1 route 243 3×9 pages, has exactly one greedy span under each of
// stages 3, 2, 1 and return legs 0, 1, 2, and no other: six per step.
func TestStageRoutingSpanShape(t *testing.T) {
	for _, torus := range []bool{false, true} {
		sim := mustNew(hmos.Params{Side: 81, Q: 3, D: 7, K: 2}, Config{Torus: torus})
		n := sim.M.N
		rng := rand.New(rand.NewSource(7))
		ops := make([]Op, n)
		for pid, v := range rng.Perm(sim.Scheme().Vars())[:n] {
			ops[pid] = Op{Origin: pid, Var: v, IsWrite: pid%2 == 0, Value: Word(pid + 1)}
		}
		if _, _, err := sim.StepChecked(ops); err != nil {
			t.Fatal(err)
		}
		legs, greedy := 0, 0
		var count func(string, []*trace.Span)
		count = func(parent string, children []*trace.Span) {
			for _, c := range children {
				if c.Name() == "greedy" {
					greedy++
					if !strings.HasPrefix(parent, "stage-") && !strings.HasPrefix(parent, "return-leg-") {
						t.Errorf("torus=%v: greedy span under %q", torus, parent)
					}
				}
				count(c.Name(), c.Children())
			}
		}
		step := sim.Ledger().Last()
		count(step.Name(), step.Children())
		for _, c := range step.Children() {
			if !strings.HasPrefix(c.Name(), "stage-") && !strings.HasPrefix(c.Name(), "return-leg-") {
				continue
			}
			legs++
			calls := 0
			for _, g := range c.Children() {
				if g.Name() == "greedy" {
					calls++
				}
			}
			if calls != 1 {
				t.Errorf("torus=%v: %s has %d greedy spans, want 1", torus, c.Name(), calls)
			}
		}
		if legs != 6 || greedy != 6 {
			t.Errorf("torus=%v: %d stages and legs, %d greedy spans; want 6 and 6", torus, legs, greedy)
		}
	}
}
