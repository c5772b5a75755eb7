package core

import (
	"math/rand"
	"testing"

	"meshpram/internal/culling"
	"meshpram/internal/hmos"
	"meshpram/internal/route"
)

// Consistency must hold across every supported scheme shape: deeper
// hierarchies, other field orders, and the torus extension.
func TestConsistencyAcrossSchemes(t *testing.T) {
	cases := []struct {
		name string
		p    hmos.Params
		cfg  Config
	}{
		{"k3", hmos.Params{Side: 27, Q: 3, D: 4, K: 3}, Config{}},
		{"q4", hmos.Params{Side: 16, Q: 4, D: 3, K: 2}, Config{}},
		{"q5", hmos.Params{Side: 25, Q: 5, D: 3, K: 2}, Config{}},
		{"k1", hmos.Params{Side: 27, Q: 3, D: 5, K: 1}, Config{}},
		{"torus", hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Torus: true}},
		{"rotatesort", hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Sort: route.RotateSort}},
		{"torus-mv84", hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Torus: true, Access: culling.ReadOneWriteAll}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sim := mustNew(c.p, c.cfg)
			rng := rand.New(rand.NewSource(33))
			ideal := map[int]Word{}
			batch := sim.M.N / 4
			if batch > sim.S.Vars() {
				batch = sim.S.Vars()
			}
			for step := 0; step < 8; step++ {
				vars := rng.Perm(sim.S.Vars())[:batch]
				ops := make([]Op, batch)
				expect := make([]Word, batch)
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
				res, st := sim.Step(ops)
				for i := range ops {
					if res[i] != expect[i] {
						t.Fatalf("step %d op %d: got %d want %d", step, i, res[i], expect[i])
					}
					if ops[i].IsWrite {
						ideal[ops[i].Var] = ops[i].Value
					}
				}
				// Theorem 3 must hold whenever culling ran.
				if c.cfg.Access == culling.Culled {
					for lvl := 1; lvl <= sim.S.K; lvl++ {
						if st.PageLoadMax[lvl] > st.PageLoadBound[lvl] {
							t.Fatalf("level %d: load %d > bound %d", lvl, st.PageLoadMax[lvl], st.PageLoadBound[lvl])
						}
					}
				}
			}
		})
	}
}

// Torus routing must never be slower than the plain mesh on the same
// request sequence (wrap links only add options).
func TestTorusNeverSlower(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	run := func(torus bool) int64 {
		sim := mustNew(p, Config{Torus: torus})
		rng := rand.New(rand.NewSource(8))
		for step := 0; step < 5; step++ {
			vars := rng.Perm(sim.S.Vars())[:sim.M.N/2]
			ops := make([]Op, len(vars))
			for i, v := range vars {
				ops[i] = Op{Origin: rng.Intn(sim.M.N), Var: v, IsWrite: i%2 == 0, Value: Word(i)}
			}
			sim.Step(ops)
		}
		return sim.M.Steps()
	}
	meshSteps := run(false)
	torusSteps := run(true)
	if torusSteps > meshSteps {
		t.Fatalf("torus (%d) slower than mesh (%d)", torusSteps, meshSteps)
	}
}

// The historical 2^16 processor cap is gone: packet sort keys size
// their fields to the instance, so large meshes construct (the SCALE
// experiment runs side 1458 = n 2,125,764).
func TestNewAcceptsLargeMesh(t *testing.T) {
	sim, err := New(hmos.Params{Side: 729, Q: 3, D: 4, K: 2}, Config{})
	if err != nil {
		t.Fatalf("side 729 (n = 2^19) rejected: %v", err)
	}
	if sim.destBits < 19 {
		t.Fatalf("destBits %d cannot carry %d processors", sim.destBits, sim.M.N)
	}
}

// The per-stage delta diagnostics must be internally consistent: stage
// K+1 starts with at most q^k packets per origin.
func TestDeltaDiagnostics(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{})
	ops := make([]Op, sim.M.N)
	for i := range ops {
		ops[i] = Op{Origin: i, Var: i}
	}
	_, st := sim.Step(ops)
	if st.Delta[sim.S.K+1] > sim.S.Redundant {
		t.Fatalf("initial delta %d exceeds q^k = %d", st.Delta[sim.S.K+1], sim.S.Redundant)
	}
	for s := 1; s <= sim.S.K+1; s++ {
		if st.Delta[s] < 1 {
			t.Fatalf("stage %d delta missing", s)
		}
	}
}
