package core

import (
	"math/rand"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/hmos"
)

// faultSim builds the small instance with the given fault map.
func faultSim(t testing.TB, f *fault.Map) *Simulator {
	t.Helper()
	s, err := New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// moduleHosts returns the distinct modules holding copies of v.
func moduleHosts(s *Simulator, v int) []int {
	seen := map[int]bool{}
	var hosts []int
	for _, c := range s.Scheme().Copies(v, nil) {
		if !seen[c.Proc] {
			seen[c.Proc] = true
			hosts = append(hosts, c.Proc)
		}
	}
	return hosts
}

// TestMajorityToleratesDeadCopies is the paper's fault-tolerance claim
// at protocol level: with fewer dead copies than the majority threshold
// allows, every write remains readable with the correct value, and no
// step reports an unrecoverable variable. On the small instance killing
// the first 4 of variable 0's 9 host modules (one full level-1 subtree
// plus one leaf) stays under the threshold; companion variables are
// chosen with no copy on a dead module so they must stay clean too.
func TestMajorityToleratesDeadCopies(t *testing.T) {
	probe := faultSim(t, nil)
	dead := map[int]bool{}
	f := fault.NewMap(9)
	for _, h := range moduleHosts(probe, 0)[:4] {
		dead[h] = true
		f.KillModule(h)
	}
	vars := []int{0}
	for v := 1; len(vars) < 4 && v < probe.Scheme().Vars(); v++ {
		clean := true
		for _, h := range moduleHosts(probe, v) {
			if dead[h] {
				clean = false
				break
			}
		}
		if clean {
			vars = append(vars, v)
		}
	}
	s := faultSim(t, f)

	rng := rand.New(rand.NewSource(11))
	want := map[int]Word{}
	for round := 0; round < 4; round++ {
		ops := make([]Op, len(vars))
		for i, v := range vars {
			val := Word(rng.Int63n(1 << 30))
			ops[i] = Op{Origin: i * 3, Var: v, IsWrite: true, Value: val}
			want[v] = val
		}
		if _, _, err := s.StepChecked(ops); err != nil {
			t.Fatal(err)
		}
		if r := s.LastReport(); r.Degraded() {
			t.Fatalf("write round %d degraded: %s", round, r)
		}
		for i, v := range vars {
			ops[i] = Op{Origin: i*5 + 1, Var: v}
		}
		res, _, err := s.StepChecked(ops)
		if err != nil {
			t.Fatal(err)
		}
		if r := s.LastReport(); r.Degraded() {
			t.Fatalf("read round %d degraded: %s", round, r)
		}
		for i, v := range vars {
			if res[i] != want[v] {
				t.Fatalf("round %d: var %d = %d, want %d (dead copies corrupted the majority)",
					round, v, res[i], want[v])
			}
		}
	}
}

// TestMajorityThresholdBreaks pins the boundary: one more module death
// pushes the same variable over the threshold, and the step flags it
// unrecoverable instead of returning a wrong value silently.
func TestMajorityThresholdBreaks(t *testing.T) {
	probe := faultSim(t, nil)
	hosts := moduleHosts(probe, 0)
	if len(hosts) < 5 {
		t.Skipf("variable 0 spread over %d modules only", len(hosts))
	}
	f := fault.NewMap(9)
	for _, h := range hosts[:5] {
		f.KillModule(h)
	}
	s := faultSim(t, f)
	if _, _, err := s.StepChecked([]Op{{Origin: 0, Var: 0}}); err != nil {
		t.Fatal(err)
	}
	r := s.LastReport()
	if len(r.Unrecoverable) != 1 || r.Unrecoverable[0] != 0 {
		t.Fatalf("unrecoverable = %v, want [0]", r.Unrecoverable)
	}
}

// TestStepCheckedValidation: malformed steps come back as errors before
// any cost is charged; the Step wrapper keeps the historical panic.
func TestStepCheckedValidation(t *testing.T) {
	s := faultSim(t, nil)
	m := s.Scheme().Vars()
	cases := []struct {
		name string
		ops  []Op
	}{
		{"var out of range", []Op{{Origin: 0, Var: m}}},
		{"var negative", []Op{{Origin: 0, Var: -1, IsWrite: true}}},
		{"origin out of range", []Op{{Origin: s.Mesh().N, Var: 0}}},
		{"duplicate variable", []Op{{Origin: 0, Var: 3}, {Origin: 1, Var: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.now
			if _, _, err := s.StepChecked(tc.ops); err == nil {
				t.Fatal("accepted")
			}
			if s.now != before {
				t.Error("rejected step still charged machine time")
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Error("Step did not panic on an invalid op")
		}
	}()
	s.Step([]Op{{Origin: 0, Var: -1}})
}
