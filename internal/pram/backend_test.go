package pram

import (
	"strconv"
	"strings"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/sim"
)

func TestMeshBackendIdleStep(t *testing.T) {
	mb := testMesh(t)
	before := mb.Steps()
	res, err := mb.ExecStep(make([]Op, 10)) // all Kind None
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res {
		if v != 0 {
			t.Fatal("idle step produced values")
		}
	}
	if mb.Steps() != before {
		t.Fatal("idle step charged mesh steps")
	}
}

func TestMeshBackendUnknownKind(t *testing.T) {
	mb := testMesh(t)
	if _, err := mb.ExecStep([]Op{{Kind: Kind(99), Addr: 1}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMeshBackendAddressValidation(t *testing.T) {
	mb := testMesh(t)
	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: mb.Vars()}}); err == nil {
		t.Fatal("read out of range accepted")
	}
	if _, err := mb.ExecStep([]Op{{Kind: Write, Addr: -1, Value: 1}}); err == nil {
		t.Fatal("write out of range accepted")
	}
}

func TestMeshBackendManyDistinctSingleRound(t *testing.T) {
	// Distinct reads and writes without overlap must execute as ONE
	// protocol round: compare against the two-round cost of an
	// overlapping step.
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	mkOps := func(overlap bool) []Op {
		ops := make([]Op, 20)
		for i := 0; i < 10; i++ {
			ops[i] = Op{Kind: Read, Addr: i}
		}
		for i := 10; i < 20; i++ {
			addr := i
			if overlap && i == 10 {
				addr = 0 // collides with a read
			}
			ops[i] = Op{Kind: Write, Addr: addr, Value: Word(i)}
		}
		return ops
	}
	mb1, _ := newMesh(p, core.Config{})
	mb1.ExecStep(mkOps(false))
	single := mb1.Steps()
	mb2, _ := newMesh(p, core.Config{})
	mb2.ExecStep(mkOps(true))
	double := mb2.Steps()
	if double <= single {
		t.Fatalf("overlapping step (%d) not costlier than disjoint (%d)", double, single)
	}
}

// defaultConfig resolves DefaultScenario, after edit (if any).
func defaultConfig(t testing.TB, edit func(*sim.Scenario)) sim.Config {
	t.Helper()
	sc := sim.DefaultScenario()
	if edit != nil {
		edit(&sc)
	}
	cfg, err := sim.FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestNewBackendKinds(t *testing.T) {
	cfg := defaultConfig(t, func(sc *sim.Scenario) { sc.IdealMemory = 0 })
	ideal, err := NewBackend(BackendIdeal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := cfg.Vars()
	if got := ideal.Vars(); got != v {
		t.Errorf("ideal memory defaulted to %d words, want the scheme's M = %d", got, v)
	}
	small := defaultConfig(t, func(sc *sim.Scenario) { sc.IdealMemory = 123 })
	if b, err := NewBackend(BackendIdeal, small); err != nil || b.Vars() != 123 {
		t.Errorf("IdealMemory override: Vars=%d err=%v", b.Vars(), err)
	}
	mb, err := NewBackend(BackendMesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mb.(*Mesh); !ok {
		t.Fatalf("mesh backend has type %T", mb)
	}
	if _, err := NewBackend(BackendKind("quantum"), cfg); err == nil {
		t.Error("unknown backend kind accepted")
	}
	if _, err := NewBackend(BackendMesh, sim.Config{}); err == nil {
		t.Error("zero-value config accepted (params must not construct)")
	}
}

func TestNewBackendCombine(t *testing.T) {
	// Both backends NewBackend builds resolve concurrent writes by the
	// same rule: the lowest pid's value wins.
	for _, kind := range []BackendKind{BackendIdeal, BackendMesh} {
		b, err := NewBackend(kind, defaultConfig(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		b.ExecStep([]Op{
			{Kind: Write, Addr: 7, Value: 3},
			{Kind: Write, Addr: 7, Value: 11},
			{Kind: Write, Addr: 7, Value: 20},
		})
		res, err := b.ExecStep([]Op{{Kind: Read, Addr: 7}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 3 {
			t.Errorf("%s backend: combined write = %d, want the lowest pid's 3", kind, res[0])
		}
	}
}

func TestMeshBackendDegradationReports(t *testing.T) {
	// Kill every module hosting a copy of variable 0: reads of it are
	// unrecoverable and surface through LastReport (per step, with batch
	// indexes translated back to variable addresses) and TotalReport
	// (run-cumulative).
	scheme, _ := defaultConfig(t, nil).Scheme()
	var hosts []string
	for _, c := range scheme.Copies(0, nil) {
		hosts = append(hosts, strconv.Itoa(c.Proc))
	}
	cfg := defaultConfig(t, func(sc *sim.Scenario) { sc.Faults = "module:" + strings.Join(hosts, ",") })
	b, err := NewBackend(BackendMesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mb := b.(*Mesh)
	if mb.LastReport() != nil || mb.TotalReport() != nil {
		t.Fatal("reports must be nil before the first step")
	}
	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}, {Kind: Read, Addr: 1}}); err != nil {
		t.Fatal(err)
	}
	r := mb.LastReport()
	if r == nil || !r.Degraded() {
		t.Fatalf("step against dead modules reported %v", r)
	}
	if len(r.Unrecoverable) != 1 || r.Unrecoverable[0] != 0 {
		t.Fatalf("unrecoverable = %v, want [0] (variable address, not batch index)", r.Unrecoverable)
	}
	if _, err := mb.ExecStep([]Op{{Kind: Read, Addr: 0}}); err != nil {
		t.Fatal(err)
	}
	total := mb.TotalReport()
	if len(total.Unrecoverable) != 2 {
		t.Errorf("cumulative unrecoverable = %v, want two entries", total.Unrecoverable)
	}

	// A healthy mesh stays clean: LastReport non-nil but undegraded
	// whenever a fault map is installed, nil without one.
	clean := testMesh(t)
	clean.ExecStep([]Op{{Kind: Read, Addr: 0}})
	if clean.LastReport() != nil {
		t.Error("faultless mesh produced a degradation report")
	}
}

func TestRunStepLimitGuard(t *testing.T) {
	id := newIdeal(4)
	if _, err := Run(&foreverProgram{}, id); err == nil {
		t.Fatal("runaway program not stopped")
	}
}

type foreverProgram struct{}

func (f *foreverProgram) Procs() int { return 1 }
func (f *foreverProgram) Next(t int, prev []Word) ([]Op, bool) {
	return []Op{{Kind: Read, Addr: 0}}, false
}
