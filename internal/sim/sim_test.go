package sim

import (
	"strings"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/trace"
)

// mustConfig resolves DefaultScenario, after edit (if any), with the
// given hooks.
func mustConfig(t testing.TB, edit func(*Scenario), hooks ...Option) Config {
	t.Helper()
	sc := DefaultScenario()
	if edit != nil {
		edit(&sc)
	}
	c, err := FromScenario(sc, hooks...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewDefaults(t *testing.T) {
	c := mustConfig(t, nil)
	p := c.Params
	if p.Side != 9 || p.Q != 3 || p.D != 3 || p.K != 2 {
		t.Errorf("default params = %+v", p)
	}
	if c.Core.Faults != nil || c.Core.Schedule != nil {
		t.Error("default config carries a fault map or schedule")
	}
	v, err := c.Vars()
	if err != nil || v <= 0 {
		t.Errorf("Vars() = %d, %v", v, err)
	}
	if s, err := c.Scheme(); err != nil || s == nil {
		t.Errorf("Scheme() = %v, %v", s, err)
	}
	if _, err := (Config{}).NewSimulator(); err == nil {
		t.Error("zero Config built a simulator")
	}
}

// TestOptionsApply checks the two hooks: values a Scenario cannot
// carry.
func TestOptionsApply(t *testing.T) {
	rec := &recordingSink{}
	scheme, _ := mustConfig(t, nil).Scheme()
	c := mustConfig(t, nil, TraceSink(rec), TraceSink(nil), UseScheme(scheme))
	if len(c.Sinks) != 1 || c.Sinks[0] != rec {
		t.Errorf("sinks = %v, want the one non-nil sink", c.Sinks)
	}
	if s, _ := c.Scheme(); s != scheme {
		t.Error("UseScheme scheme not installed")
	}
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Scenario)
	}{
		{"invalid HMOS side", func(sc *Scenario) { sc.Side = 10 }},
		{"negative ideal memory", func(sc *Scenario) { sc.IdealMemory = -1 }},
		{"malformed fault spec", func(sc *Scenario) { sc.Faults = "node:" }},
		// A spec is resolved against the scenario's own side: node 700
		// exists at side 27 (TestFaultResolution) but not at side 9.
		{"fault spec side mismatch", func(sc *Scenario) { sc.Faults = "node:700" }},
		{"fault schedule side mismatch", func(sc *Scenario) { sc.FaultSchedule = "@1 node:700" }},
	}
	for _, tc := range cases {
		sc := DefaultScenario()
		tc.edit(&sc)
		if _, err := FromScenario(sc); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestFaultResolution(t *testing.T) {
	// The spec resolves against the final side, set after the spec.
	c := mustConfig(t, func(sc *Scenario) { sc.Faults = "node:700"; sc.Side = 27 })
	if c.Core.Faults == nil || !c.Core.Faults.NodeDead(700) {
		t.Fatalf("spec not resolved: %v", c.Core.Faults)
	}
	if c.Core.Faults.Side() != 27 {
		t.Errorf("map built for side %d", c.Core.Faults.Side())
	}

	// Empty spec and all-healthy random draw leave the fast path (nil map).
	if c := mustConfig(t, func(sc *Scenario) { sc.Faults = "" }); c.Core.Faults != nil {
		t.Error("empty spec produced a map")
	}
	if c := mustConfig(t, func(sc *Scenario) { sc.Faults = "rand:seed=3" }); c.Core.Faults != nil {
		t.Error("zero-rate draw produced a map")
	}

	if c := mustConfig(t, func(sc *Scenario) { sc.Faults = "rand:link=0.5,seed=7" }); c.Core.Faults.Empty() {
		t.Error("lossy draw built an empty map")
	}
}

type recordingSink struct{ names []string }

func (r *recordingSink) Emit(root *trace.Span) { r.names = append(r.names, root.Name()) }

func TestNewSimulatorWiresSinks(t *testing.T) {
	rec := &recordingSink{}
	c := mustConfig(t, nil, TraceSink(rec), TraceSink(nil))
	if len(c.Sinks) != 1 {
		t.Fatalf("%d sinks registered, want 1 (nil dropped)", len(c.Sinks))
	}
	s, err := c.NewSimulator()
	if err != nil {
		t.Fatal(err)
	}
	s.Step([]core.Op{{Origin: 0, Var: 1, IsWrite: true, Value: 5}})
	if len(rec.names) == 0 || !strings.Contains(rec.names[0], "step") {
		t.Fatalf("sink saw %v, want the step root span", rec.names)
	}
}
