package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"meshpram/internal/bibd"
	"meshpram/internal/core"
	"meshpram/internal/faultview"
	"meshpram/internal/route"
)

// goldenCanonical pins the canonical encoding of DefaultScenario. Any
// change to the field set, key order, or value formatting breaks every
// cached result key in the wild — change it deliberately or not at all.
const goldenCanonical = `backend="both"
d=3
direct_routing=false
disable_culling=false
fault_schedule=""
fault_view="global"
faults=""
ideal_memory=1048576
k=2
policy="majority"
program="prefixsum"
q=3
repair="off"
retry=0
seed=1
side=9
size=64
sort="shear"
torus=false
trace=false
`

// goldenKey = hex(sha256(goldenCanonical)).
const goldenKey = "2e87d2826e9c4b2afef9a5877e652a4de978099aa3db0d30553f8ef4a8302bc1"

func TestCanonicalGolden(t *testing.T) {
	sc := DefaultScenario()
	if got := string(sc.Canonical()); got != goldenCanonical {
		t.Errorf("Canonical() drifted:\ngot:\n%s\nwant:\n%s", got, goldenCanonical)
	}
	if got := sc.Key(); got != goldenKey {
		t.Errorf("Key() = %s, want %s", got, goldenKey)
	}
}

func TestCanonicalStable(t *testing.T) {
	sc := DefaultScenario()
	sc.Faults = `link:5-6;rand:module=0.02,seed=7`
	sc.FaultSchedule = "@3 module:40"
	sc.Trace = true
	a := sc.Canonical()
	for i := 0; i < 100; i++ {
		if b := sc.Canonical(); !bytes.Equal(a, b) {
			t.Fatalf("Canonical() not stable on run %d:\n%s\nvs\n%s", i, a, b)
		}
	}
	if sc.Key() != sc.Key() {
		t.Fatal("Key() not stable")
	}
}

// TestCanonicalCoversFields pins that every Scenario field appears in
// the canonical encoding under its JSON name — adding a field without
// extending Canonical would silently alias distinct scenarios to one
// cache key.
func TestCanonicalCoversFields(t *testing.T) {
	lines := strings.Split(strings.TrimRight(goldenCanonical, "\n"), "\n")
	keys := make(map[string]bool, len(lines))
	prev := ""
	for _, l := range lines {
		k, _, ok := strings.Cut(l, "=")
		if !ok {
			t.Fatalf("malformed canonical line %q", l)
		}
		if k <= prev {
			t.Errorf("canonical keys out of order: %q after %q", k, prev)
		}
		prev = k
		keys[k] = true
	}
	rt := reflect.TypeOf(Scenario{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Errorf("field %s has no JSON tag", rt.Field(i).Name)
			continue
		}
		if tag == "workers" {
			continue // accepted and ignored; TestNormalizedEquivalence pins it
		}
		if !keys[tag] {
			t.Errorf("field %s (json %q) missing from Canonical()", rt.Field(i).Name, tag)
		}
		delete(keys, tag)
	}
	for k := range keys {
		t.Errorf("canonical key %q has no Scenario field", k)
	}
}

func TestNormalizedEquivalence(t *testing.T) {
	// Omitted enums and spelled-out defaults must produce the same key,
	// and the ignored workers field must not reach it.
	implicit := Scenario{Side: 9, Q: 3, D: 3, K: 2, Program: "prefixsum", Size: 64, Seed: 1, Workers: 4, IdealMemory: 1 << 20}
	explicit := DefaultScenario()
	if implicit.Key() != explicit.Key() {
		t.Errorf("implicit defaults key %s != explicit defaults key %s", implicit.Key(), explicit.Key())
	}
}

// TestDecodeScenarioRejectsRemovedKnobs pins that the deleted engine
// and network-sort switches are unknown fields now: a scenario naming
// them fails to decode instead of silently running something else.
func TestDecodeScenarioRejectsRemovedKnobs(t *testing.T) {
	for _, knob := range []string{`{"engine":"cycle"}`, `{"network_sort":true}`} {
		sc := DefaultScenario()
		err := DecodeScenario(strings.NewReader(knob), &sc)
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("DecodeScenario(%s) = %v, want an unknown-field error", knob, err)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := DefaultScenario()
	sc.Program = "matvec"
	sc.Size = 8
	sc.Faults = "module:40"
	sc.FaultSchedule = "@3 module:41;@7 revive-module:41"
	sc.Repair = "eager"
	sc.Retry = 2
	sc.Torus = true
	sc.DirectRouting = true
	sc.Trace = true

	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != sc {
		t.Errorf("round trip changed the scenario:\n%+v\nvs\n%+v", back, sc)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("re-marshal not byte-stable:\n%s\nvs\n%s", data, data2)
	}
	if back.Key() != sc.Key() {
		t.Errorf("round trip changed the key: %s vs %s", back.Key(), sc.Key())
	}
}

func TestValidateRejections(t *testing.T) {
	mod := func(f func(*Scenario)) Scenario {
		sc := DefaultScenario()
		f(&sc)
		return sc
	}
	cases := []struct {
		name  string
		sc    Scenario
		field string // must appear in the error
	}{
		{"q too small", mod(func(s *Scenario) { s.Q = 2 }), "q"},
		{"side zero", mod(func(s *Scenario) { s.Side = 0 }), "side"},
		{"d too small", mod(func(s *Scenario) { s.D = 1 }), "d"},
		{"k zero", mod(func(s *Scenario) { s.K = 0 }), "k"},
		{"unknown program", mod(func(s *Scenario) { s.Program = "quicksort" }), "program"},
		{"size zero", mod(func(s *Scenario) { s.Size = 0 }), "size"},
		{"size exceeds mesh", mod(func(s *Scenario) { s.Size = 100 }), "size"},
		{"bad backend", mod(func(s *Scenario) { s.Backend = "gpu" }), "backend"},
		{"bad policy", mod(func(s *Scenario) { s.Policy = "quorumish" }), "policy"},
		{"bad sort", mod(func(s *Scenario) { s.Sort = "bubble" }), "sort"},
		{"bad repair", mod(func(s *Scenario) { s.Repair = "eventually" }), "repair"},
		{"bad fault view", mod(func(s *Scenario) { s.FaultView = "psychic" }), "fault_view"},
		{"negative retry", mod(func(s *Scenario) { s.Retry = -1 }), "retry"},
		{"retry above limit", mod(func(s *Scenario) { s.Retry = MaxRetry + 1 }), "retry"},
		{"negative ideal memory", mod(func(s *Scenario) { s.IdealMemory = -1 }), "ideal_memory"},
		{"malformed faults", mod(func(s *Scenario) { s.Faults = "link:banana" }), "faults"},
		{"side above limit", mod(func(s *Scenario) { s.Side = MaxSide + 1 }), "side"},
		{"ideal memory above limit", mod(func(s *Scenario) { s.IdealMemory = MaxIdealMemory + 1 }), "ideal_memory"},
		{"huge ideal memory", mod(func(s *Scenario) { s.Backend, s.IdealMemory = BackendIdeal, 1<<62 }), "ideal_memory"},
		{"scheme M above ideal limit", mod(func(s *Scenario) { s.Backend, s.IdealMemory, s.D = BackendIdeal, 0, 8 }), "ideal_memory"},
		{"huge ideal size", mod(func(s *Scenario) { s.Backend, s.Size = BackendIdeal, 1<<62 }), "size"},
		{"matvec beyond ideal memory", mod(func(s *Scenario) { s.Backend, s.Program, s.Size = BackendIdeal, "matvec", 1024 }), "size"},
		{"program beyond mesh memory", mod(func(s *Scenario) { s.Program = "listrank" }), "size"},
		{"malformed fault schedule", mod(func(s *Scenario) { s.FaultSchedule = "@x module:40" }), "fault_schedule"},
		{"fault schedule out of range", mod(func(s *Scenario) { s.FaultSchedule = "@3 module:999" }), "fault_schedule"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted %+v", tc.sc)
			}
			var fe *fieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a fieldError", err)
			}
			if fe.Field != tc.field {
				t.Errorf("error attributed to field %q, want %q (%v)", fe.Field, tc.field, err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not surface field name %q", err, tc.field)
			}
		})
	}
	// "size exceeds mesh" is relaxed for the ideal backend.
	sc := DefaultScenario()
	sc.Backend = BackendIdeal
	sc.Size = 100
	if err := sc.Validate(); err != nil {
		t.Errorf("ideal backend should allow size > side²: %v", err)
	}
}

// runLevelFields are the Scenario fields that do not reach a Config:
// callers execute them through pram.BuildProgram and pram.NewBackend,
// except workers, which is accepted and ignored.
var runLevelFields = []string{"program", "size", "backend", "trace", "workers"}

func TestFromScenarioBridges(t *testing.T) {
	cases := []struct {
		field string // JSON name of the bridged Scenario field
		edit  func(*Scenario)
		ok    func(Config) bool
	}{
		{"side", func(s *Scenario) { s.Side = 27 }, func(c Config) bool { return c.Params.Side == 27 }},
		{"q", func(s *Scenario) { s.Side, s.Q = 25, 5 }, func(c Config) bool { return c.Params.Q == 5 }},
		{"d", func(s *Scenario) { s.Side, s.D = 27, 4 }, func(c Config) bool { return c.Params.D == 4 }},
		{"k", func(s *Scenario) { s.D, s.K = 4, 1 }, func(c Config) bool { return c.Params.K == 1 }},
		{"seed", func(s *Scenario) { s.Seed = 42 }, func(c Config) bool { return c.Core.FaultViewSeed == 42 }},
		{"policy", func(s *Scenario) { s.Policy = "rowa" }, func(c Config) bool { return c.Core.Policy == core.ReadOneWriteAllPolicy }},
		{"torus", func(s *Scenario) { s.Torus = true }, func(c Config) bool { return c.Core.Torus }},
		{"sort", func(s *Scenario) { s.Sort = "rotate" }, func(c Config) bool { return c.Core.Sort == route.RotateSort }},
		{"disable_culling", func(s *Scenario) { s.DisableCulling = true }, func(c Config) bool { return c.Core.DisableCulling }},
		{"direct_routing", func(s *Scenario) { s.DirectRouting = true }, func(c Config) bool { return c.Core.DirectRouting }},
		{"faults", func(s *Scenario) { s.Faults = "node:5" }, func(c Config) bool { return c.Core.Faults.NodeDead(5) }},
		{"fault_schedule", func(s *Scenario) { s.FaultSchedule = "@3 module:40" }, func(c Config) bool { return c.Core.Schedule.Len() == 1 }},
		{"fault_view", func(s *Scenario) { s.FaultView = "local" }, func(c Config) bool { return c.Core.FaultView == faultview.Local }},
		{"repair", func(s *Scenario) { s.Repair = "lazy" }, func(c Config) bool { return c.Core.Repair == core.RepairLazy }},
		{"retry", func(s *Scenario) { s.Retry = 3 }, func(c Config) bool { return c.Retry == 3 }},
		{"ideal_memory", func(s *Scenario) { s.IdealMemory = 4096 }, func(c Config) bool { return c.IdealMemory == 4096 }},
	}
	base, err := FromScenario(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, f := range runLevelFields {
		covered[f] = true
	}
	for _, tc := range cases {
		if covered[tc.field] {
			t.Errorf("field %q listed twice", tc.field)
		}
		covered[tc.field] = true
		if tc.ok(base) {
			t.Errorf("%s: the default scenario already passes the check", tc.field)
			continue
		}
		sc := DefaultScenario()
		tc.edit(&sc)
		cfg, err := FromScenario(sc)
		if err != nil {
			t.Errorf("%s: %v", tc.field, err)
			continue
		}
		if !tc.ok(cfg) {
			t.Errorf("%s not bridged", tc.field)
		}
		if cfg.Params != sc.Params() {
			t.Errorf("%s: params %+v, want %+v", tc.field, cfg.Params, sc.Params())
		}
	}
	// Every Scenario field is either bridged above or run-level.
	rt := reflect.TypeOf(Scenario{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if !covered[tag] {
			t.Errorf("field %s (json %q) is neither bridged nor run-level", rt.Field(i).Name, tag)
		}
		delete(covered, tag)
	}
	for f := range covered {
		t.Errorf("%q is not a Scenario field", f)
	}

	bad := DefaultScenario()
	bad.Q = 2
	if _, err := FromScenario(bad); err == nil {
		t.Error("FromScenario accepted q=2")
	}
}

func TestUseSchemeParamMismatch(t *testing.T) {
	cfg, err := FromScenario(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	s, err := cfg.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	other := DefaultScenario()
	other.D, other.K = 4, 1
	if _, err := FromScenario(other, UseScheme(s)); err == nil {
		t.Error("FromScenario accepted a scheme built for different params")
	}
	if _, err := FromScenario(DefaultScenario(), UseScheme(s)); err != nil {
		t.Errorf("FromScenario rejected a matching scheme: %v", err)
	}
	if _, err := FromScenario(DefaultScenario(), UseScheme(nil)); err == nil {
		t.Error("FromScenario accepted a nil scheme")
	}
}

// TestSchemeVars pins the saturating M against bibd.F.
func TestSchemeVars(t *testing.T) {
	for _, qd := range [][2]int{{3, 2}, {3, 3}, {3, 7}, {4, 5}, {5, 4}, {7, 3}, {9, 6}} {
		if got, want := schemeVars(qd[0], qd[1]), bibd.F(qd[0], qd[1]); got != want {
			t.Errorf("schemeVars(%d, %d) = %d, want %d", qd[0], qd[1], got, want)
		}
	}
	if got := schemeVars(512, 1<<40); got != 1<<61 {
		t.Errorf("schemeVars did not saturate: %d", got)
	}
}

func TestProgramsSorted(t *testing.T) {
	if !sort.StringsAreSorted(Programs) {
		t.Errorf("Programs not sorted: %v", Programs)
	}
}
