package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"meshpram/internal/sim"
)

// TestFlagsCoverScenario pins the ISSUE's "one config surface"
// guarantee: every pramsim flag maps to exactly one sim.Scenario JSON
// field, and every Scenario field is reachable from a flag. Adding a
// Scenario field without a flag (or vice versa) fails here.
func TestFlagsCoverScenario(t *testing.T) {
	sc := sim.DefaultScenario()
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	mapping := scenarioFlags(fs, &sc)

	// Every registered flag appears in the mapping and vice versa.
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	for name := range mapping {
		if !registered[name] {
			t.Errorf("mapping names flag -%s, but scenarioFlags never registers it", name)
		}
	}
	for name := range registered {
		if _, ok := mapping[name]; !ok {
			t.Errorf("flag -%s registered but missing from the flag → field mapping", name)
		}
	}

	// Every Scenario JSON field is covered by exactly one flag.
	fields := map[string]bool{}
	rt := reflect.TypeOf(sim.Scenario{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Fatalf("Scenario field %s has no JSON tag", rt.Field(i).Name)
		}
		fields[tag] = true
	}
	seen := map[string]string{}
	for flagName, field := range mapping {
		if !fields[field] {
			t.Errorf("flag -%s maps to %q, which is not a Scenario JSON field", flagName, field)
		}
		if prev, dup := seen[field]; dup {
			t.Errorf("Scenario field %q mapped by both -%s and -%s", field, prev, flagName)
		}
		seen[field] = flagName
	}
	for field := range fields {
		if _, ok := seen[field]; !ok {
			t.Errorf("Scenario field %q has no pramsim flag", field)
		}
	}
}

// TestFlagsOverrideScenarioFile checks the overlay semantics: flags
// registered after loading carry the file's values as defaults, so
// only explicitly-passed flags override.
func TestFlagsOverrideScenarioFile(t *testing.T) {
	sc := sim.DefaultScenario()
	sc.Program = "matvec" // as if loaded from -scenario
	sc.Size = 8
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	scenarioFlags(fs, &sc)
	if err := fs.Parse([]string{"-n", "4"}); err != nil {
		t.Fatal(err)
	}
	if sc.Program != "matvec" {
		t.Errorf("untouched field overwritten: program = %q", sc.Program)
	}
	if sc.Size != 4 {
		t.Errorf("flag override lost: size = %d, want 4", sc.Size)
	}
}

func TestScanScenarioPath(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "a.json"}, "a.json"},
		{[]string{"-scenario=a.json"}, "a.json"},
		{[]string{"--scenario", "a.json", "-n", "4"}, "a.json"},
		{[]string{"-n", "4", "--scenario=b.json"}, "b.json"},
		{[]string{"-n", "4"}, ""},
		{[]string{"--", "-scenario", "a.json"}, ""},
	}
	for _, tc := range cases {
		if got := scanScenarioPath(tc.args); got != tc.want {
			t.Errorf("scanScenarioPath(%v) = %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestLoadScenarioStrict checks a scenario file is decoded strictly: a
// misspelled field fails and names itself instead of silently running
// the default, trailing data fails, and a clean file loads over the
// defaults.
func TestLoadScenarioStrict(t *testing.T) {
	dir := t.TempDir()
	load := func(name, body string) (sim.Scenario, error) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		sc := sim.DefaultScenario()
		err := loadScenario(path, &sc)
		return sc, err
	}
	if _, err := load("typo.json", `{"sied": 27}`); err == nil || !strings.Contains(err.Error(), "sied") {
		t.Errorf("unknown field: err = %v, want an error naming \"sied\"", err)
	}
	if _, err := load("trailing.json", `{"side": 27} garbage`); err == nil {
		t.Error("trailing data after the scenario was accepted")
	}
	sc, err := load("ok.json", "{\"side\": 27, \"d\": 5}\n")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Side != 27 || sc.D != 5 || sc.Program != sim.DefaultScenario().Program {
		t.Errorf("loaded %+v, want side 27, d 5 over the defaults", sc)
	}
}

// TestFailingRunKeepsCPUProfile runs a scenario that fails after
// profiling has started (k = 3 submeshes do not tile side 9) and
// requires a non-empty CPU profile: the profile must be stopped and
// flushed on the error path too.
func TestFailingRunKeepsCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if err := run([]string{"-k", "3", "-cpuprofile", path}, io.Discard); err == nil {
		t.Fatal("run with k=3 on side 9 succeeded; the test needs a failing run")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("failing run left an empty CPU profile")
	}
}
