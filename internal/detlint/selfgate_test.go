package detlint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRepoClean is the self-gate: the full suite over the repository's
// own tree must report nothing. Disabling any analyzer cannot make this
// pass more easily, and a change that introduces a finding (or orphans
// a suppression — ignoreaudit runs too) fails here before CI.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(loader.ModRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded; pattern expansion is broken", len(pkgs))
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("%s", f)
	}
}

// TestDeadCodeStandsDownOnPartialLoad loads a main and the sim package
// it imports, but not serve or pram, which call much of sim: their
// calls are invisible, so deadcode must report nothing rather than
// condemn the functions only they use.
func TestDeadCodeStandsDownOnPartialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks a main and its imports")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range []string{"cmd/pramsim", "internal/sim"} {
		pkg, err := loader.Load(filepath.Join(loader.ModRoot, dir))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, f := range Run(pkgs, []*Analyzer{DeadCode, IgnoreAudit}) {
		t.Errorf("%s", f)
	}
}

// TestBaselineEmpty keeps the committed baseline honest: it exists so
// CI has a stable gate file, and it must stay empty — new findings are
// fixed or suppressed with a reason, never parked.
func TestBaselineEmpty(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(loader.ModRoot, "detlint.baseline.json")
	set, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 0 {
		t.Errorf("committed baseline carries %d fingerprint(s); fix or suppress findings instead of parking them", len(set))
	}
	// and it must stay canonically formatted so diffs are reviewable
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &v); err != nil || v.Version != 1 {
		t.Errorf("baseline version = %d, err = %v; want version 1", v.Version, err)
	}
}

// TestSuiteComposition pins the suite: every analyzer is registered
// exactly once and the v2 checks are present, so a refactor cannot
// silently drop one from All().
func TestSuiteComposition(t *testing.T) {
	want := []string{"maprange", "wallclock", "checkederr", "snapshotfields",
		"ledgerphase", "determtaint", "goroutineshare", "chanorder", "deadcode", "ignoreaudit"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}
