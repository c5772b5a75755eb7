package experiments

import "testing"

func smallCfg() Config { return Config{Big: false, Seed: 1} }

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E5"); !ok {
		t.Fatal("E5 missing")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("E99 found")
	}
}

func TestIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Claim == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if len(All) != 23 {
		t.Fatalf("%d experiments, want 23 (DESIGN.md §4 plus FAULT, RECOVER, GOSSIP, ROUTE and SCALE)", len(All))
	}
}

func TestMeasureSlowdownSmall(t *testing.T) {
	pt, err := measureSlowdown(e1Params(false)[0], smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.steps <= 0 || pt.alpha <= 1 {
		t.Fatalf("point %+v", pt)
	}
}
