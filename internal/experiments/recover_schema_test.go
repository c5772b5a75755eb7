package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecoverReportSchema runs the RECOVER experiment at the small size
// and diffs the schema of its BENCH_RECOVER.json against the checked-in
// golden, exactly like TestFaultReportSchema does for FAULT: update
// testdata/BENCH_RECOVER.schema.golden deliberately rather than
// silently shifting the emitted benchmark format.
func TestRecoverReportSchema(t *testing.T) {
	e, ok := Lookup("RECOVER")
	if !ok {
		t.Fatal("RECOVER experiment not registered")
	}
	rep := &Report{ID: e.ID, Claim: e.Claim}
	cfg := Config{Seed: 1, Report: rep}
	if err := e.Run(io.Discard, cfg); err != nil {
		t.Fatalf("RunRecover: %v", err)
	}
	rep.WallNs = 1 // always set by cmd/experiments; pin its presence
	got := reportSchema(t, rep)

	goldenPath := filepath.Join("testdata", "BENCH_RECOVER.schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	wantLines := strings.Fields(strings.TrimSpace(string(want)))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("BENCH_RECOVER.json schema drifted from %s\n got:\n  %s\nwant:\n  %s",
			goldenPath, strings.Join(got, "\n  "), strings.Join(wantLines, "\n  "))
	}
}
