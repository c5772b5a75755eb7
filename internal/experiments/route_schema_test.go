package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteReportSchema runs the ROUTE experiment and diffs the schema
// of its BENCH_ROUTE.json against the checked-in golden, mirroring
// TestFaultReportSchema: the golden pins the emitted key set (one
// ns-op / allocs-op / cycles group per instance×side row),
// not the measurements. Update testdata/BENCH_ROUTE.schema.golden
// deliberately when the row set changes.
func TestRouteReportSchema(t *testing.T) {
	e, ok := Lookup("ROUTE")
	if !ok {
		t.Fatal("ROUTE experiment not registered")
	}
	rep := &Report{ID: e.ID, Claim: e.Claim}
	cfg := Config{Seed: 1, Report: rep}
	if err := e.Run(io.Discard, cfg); err != nil {
		t.Fatalf("RunRoute: %v", err)
	}
	rep.WallNs = 1 // always set by cmd/experiments; pin its presence
	got := reportSchema(t, rep)

	goldenPath := filepath.Join("testdata", "BENCH_ROUTE.schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	wantLines := strings.Fields(strings.TrimSpace(string(want)))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("BENCH_ROUTE.json schema drifted from %s\n got:\n  %s\nwant:\n  %s",
			goldenPath, strings.Join(got, "\n  "), strings.Join(wantLines, "\n  "))
	}
}
