package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScaleReportSchema runs the SCALE experiment (non-Big sides) and
// diffs the schema of its BENCH_SCALE.json against the checked-in
// golden, mirroring TestRouteReportSchema: the golden pins the emitted
// key set (n, ns-op, cycles and the bytes breakdown per side), not the
// measurements. The committed repo-root BENCH_SCALE.json is a -big run,
// so it carries the extra scale-1458-* keys on top of this set. Update
// testdata/BENCH_SCALE.schema.golden deliberately when the row set
// changes.
func TestScaleReportSchema(t *testing.T) {
	e, ok := Lookup("SCALE")
	if !ok {
		t.Fatal("SCALE experiment not registered")
	}
	rep := &Report{ID: e.ID, Claim: e.Claim}
	cfg := Config{Seed: 1, Report: rep}
	if err := e.Run(io.Discard, cfg); err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	rep.WallNs = 1 // always set by cmd/experiments; pin its presence
	got := reportSchema(t, rep)

	goldenPath := filepath.Join("testdata", "BENCH_SCALE.schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	wantLines := strings.Fields(strings.TrimSpace(string(want)))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("BENCH_SCALE.json schema drifted from %s\n got:\n  %s\nwant:\n  %s",
			goldenPath, strings.Join(got, "\n  "), strings.Join(wantLines, "\n  "))
	}
}
