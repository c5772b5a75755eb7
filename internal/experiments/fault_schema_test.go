package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reportSchema flattens a marshaled Report into its sorted key paths:
// the top-level JSON keys plus one "phases.<k>" / "traces.<k>" entry
// per map key. Values are deliberately excluded — the golden pins the
// shape of BENCH_FAULT.json, not the measurements.
func reportSchema(t *testing.T, r *Report) []string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	var keys []string
	for k, v := range m {
		keys = append(keys, k)
		if k == "phases" || k == "traces" {
			var sub map[string]json.RawMessage
			if err := json.Unmarshal(v, &sub); err != nil {
				t.Fatalf("unmarshal %s: %v", k, err)
			}
			for sk := range sub {
				keys = append(keys, k+"."+sk)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// TestFaultReportSchema runs the FAULT experiment at the small size and
// diffs the schema of its BENCH_FAULT.json against the checked-in
// golden. A mismatch means the emitted benchmark format changed:
// update testdata/BENCH_FAULT.schema.golden deliberately (and any
// downstream consumers) rather than silently shifting the schema.
func TestFaultReportSchema(t *testing.T) {
	e, ok := Lookup("FAULT")
	if !ok {
		t.Fatal("FAULT experiment not registered")
	}
	rep := &Report{ID: e.ID, Claim: e.Claim}
	cfg := Config{Seed: 1, Report: rep}
	if err := e.Run(io.Discard, cfg); err != nil {
		t.Fatalf("RunFault: %v", err)
	}
	rep.WallNs = 1 // always set by cmd/experiments; pin its presence
	got := reportSchema(t, rep)

	goldenPath := filepath.Join("testdata", "BENCH_FAULT.schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	wantLines := strings.Fields(strings.TrimSpace(string(want)))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("BENCH_FAULT.json schema drifted from %s\n got:\n  %s\nwant:\n  %s",
			goldenPath, strings.Join(got, "\n  "), strings.Join(wantLines, "\n  "))
	}
}
