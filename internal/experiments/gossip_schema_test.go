package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGossipReportSchema runs the GOSSIP experiment at the small size
// and diffs the schema of its BENCH_GOSSIP.json against the checked-in
// golden, mirroring TestFaultReportSchema: the golden pins the emitted
// key set (one discovery/staleness/loss group per churn rate), not the
// measurements. Update testdata/BENCH_GOSSIP.schema.golden deliberately
// when the sweep or the per-rate keys change. It also pins the
// experiment's headline claim: on a churn timeline the local view
// reports nonzero discovery latency where the omniscient baseline
// reports identically zero.
func TestGossipReportSchema(t *testing.T) {
	e, ok := Lookup("GOSSIP")
	if !ok {
		t.Fatal("GOSSIP experiment not registered")
	}
	rep := &Report{ID: e.ID, Claim: e.Claim}
	cfg := Config{Seed: 1, Report: rep}
	if err := e.Run(io.Discard, cfg); err != nil {
		t.Fatalf("RunGossip: %v", err)
	}
	rep.WallNs = 1 // always set by cmd/experiments; pin its presence
	got := reportSchema(t, rep)

	goldenPath := filepath.Join("testdata", "BENCH_GOSSIP.schema.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	wantLines := strings.Fields(strings.TrimSpace(string(want)))
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("BENCH_GOSSIP.json schema drifted from %s\n got:\n  %s\nwant:\n  %s",
			goldenPath, strings.Join(got, "\n  "), strings.Join(wantLines, "\n  "))
	}

	// The acceptance claim, on the measurements themselves: some churn
	// rate shows nonzero local discovery latency and staleness while
	// every global baseline is zero.
	var localLatency, stale int64
	for _, rate := range gossipRates {
		key := churnKey(rate)
		if v := rep.Phases["disclatency-global@"+key]; v != 0 {
			t.Errorf("global baseline reports discovery latency %d at churn %s, want 0", v, key)
		}
		localLatency += rep.Phases["disclatency@"+key]
		stale += rep.Phases["stalemax@"+key]
	}
	if localLatency == 0 {
		t.Error("local view reports zero discovery latency across the whole sweep")
	}
	if stale == 0 {
		t.Error("local view reports zero notice staleness across the whole sweep")
	}
}
