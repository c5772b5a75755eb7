package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The memory-budget gate. Two committed artifacts anchor it:
//
//   - BENCH_SCALE.json — the current layout's figures (a -big run, so
//     it includes the million-node side-1458 point);
//   - BENCH_SCALE.baseline.json — the modeled pre-slab layout on the
//     identical workload.
//
// The gate (a) re-measures bytes/node at the largest non-Big side and
// fails on a >10% regression against the committed figure (MemReport
// counts capacities, so the measurement is deterministic — any drift is
// a real layout change someone must re-commit deliberately), and (b)
// requires the committed million-node point to sit at least 4× below
// the baseline.

func loadBenchPhases(t *testing.T, name string) map[string]int64 {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatalf("read committed %s: %v", name, err)
	}
	var rep struct {
		Phases map[string]int64 `json:"phases"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	if len(rep.Phases) == 0 {
		t.Fatalf("%s has no phases", name)
	}
	return rep.Phases
}

func TestScaleMemoryBudgetGate(t *testing.T) {
	committed := loadBenchPhases(t, "BENCH_SCALE.json")
	side := scaleSides[len(scaleSides)-1]
	key := "scale-486-bytes-node-milli"
	want, ok := committed[key]
	if !ok || want <= 0 {
		t.Fatalf("committed BENCH_SCALE.json lacks %s", key)
	}
	cell, err := measureScale(side, 1)
	if err != nil {
		t.Fatalf("measureScale side=%d: %v", side, err)
	}
	if cell.bytesNodeMilli*10 > want*11 {
		t.Errorf("bytes/node regression at side %d: measured %d milli, committed %d milli (>10%% over budget)",
			side, cell.bytesNodeMilli, want)
	}
}

func TestScaleMillionNodeVsBaseline(t *testing.T) {
	committed := loadBenchPhases(t, "BENCH_SCALE.json")
	baseline := loadBenchPhases(t, "BENCH_SCALE.baseline.json")
	const key = "scale-1458-bytes-node-milli"
	cur, ok := committed[key]
	if !ok || cur <= 0 {
		t.Fatalf("committed BENCH_SCALE.json lacks the million-node point %s — regenerate with -big", key)
	}
	base, ok := baseline[key]
	if !ok || base <= 0 {
		t.Fatalf("BENCH_SCALE.baseline.json lacks %s", key)
	}
	if n := committed["scale-1458-n"]; n < 1_000_000 {
		t.Fatalf("largest committed point has n=%d, want ≥ 10^6", n)
	}
	if base < 4*cur {
		t.Errorf("million-node bytes/node %d milli is not ≥4× below the pre-slab baseline %d milli", cur, base)
	}
}
