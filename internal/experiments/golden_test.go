package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"meshpram/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the experiment golden files")

var goldenDir = filepath.Join("testdata", "golden")

// noText lists the experiments whose printed table holds only host
// timings, the host core count and values their JSON already carries.
var noText = map[string]bool{"ROUTE": true, "SCALE": true}

// TestExperimentGolden runs every experiment once at default scale and
// seed 1 and compares its report (BENCH_<ID>.json) and printed output
// (<ID>.txt) with testdata/golden. Only host-dependent values are
// zeroed; every charged cycle, count, verdict and byte total is exact,
// so any cost change fails here until `go test ./internal/experiments
// -run TestExperimentGolden -update` re-records it. Subtests stay
// sequential: ROUTE's allocs/op reads the process-wide malloc counter.
func TestExperimentGolden(t *testing.T) {
	want := map[string]bool{}
	for _, e := range All {
		want["BENCH_"+e.ID+".json"] = true
		if !noText[e.ID] {
			want[e.ID+".txt"] = true
		}
	}
	files, _ := os.ReadDir(goldenDir)
	for _, f := range files {
		if want[f.Name()] {
			continue
		}
		if *update {
			if err := os.Remove(filepath.Join(goldenDir, f.Name())); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("%s: no experiment writes this golden file", f.Name())
	}
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && (e.ID == "E1" || e.ID == "E9" || e.ID == "E15" || e.ID == "E17") {
				t.Skip("slow experiment skipped in -short mode")
			}
			rep := &Report{ID: e.ID, Claim: e.Claim}
			var out bytes.Buffer
			if err := e.Run(&out, Config{Seed: 1, Report: rep}); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			zeroHost(rep)
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "BENCH_"+e.ID+".json", append(buf, '\n'), jsonDiff)
			if !noText[e.ID] {
				checkGolden(t, e.ID+".txt", out.Bytes(), textDiff)
			}
		})
	}
}

// zeroHost clears the host-dependent values: wall times, per-op
// nanoseconds and whole-process heap sizes.
func zeroHost(r *Report) {
	r.WallNs = 0
	for k := range r.Phases {
		if strings.HasSuffix(k, "-ns-op") || strings.HasSuffix(k, "-heap-bytes") {
			r.Phases[k] = 0
		}
	}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		n.WallNs = 0
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range r.Traces {
		walk(n)
	}
}

// checkGolden compares got with testdata/golden/<name> in a subtest of
// that name (rewriting the file under -update) and reports the first
// difference that diff finds.
func checkGolden(t *testing.T, name string, got []byte, diff func(got, want []byte) string) {
	t.Run(name, func(t *testing.T) { compareGolden(t, name, got, diff) })
}

func compareGolden(t *testing.T, name string, got []byte, diff func(got, want []byte) string) {
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs: %s", name, diff(got, want))
	}
}

// textDiff names the first differing line.
func textDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %q\nwant: %q", i+1, line(g, i), line(w, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// jsonDiff names the key path of the first differing value, walking
// object keys in sorted order.
func jsonDiff(got, want []byte) string {
	g, err := decode(got)
	if err != nil {
		return err.Error()
	}
	w, err := decode(want)
	if err != nil {
		return "golden: " + err.Error()
	}
	return firstDiff("", g, w)
}

// decode keeps numbers as their JSON text, so large counts compare and
// print exactly.
func decode(buf []byte) (any, error) {
	d := json.NewDecoder(bytes.NewReader(buf))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	return v, err
}

func firstDiff(path string, got, want any) string {
	gm, gok := got.(map[string]any)
	wm, wok := want.(map[string]any)
	if gok && wok {
		keys := make([]string, 0, len(gm)+len(wm))
		for k := range gm {
			keys = append(keys, k)
		}
		for k := range wm {
			if _, ok := gm[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := firstDiff(path+"."+k, gm[k], wm[k]); d != "" {
				return d
			}
		}
		return ""
	}
	ga, gok := got.([]any)
	wa, wok := want.([]any)
	if gok && wok && len(ga) == len(wa) {
		for i := range ga {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), ga[i], wa[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return fmt.Sprintf("key %s: got %s, want %s", strings.TrimPrefix(path, "."), brief(got), brief(want))
}

// brief renders a JSON value for a failure message without dumping a
// whole subtree.
func brief(v any) string {
	switch v := v.(type) {
	case nil:
		return "<absent>"
	case map[string]any:
		return fmt.Sprintf("<object with %d keys>", len(v))
	case []any:
		return fmt.Sprintf("<array of %d>", len(v))
	}
	return fmt.Sprint(v)
}
