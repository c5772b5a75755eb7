package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"meshpram/internal/experiments"
)

// TestRunWritesOutAndJSON drives the -only/-json/-out path end to end:
// <ID>.txt is the header line followed by exactly the golden text, and
// BENCH_<ID>.json decodes with the golden's id and claim and a measured
// wall time.
func TestRunWritesOutAndJSON(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"-only", "E11", "-json", "-out", dir}, &stdout); code != 0 {
		t.Fatalf("exit code %d, stdout:\n%s", code, stdout.String())
	}
	golden := filepath.Join("..", "..", "internal", "experiments", "testdata", "golden")
	e, _ := experiments.Lookup("E11")
	want, err := os.ReadFile(filepath.Join(golden, "E11.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte("\n== E11: "+e.Claim+" ==\n\n"), want...)
	got, err := os.ReadFile(filepath.Join(dir, "E11.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("E11.txt:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from E11.txt:\n%s", stdout.String())
	}

	rep, ref := readReport(t, filepath.Join(dir, "BENCH_E11.json")), readReport(t, filepath.Join(golden, "BENCH_E11.json"))
	if rep.ID != ref.ID || rep.Claim != ref.Claim || rep.WallNs <= 0 {
		t.Errorf("BENCH_E11.json = %+v, want id %q, claim %q and wall_ns > 0", rep, ref.ID, ref.Claim)
	}
}

// report is the part of a BENCH_<ID>.json the test checks.
type report struct {
	ID     string `json:"id"`
	Claim  string `json:"claim"`
	WallNs int64  `json:"wall_ns"`
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return r
}

func TestRunUnknownID(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-only", "E99"}, &stdout); code != 2 {
		t.Fatalf("exit code %d for an unknown id, want 2", code)
	}
}
