package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"meshpram/internal/pram"
)

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tiny shrinks a workload to a few steps on a small machine while
// keeping its code path: batches or matvec, workers, churn episodes.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "e1-81":
		w.side, w.d, w.episode = 9, 3, 2
	case "matvec-81":
		w.side, w.d, w.matvec = 9, 3, 8
	case "e1-243-w2":
		w.side, w.d, w.episode = 27, 5, 2
	case "churn-27":
		w.episode = 2
	}
	return w
}

func benchmarkSpec(t *testing.T) (endToEnd, perLayer []spec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the command's is %q", i, w.Name, workloads[i].name)
		}
	}
	return b.EndToEnd, b.PerLayer
}

// runTiny runs one episode of w and returns the printed result line.
func runTiny(t *testing.T, w workload, traced bool) resultLine {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, w, options{seed: 3, traced: traced}); err != nil {
		t.Fatalf("%s traced=%t: %v", w.name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "# meshbench ") || !strings.Contains(lines[0], " num_cpu=") {
		t.Errorf("%s: first line is not the header: %q", w.name, lines[0])
	}
	if traced && !strings.Contains(out.String(), "trace.coverage") {
		t.Errorf("%s: traced run prints no coverage line", w.name)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
		t.Errorf("%s: result line %+v", w.name, res)
	}
	return res
}

// deterministic are the metrics a run's seed alone decides: charged
// cycles, packets and engine iterations.
func deterministic(res resultLine, specs []spec) map[string]float64 {
	out := map[string]float64{"attempted": float64(res.Attempted), "failed": float64(res.Failed)}
	for _, s := range specs {
		if s.Unit == "cycles" || (s.Unit == "count" && s.Name != "allocs_per_step") {
			out[s.Name] = res.Metrics[s.Name].Value
		}
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				first := runTiny(t, w, traced)
				if len(first.Metrics) != len(specs) {
					t.Errorf("traced=%t: %d metrics printed, BENCHMARK.json names %d", traced, len(first.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := first.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("traced=%t: metric %s printed as %+v, want unit %s", traced, s.Name, m, s.Unit)
					}
				}
				want := deterministic(first, specs)
				again := []workload{w}
				if w.workers > 1 {
					w1 := w
					w1.workers = 1
					again = append(again, w1)
				}
				for _, w2 := range again {
					got := deterministic(runTiny(t, w2, traced), specs)
					for k, v := range want {
						if got[k] != v {
							t.Errorf("traced=%t workers=%d: %s = %v, first run %v", traced, w2.workers, k, got[k], v)
						}
					}
				}
			}
		})
	}
}

func TestTracedRunAccountsForStepTime(t *testing.T) {
	for _, name := range []string{"e1-81", "matvec-81"} {
		plain, err := run(tiny(t, name), options{seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := run(tiny(t, name), options{seed: 5, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if traced.coverage < 0.95 {
			t.Errorf("%s: layers account for %.3f of ExecStep wall time, want ≥ 0.95", name, traced.coverage)
		}
		if traced.cyclesPerStep != plain.cyclesPerStep {
			t.Errorf("%s: %v cycles per step traced, %v untraced", name, traced.cyclesPerStep, plain.cyclesPerStep)
		}
	}
}

// TestRunIsWholeEpisodes gives a tiny workload a second of budget: the
// run rebuilds its backend for every episode and stops at an episode
// boundary, and the cycles metric still covers the first episode only.
func TestRunIsWholeEpisodes(t *testing.T) {
	w := tiny(t, "e1-81")
	one, err := run(w, options{seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	many, err := run(w, options{seed: 2, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n, k := len(many.stepMs), len(one.stepMs); n <= k || n%k != 0 || many.episodes != n/k {
		t.Errorf("a 1 s run took %d steps in %d episodes, not a multiple (>1) of one episode's %d", n, many.episodes, k)
	}
	if many.cyclesPerStep != one.cyclesPerStep {
		t.Errorf("cycles per step %v over a 1 s run, %v over one episode", many.cyclesPerStep, one.cyclesPerStep)
	}
}

// TestReferenceKeepsItsShare checks the reference's bookkeeping: a step
// owes refShare of its time, the computation runs until the debt is paid,
// the surplus carries over to later steps, and every episode gets at
// least one sample.
func TestReferenceKeepsItsShare(t *testing.T) {
	r := newReference()
	r.after(1) // owes 0.05 ms: one computation pays it and more
	if len(r.samples) != 1 || r.credit >= 0 {
		t.Fatalf("after a 1 ms step: %d samples, credit %v; want 1 sample and a surplus", len(r.samples), r.credit)
	}
	r.after(0) // the surplus covers a step that owes nothing
	if len(r.samples) != 1 {
		t.Fatalf("after a 0 ms step: %d samples, want still 1", len(r.samples))
	}
	want := r.samples[0]
	if ms := r.episode(); ms != want || len(r.samples) != 0 {
		t.Fatalf("episode() = %v with %d samples left; want the one sample, %v, and none left", ms, len(r.samples), want)
	}
	if ms := r.episode(); ms <= 0 {
		t.Fatalf("episode() with no samples = %v, want a fresh sample", ms)
	}
}

// TestReferenceDoesNotAllocate guards what keeps the reference
// independent of the simulator: with no allocations, the garbage
// collector never charges it for the simulator's heap.
func TestReferenceDoesNotAllocate(t *testing.T) {
	r := newReference()
	if n := testing.AllocsPerRun(3, r.once); n != 0 {
		t.Errorf("one reference computation made %v allocations, want 0", n)
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{2, 1}, 1.5},
		{[]float64{100, 3, 1, 2}, 2.5},         // the outer quarters drop out
		{[]float64{1, 1, 1, 9, 9, 9, 9, 9}, 7}, // a 3:5 mix of two step kinds
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSilentWrongWordIsAnError feeds the checker a read the mesh never
// reported as failed but that disagrees with the ideal PRAM.
func TestSilentWrongWordIsAnError(t *testing.T) {
	r := &runner{sc: tiny(t, "e1-81").scenario(1)}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	write := []pram.Op{{Kind: pram.Write, Addr: 7, Value: 42}}
	if _, err := r.ExecStep(write); err != nil {
		t.Fatal(err)
	}
	read := []pram.Op{{Kind: pram.Read, Addr: 7}}
	got, err := r.mesh.ExecStep(read)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("mesh read %d, want 42", got[0])
	}
	got[0] = 41
	err = r.check(read, got, r.reported(), 1)
	if err == nil || !strings.Contains(err.Error(), "pid 0 address 7") {
		t.Fatalf("check of a wrong word = %v, want an error naming pid and address", err)
	}
}

// TestReportedFailuresAreCounted drives the checker's failure accounting
// with a hand-made unrecoverable set: a reported write fails and taints
// its address, a wrong read of the tainted address fails without an
// error, and a clean write clears the taint, so the next wrong read is an
// error again.
func TestReportedFailuresAreCounted(t *testing.T) {
	r := &runner{sc: tiny(t, "e1-81").scenario(1)}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	read := []pram.Op{{Kind: pram.Read, Addr: 7}}
	lost := []pram.Word{0} // what the mesh returned for the lost word
	steps := []struct {
		ops      []pram.Op
		reported map[int]bool
		wantErr  bool
		failed   int
	}{
		{[]pram.Op{{Kind: pram.Write, Addr: 7, Value: 42}}, map[int]bool{7: true}, false, 1},
		{read, nil, false, 2},                   // tainted: counted, not an error
		{read, map[int]bool{7: true}, false, 3}, // reported in its own step
		{[]pram.Op{{Kind: pram.Write, Addr: 7, Value: 43}}, nil, false, 3},
		{read, nil, true, 3}, // clean again: a silent wrong word
	}
	for i, s := range steps {
		err := r.check(s.ops, lost, s.reported, i)
		if (err != nil) != s.wantErr {
			t.Fatalf("step %d: check = %v, want error %t", i, err, s.wantErr)
		}
		if r.failed != s.failed || r.attempted != i+1 {
			t.Fatalf("step %d: failed %d of %d attempted, want %d of %d", i, r.failed, r.attempted, s.failed, i+1)
		}
	}
}

// TestChurnFailuresAreReported runs the churn workload at a death rate
// high enough that the simulator reports operations unrecoverable. The
// run must still succeed, with every wrong word accounted for as failed.
func TestChurnFailuresAreReported(t *testing.T) {
	w := tiny(t, "churn-27")
	w.churn = 0.2
	res, err := run(w, options{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.failed > res.attempted {
		t.Fatalf("failed %d of %d attempted, want some but not all", res.failed, res.attempted)
	}
	t.Logf("failed %d of %d attempted", res.failed, res.attempted)
}
