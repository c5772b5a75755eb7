// Command meshbench is the end-to-end benchmark of the PRAM simulation:
// host time, allocations and charged mesh cycles per simulated PRAM
// step on four workloads from the paper's parameter ladder, with the
// host time also divided by that of a fixed reference computation timed
// alongside it (reference.go), and, in a traced run, the same step split
// by layer from the cost ledger's span tree. Every read is checked
// against the ideal PRAM.
//
//	bash bench/run.sh --workload e1-81 --seed 1 --seconds 20 --trace 0
//
// builds the command from the checkout and runs it. The last line of
// output is one JSON object with the metrics; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "meshbench: usage: --workload NAME --seed S --seconds N --trace 0|1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintf(stderr, "meshbench: %v (want all or one of %s)\n", err, names())
			return 2
		}
		todo = []workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	for _, w := range todo {
		if err := report(stdout, w, o); err != nil {
			fmt.Fprintf(stderr, "meshbench: %v\n", err)
			return 1
		}
	}
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// report runs one workload and prints a header, one line per metric and
// the JSON result line.
func report(out io.Writer, w workload, o options) error {
	fmt.Fprintf(out, "# meshbench workload=%s seed=%d seconds=%d trace=%t num_cpu=%d gomaxprocs=%d go=%s workers=%d\n",
		w.name, o.seed, o.seconds, o.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.workers)
	res, err := run(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.traced {
		fmt.Fprintf(out, "%-28s %14.4f ratio  (share of traced ExecStep wall time the layers account for)\n", "trace.coverage", res.coverage)
		fmt.Fprintf(out, "%-28s %14.4f cycles (as in the untraced run)\n", "mesh_cycles_per_step", res.cyclesPerStep)
	} else {
		fmt.Fprintf(out, "%-28s %14d count  (timed PRAM steps; %d episodes)\n", "steps", len(res.stepMs), res.episodes)
		fmt.Fprintf(out, "%-28s %14.4f ms     (median of all steps; not gated)\n", "step_ms_p50", median(res.stepMs))
		if p, v, ok := tail(res.stepMs); ok {
			fmt.Fprintf(out, "%-28s %14.4f ms     (p%g of %d samples; not gated)\n", "step_ms_tail", v, p, len(res.stepMs))
		} else {
			fmt.Fprintf(out, "%-28s %14s        (%d samples, too few for a tail)\n", "step_ms_tail", "-", len(res.stepMs))
		}
		fmt.Fprintf(out, "%-28s %14.6f ratio  (%d of %d ops reported unrecoverable)\n", "failed_ops_frac",
			ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
		for _, m := range res.raw {
			fmt.Fprintf(out, "%-28s %14.6g %-6s (host wall time; not gated)\n", m.name, m.value, m.unit)
		}
	}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return writeJSON(out, res)
}

// writeJSON prints the result line. Every check passed, or run would
// have returned an error instead.
func writeJSON(out io.Writer, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range res.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, ms})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
