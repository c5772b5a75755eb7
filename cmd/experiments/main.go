// Command experiments regenerates the full evaluation of the
// reproduction: one experiment per theorem/claim of the paper (see
// DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-only E5] [-big] [-seed S] [-json]
//
// -big adds the largest machine sizes (minutes instead of seconds);
// -json additionally writes one BENCH_<ID>.json per experiment
// (charged steps, phase breakdown, wall time, and the cost-ledger
// trees of the exercised execution paths) into the -out directory, or
// the working directory when -out is unset.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"meshpram/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment by id (e.g. E5)")
	big := flag.Bool("big", false, "include the largest machine sizes")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list experiments and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<ID>.txt")
	jsonOut := flag.Bool("json", false, "write BENCH_<ID>.json per experiment (to -out dir, or .)")
	flag.Parse()

	cfg := experiments.Config{Big: *big, Seed: *seed}
	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}
	jsonDir := *outDir
	if jsonDir == "" {
		jsonDir = "."
	}
	runOne := func(e experiments.Experiment) (err error) {
		var w io.Writer = os.Stdout
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			var f *os.File
			if f, err = os.Create(filepath.Join(*outDir, e.ID+".txt")); err != nil {
				return err
			}
			// A failed close can lose the tail of <ID>.txt: report it
			// unless the run already failed. The deferred func sets the
			// named result, so f and err must not be shadowed here.
			defer func() {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
			w = io.MultiWriter(os.Stdout, f)
		}
		fmt.Fprintf(w, "\n== %s: %s ==\n\n", e.ID, e.Claim)
		cfg := cfg
		if *jsonOut {
			cfg.Report = &experiments.Report{ID: e.ID, Claim: e.Claim}
		}
		start := time.Now()
		if err := e.Run(w, cfg); err != nil {
			return err
		}
		if cfg.Report != nil {
			cfg.Report.WallNs = time.Since(start).Nanoseconds()
			buf, err := json.MarshalIndent(cfg.Report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(jsonDir, "BENCH_"+e.ID+".json"), append(buf, '\n'), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	if *only != "" {
		e, ok := experiments.Lookup(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", *only)
			os.Exit(2)
		}
		if err := runOne(e); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range experiments.All {
		if err := runOne(e); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
