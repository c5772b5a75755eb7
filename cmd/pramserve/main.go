// Command pramserve runs the simulation as a long-lived HTTP/JSON
// service (internal/serve): scenario submissions are validated, queued
// behind one bounded queue, executed on a pool of warm workers, and
// kept in one table keyed by the scenario's canonical key, which is
// also the job id. Determinism makes every result perfectly cacheable,
// so a hit returns bytes identical to recomputation.
//
// Usage:
//
//	pramserve [-addr :8080] [-pool N] [-queue 64]
//	          [-cache-entries 1024] [-cache-bytes N] [-timeout 60s] [-pprof]
//
// Endpoints:
//
//	POST /v1/simulate    run a sim.Scenario (JSON body), wait for the result
//	POST /v1/jobs        enqueue a scenario, returns {"id": "<key>", ...}
//	GET  /v1/jobs/{key}  poll a job by scenario key
//	GET  /v1/healthz     liveness and drain state
//	GET  /v1/stats       queue depth, cache hit rate, pool utilization
//
// On SIGINT/SIGTERM the server stops admitting work, drains the queue
// and the in-flight jobs, and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"meshpram/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 2, "worker pool width (warm engines)")
	queue := flag.Int("queue", 64, "job queue depth (full queue → 429)")
	cacheEntries := flag.Int("cache-entries", 1024, "finished jobs kept in the result table")
	cacheBytes := flag.Int64("cache-bytes", 0, "result table byte bound (0 = unbounded)")
	timeout := flag.Duration("timeout", 60*time.Second, "sync request timeout")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/ (opt-in; do not enable on untrusted networks)")
	flag.Parse()

	srv := serve.New(serve.Config{
		Workers:        *pool,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		RequestTimeout: *timeout,
	})

	// Profiling lives strictly in this transport layer: the serve
	// package's Handler and the workers are untouched, so enabling it
	// cannot perturb simulation results. Handlers are mounted on our own
	// mux (not DefaultServeMux), so nothing is exposed unless -pprof.
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Sync requests may legitimately wait the full computation
		// timeout; leave WriteTimeout above it.
		WriteTimeout: *timeout + 10*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pramserve: listening on %s (pool=%d queue=%d)\n", *addr, *pool, *queue)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting connections, then run every
		// queued job to completion before exiting.
		fmt.Fprintln(os.Stderr, "pramserve: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "pramserve: shutdown: %v\n", err)
		}
		srv.Drain()
		fmt.Fprintln(os.Stderr, "pramserve: drained")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "pramserve: %v\n", err)
			os.Exit(1)
		}
	}
}
