package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

// setupBatches is how many timed batches of builds setup_s is the
// median of; see timeSetup.
const setupBatches = 21

type options struct {
	seed    int64
	seconds int
	traced  bool
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	attempted, failed int
	stepMs            []float64 // timed ExecStep wall per PRAM step
	episodes          int
	cyclesPerStep     float64  // charged cycles per step of the first episode
	raw               []metric // wall times in host units, printed but not gated
	metrics           []metric // end-to-end, or per-layer when traced
	coverage          float64  // traced only: see layers.coverage
}

// runner is the pram.Backend the programs run on: it times every mesh
// ExecStep, then, with the clock paused, replays the step on the ideal
// backend and checks every read.
type runner struct {
	sc    sim.Scenario
	extra []sim.Option
	mesh  *pram.Mesh
	ideal pram.Backend
	sink  *collector // nil when untraced
	lay   layers
	ref   *reference // nil in tests that drive ExecStep by hand

	clock    meter
	stepMs   []float64
	cycles   int64  // Σ Mesh.Steps() delta over timed steps
	written  []bool // by address
	nWritten int
	// tainted holds addresses whose last write was reported
	// unrecoverable: the mesh may legitimately disagree with the oracle
	// there until the next clean write.
	tainted           map[int]bool
	attempted, failed int
}

func (r *runner) Vars() int    { return r.mesh.Vars() }
func (r *runner) Steps() int64 { return r.mesh.Steps() }

func (r *runner) ExecStep(ops []pram.Op) ([]pram.Word, error) {
	step, c0 := len(r.stepMs), r.mesh.Steps()
	t0 := time.Now()
	got, err := r.mesh.ExecStep(ops)
	wall := time.Since(t0)
	r.clock.pause()
	defer r.clock.resume()
	if err != nil {
		return nil, fmt.Errorf("step %d: %w", step, err)
	}
	dc := r.mesh.Steps() - c0
	r.stepMs = append(r.stepMs, float64(wall.Nanoseconds())/1e6)
	r.cycles += dc
	if r.sink != nil {
		if err := r.lay.step(r.sink.take(), wall.Nanoseconds(), dc); err != nil {
			return nil, fmt.Errorf("step %d: invariant violated: %w", step, err)
		}
	}
	if err := r.check(ops, got, r.reported(), step); err != nil {
		return nil, err
	}
	if r.ref != nil {
		r.ref.after(r.stepMs[step])
	}
	return got, nil
}

// check replays ops on the ideal backend and compares every read. An
// op on a variable in reported, the step's unrecoverable set, counts as
// failed; a wrong word nobody reported is an error.
func (r *runner) check(ops []pram.Op, got []pram.Word, reported map[int]bool, step int) error {
	want, err := r.ideal.ExecStep(ops)
	if err != nil {
		return fmt.Errorf("step %d: ideal backend: %w", step, err)
	}
	// Reads see pre-step memory, so they are judged before this step's
	// writes update the taint set.
	for pid, op := range ops {
		if op.Kind != pram.Read {
			continue
		}
		r.attempted++
		switch {
		case reported[op.Addr]:
			r.failed++
		case got[pid] != want[pid] && r.tainted[op.Addr]:
			r.failed++
		case got[pid] != want[pid]:
			return fmt.Errorf("step %d pid %d address %d: mesh read %d, ideal read %d, and no failure was reported",
				step, pid, op.Addr, got[pid], want[pid])
		}
	}
	for _, op := range ops {
		if op.Kind != pram.Write {
			continue
		}
		r.attempted++
		if !r.written[op.Addr] {
			r.written[op.Addr], r.nWritten = true, r.nWritten+1
		}
		if reported[op.Addr] {
			r.failed++
			r.tainted[op.Addr] = true
		} else {
			delete(r.tainted, op.Addr)
		}
	}
	return nil
}

// reported returns the variables the last mesh ExecStep reported
// unrecoverable.
func (r *runner) reported() map[int]bool {
	out := map[int]bool{}
	if rep := r.mesh.LastReport(); rep != nil {
		for _, a := range rep.Unrecoverable {
			out[a] = true
		}
	}
	return out
}

// checkOutputs reads a finished program's output words back from both
// backends, untimed and uncharged to the run, and compares them.
func (r *runner) checkOutputs(p pram.Outputs) error {
	r.clock.pause()
	defer r.clock.resume()
	base, n := p.OutputRange()
	got, err := pram.ReadWords(r.mesh, base, n)
	if err != nil {
		return fmt.Errorf("reading outputs: %w", err)
	}
	if r.sink != nil {
		r.sink.take()
	}
	want, err := pram.ReadWords(r.ideal, base, n)
	if err != nil {
		return fmt.Errorf("reading ideal outputs: %w", err)
	}
	reported := r.reported()
	for i := range got {
		a := base + i
		if got[i] != want[i] && !reported[a] && !r.tainted[a] {
			return fmt.Errorf("output word %d (address %d): mesh %d, ideal %d, and no failure was reported",
				i, a, got[i], want[i])
		}
	}
	return nil
}

// build gives the runner a fresh mesh backend and ideal oracle. It is
// untimed; setup_s is measured by timeSetup.
func (r *runner) build() error {
	cfg, err := sim.FromScenario(r.sc, r.extra...)
	if err != nil {
		return fmt.Errorf("configuring: %w", err)
	}
	b, err := pram.NewBackend(pram.BackendMesh, cfg)
	if err != nil {
		return fmt.Errorf("building the mesh backend: %w", err)
	}
	ideal, err := pram.NewBackend(pram.BackendIdeal, cfg)
	if err != nil {
		return fmt.Errorf("building the ideal oracle: %w", err)
	}
	r.mesh, r.ideal = b.(*pram.Mesh), ideal
	r.written, r.nWritten, r.tainted = make([]bool, ideal.Vars()), 0, map[int]bool{}
	return nil
}

// timeSetup returns the wall time of one build of the configuration and
// mesh backend, the path every CLI and the server take, as measured on
// this host and rescaled to the nominal one. One build of a healthy
// machine takes tens of microseconds, so builds are timed in batches
// that each take at least batch, and the host time is the median over
// setupBatches of them, divided by the batch size. Untimed builds for
// four batch lengths first warm the heap and caches and size the
// batches; the first few timed batches of a process still read up to
// twice the rest without them.
//
// Each batch is followed by a warm reference computation, and the
// nominal time is the host time times refNominalMs over the median of
// those. Both medians cover the same second of the host, whose speed
// drifts by half and more between runs minutes apart.
//
// Set-up is sequential, and it is timed on one P. With a second P the
// garbage collector's share of the builds runs on whichever vCPU is free:
// on the shared 2-vCPU host, twelve fresh processes then read churn-27's
// set-up as anything from 0.85 to 2.2 ms, while on one P, where that
// share runs inline, they read 1.37–1.52 ms.
func timeSetup(sc sim.Scenario, extra []sim.Option, batch time.Duration, ref *reference) (host, nominal float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build := func() error {
		cfg, err := sim.FromScenario(sc, extra...)
		if err != nil {
			return err
		}
		_, err = pram.NewBackend(pram.BackendMesh, cfg)
		return err
	}
	k := 0
	for t0 := time.Now(); k == 0 || time.Since(t0) < 4*batch; k++ {
		if err := build(); err != nil {
			return 0, 0, err
		}
	}
	k = max(k/4, 1)
	n := setupBatches
	if batch == 0 {
		n = 3 // a zero-length run times a few single builds
	}
	hosts, refs := make([]float64, n), make([]float64, n)
	for i := range hosts {
		t0 := time.Now()
		for range k {
			if err := build(); err != nil {
				return 0, 0, err
			}
		}
		hosts[i] = time.Since(t0).Seconds() / float64(k)
		refs[i] = ref.warm()
	}
	host = median(hosts)
	return host, host * refNominalMs / median(refs), nil
}

// run builds workload w and runs whole episodes of it for about
// o.seconds (at least one), checks every result and returns the
// metrics.
func run(w workload, o options) (result, error) {
	r := &runner{sc: w.scenario(o.seed)}
	if o.traced {
		r.sink = &collector{}
		r.extra = append(r.extra, sim.TraceSink(r.sink))
	}
	r.ref = newReference()
	runtime.GC() // start the timed builds on a clean heap
	// Set-up batches last a millisecond per second of run, so timing them
	// takes about 4% of the run.
	setupHost, setup, err := timeSetup(r.sc, r.extra, time.Duration(o.seconds)*time.Millisecond, r.ref)
	if err != nil {
		return result{}, fmt.Errorf("timing set-up: %w", err)
	}
	if err := r.build(); err != nil {
		return result{}, err
	}
	// The timed builds leave garbage in an amount that depends on the
	// host's speed; the timed loop starts without it.
	runtime.GC()

	var firstCycles int64
	var firstSteps int
	// Per episode: the interquartile mean of its step times, its timed
	// wall time per step, both in milliseconds and divided by the
	// reference's time in the episode, and that time. The time metrics
	// are medians over episodes.
	var epIQM, epPerStep, epIQMRef, epPerStepRef, epRef []float64
	deadline := time.Duration(o.seconds) * time.Second
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUSeconds(), rusageSeconds()
	begin := time.Now()
	r.clock.start()
	for ep := 0; ; ep++ {
		if ep > 0 {
			r.clock.pause()
			err := r.build()
			r.clock.resume()
			if err != nil {
				return result{}, err
			}
		}
		first, timed := len(r.stepMs), r.clock.elapsed()
		for i := 0; i < w.episode; i++ {
			p, err := w.program(o.seed, ep*w.episode+i, r.mesh.Vars(), r.mesh.Sim.Mesh().N)
			if err != nil {
				return result{}, err
			}
			if _, err := pram.Run(p, r); err != nil {
				return result{}, err
			}
			if out, ok := p.(pram.Outputs); ok {
				if err := r.checkOutputs(out); err != nil {
					return result{}, err
				}
			}
		}
		steps := r.stepMs[first:]
		iqm := interquartileMean(steps)
		wallPerStep := float64((r.clock.elapsed() - timed).Nanoseconds()) / 1e6 / float64(len(steps))
		r.clock.pause()
		ref := r.ref.episode()
		r.clock.resume()
		epRef = append(epRef, ref)
		epIQM, epIQMRef = append(epIQM, iqm), append(epIQMRef, iqm/ref)
		epPerStep, epPerStepRef = append(epPerStep, wallPerStep), append(epPerStepRef, wallPerStep/ref)
		if ep == 0 {
			firstCycles, firstSteps = r.cycles, len(r.stepMs)
		}
		// Start another episode only if it should end by the deadline.
		if el := time.Since(begin); el+el/time.Duration(ep+1) > deadline {
			break
		}
	}
	r.clock.stop()
	gc1, cpu1 := gcCPUSeconds(), rusageSeconds()
	steps := len(r.stepMs)

	// Live heap: the oracle, the reference's table and the bookkeeping go
	// first, the backend stays.
	mb, written := r.mesh, r.nWritten
	r.ideal, r.written, r.tainted, r.ref = nil, nil, nil, nil
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	store := mb.Sim.MemReport().Store
	runtime.KeepAlive(mb)

	res := result{attempted: r.attempted, failed: r.failed, stepMs: r.stepMs, episodes: len(epIQM),
		cyclesPerStep: float64(firstCycles) / float64(firstSteps),
		raw: []metric{
			{"step_ms_iqm", "ms", median(epIQM)},
			{"steps_per_s", "1/s", 1e3 / median(epPerStep)},
			{"ref_ms", "ms", median(epRef)},
			{"setup_host_s", "s", setupHost},
		}}
	perStep := func(v float64) float64 { return v / float64(steps) }
	if !o.traced {
		res.metrics = []metric{
			{"step_ref_iqm", "ref", median(epIQMRef)},
			{"run_ref_per_step", "ref", median(epPerStepRef)},
			{"mesh_cycles_per_step", "cycles", res.cyclesPerStep},
			{"allocs_per_step", "count", perStep(float64(ms1.Mallocs - ms0.Mallocs - r.clock.mallocs))},
			{"live_heap_mb", "MB", float64(ms1.HeapAlloc) / 1e6},
			{"setup_s", "s", setup},
		}
		return res, nil
	}
	res.coverage = r.lay.coverage()
	res.metrics = append(r.lay.metrics(),
		metric{"core.store_bytes_per_var", "bytes", float64(store) / float64(max(written, 1))},
		metric{"runtime.alloc_mb_per_step", "MB", perStep(float64(ms1.TotalAlloc-ms0.TotalAlloc-r.clock.bytes) / 1e6)},
		metric{"runtime.gc_cpu_frac", "ratio", ratio(gc1-gc0, cpu1-cpu0)},
		metric{"runtime.cpu_ms_per_step", "ms", perStep((cpu1 - cpu0 - r.clock.cpu) * 1e3)},
	)
	return res, nil
}

// meter accumulates the wall time, allocations and process CPU time of
// the timed region, which excludes the oracle checks and trace walks
// done between steps.
type meter struct {
	total          time.Duration
	mallocs, bytes uint64  // allocated while paused
	cpu            float64 // process CPU seconds spent while paused
	t0             time.Time
	cpu0           float64
	ms             runtime.MemStats
}

func (m *meter) start() { m.t0 = time.Now() }
func (m *meter) stop()  { m.total += time.Since(m.t0) }

// elapsed is the timed wall time so far; the meter must be running.
func (m *meter) elapsed() time.Duration { return m.total + time.Since(m.t0) }

func (m *meter) pause() {
	m.stop()
	m.cpu0 = rusageSeconds()
	runtime.ReadMemStats(&m.ms)
}

func (m *meter) resume() {
	m0, b0 := m.ms.Mallocs, m.ms.TotalAlloc
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - m0
	m.bytes += m.ms.TotalAlloc - b0
	m.cpu += rusageSeconds() - m.cpu0
	m.start()
}

// gcCPUSeconds returns the runtime's estimate of the CPU time its
// garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// rusageSeconds returns the process's user plus system CPU time.
func rusageSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Linux only fails on a bad argument
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s)
	if k == 0 {
		return 0
	}
	if k%2 == 1 {
		return s[k/2]
	}
	return (s[k/2-1] + s[k/2]) / 2
}

// interquartileMean is the mean of the middle half of xs: the sorted
// values from index n/4 up to n−n/4. Like the median it ignores the
// slowest and fastest quarter, but it moves smoothly when xs mixes step
// kinds of different cost, where the median can sit in the gap between
// them and jump.
func interquartileMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// tail returns the highest of the 99th, 95th, 90th and 75th percentiles
// that leaves at least ten samples above it, or ok=false when there are
// too few samples for any.
func tail(xs []float64) (pct, v float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, p := range []float64{99, 95, 90, 75} {
		i := int(math.Ceil(p/100*float64(len(s)))) - 1
		if i >= 0 && len(s)-1-i >= 10 {
			return p, s[i], true
		}
	}
	return 0, 0, false
}
