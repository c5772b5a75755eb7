package serve

// The warm engine pool: N persistent worker goroutines, each owning
// one Runner (and therefore its own warm HMOS scheme cache — no
// cross-worker sharing, no locks on the execution path). Jobs flow
// through one bounded channel; its capacity is the server's one
// admission gate.

import (
	"sync"
	"sync/atomic"

	"meshpram/internal/sim"
)

// jobStatus is the lifecycle of one submission.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one computation of a scenario, identified by the scenario's
// key. While queued or running it lives in the server's in-flight map;
// once finished it moves to the result table, where its body or its
// error answers every later submission of the same key.
type job struct {
	key      string
	scenario sim.Scenario

	done chan struct{} // closed exactly once, after body/err are set

	mu     sync.Mutex
	status jobStatus
	body   []byte
	err    error
}

func newJob(sc sim.Scenario) *job {
	return &job{
		key:      sc.Key(),
		scenario: sc,
		done:     make(chan struct{}),
		status:   statusQueued,
	}
}

func (j *job) markRunning() {
	j.mu.Lock()
	j.status = statusRunning
	j.mu.Unlock()
}

// finish records the job's outcome; the worker closes j.done only
// after the completion callback has moved it to the result table.
func (j *job) finish(body []byte, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = statusFailed
		j.err = err
	} else {
		j.status = statusDone
		j.body = body
	}
	j.mu.Unlock()
}

// state returns a consistent (status, body, err) snapshot.
func (j *job) state() (jobStatus, []byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.body, j.err
}

// pool runs jobs on persistent workers.
type pool struct {
	queue   chan *job
	workers int
	busy    atomic.Int64
	onDone  func(*job) // invoked after finish, before done closes
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// newPool starts `workers` goroutines behind a queue of depth slots.
// workers may be 0 (tests exercising queue backpressure only).
func newPool(workers, depth int, onDone func(*job)) *pool {
	if depth < 1 {
		depth = 1
	}
	p := &pool{
		queue:   make(chan *job, depth),
		workers: workers,
		onDone:  onDone,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

func (p *pool) work() {
	defer p.wg.Done()
	runner := NewRunner() // warm scheme cache, private to this worker
	//detlint:ignore chanorder job intake only: each job is self-contained, keyed by its scenario, and publishes through its own done channel
	for j := range p.queue {
		p.busy.Add(1)
		j.markRunning()
		j.finish(runner.RunBody(j.scenario))
		p.onDone(j)
		// Publish last: a client that sees the job done must also see it
		// in the result table, or an identical follow-up request could miss.
		close(j.done)
		p.busy.Add(-1)
	}
}

// trySubmit enqueues without blocking. It refuses with errDraining
// once the pool is closed and with errQueueFull when every slot is
// taken.
func (p *pool) trySubmit(j *job) *submitError {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errDraining
	}
	select {
	case p.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// drain stops accepting jobs, lets the workers finish everything
// already queued, and returns when the pool is idle.
func (p *pool) drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *pool) depth() int     { return len(p.queue) }
func (p *pool) capacity() int  { return cap(p.queue) }
func (p *pool) busyCount() int { return int(p.busy.Load()) }
