package serve

// The HTTP/JSON transport: scenario submission (sync and async),
// result retrieval, health and stats. Endpoints:
//
//	POST /v1/simulate     run a scenario, wait for the body (sync)
//	POST /v1/jobs         enqueue a scenario, return its key as job id (async)
//	GET  /v1/jobs/{key}   poll a job by scenario key
//	GET  /v1/healthz      liveness and drain state
//	GET  /v1/stats        queue, result table and pool counters
//
// A run's answer is a pure function of its scenario, so the scenario
// key is the job id and the server keeps one job table: the in-flight
// map (queued or running) plus the LRU of finished jobs (bodies and
// deterministic errors alike). A submission flows: decode →
// Normalized/Validate (400) → finished entry (served verbatim) →
// in-flight entry (identical concurrent submissions share one
// computation) → bounded queue (429 + Retry-After) → worker pool.
// Overload never degrades results, only availability — a computed
// body is byte-identical no matter how it was scheduled.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"meshpram/internal/sim"
)

// maxBody caps request bodies in bytes.
const maxBody = 1 << 20

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the pool width (default 2): persistent goroutines,
	// each with its own warm scheme cache.
	Workers int
	// QueueDepth bounds the job queue (default 64), the one admission
	// gate: a full queue rejects with 429 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the table of finished jobs (default 1024).
	// CacheBytes optionally bounds their summed body bytes (0 =
	// unbounded).
	CacheEntries int
	CacheBytes   int64
	// RequestTimeout caps how long a sync request waits for its result
	// (default 60s). The computation continues; the result remains
	// retrievable via GET /v1/jobs/{key}.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	return c
}

// Server is the simulation service. Construct with New, mount
// Handler, and Drain on shutdown.
type Server struct {
	cfg  Config
	pool *pool
	mux  *http.ServeMux

	draining atomic.Bool

	mu       sync.Mutex
	inflight map[string]*job // scenario key → queued or running job
	cache    *lruCache       // scenario key → finished job
	admitted int64
	rejected int64
	done     int64
	failed   int64
}

// New builds and starts a Server (its worker pool runs immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		inflight: make(map[string]*job),
		cache:    newCache(cfg.CacheEntries, cfg.CacheBytes),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.jobDone)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{key}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler of the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting work, runs every already-queued job to
// completion, and returns when the pool is idle — the SIGTERM path.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pool.drain()
}

// jobDone is the pool's completion callback: move the job from the
// in-flight map to the result table and count it.
func (s *Server) jobDone(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, j.key)
	s.cache.put(j)
	if j.err != nil {
		s.failed++
	} else {
		s.done++
	}
}

// submitError is an admission/validation refusal with an HTTP shape.
type submitError struct {
	status     int
	msg        string
	retryAfter bool // send Retry-After: 1
}

func (e *submitError) Error() string { return e.msg }

var (
	errDraining  = &submitError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	errQueueFull = &submitError{status: http.StatusTooManyRequests, msg: "job queue is full", retryAfter: true}
)

// submit looks the scenario up in the job table and enqueues it only
// when the key is neither finished nor in flight. It returns the job
// (hit reports a finished entry served from the table) or a refusal.
func (s *Server) submit(sc sim.Scenario) (*job, bool, *submitError) {
	if s.draining.Load() {
		return nil, false, errDraining
	}
	key := sc.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.cache.get(key); ok {
		return j, true, nil
	}
	if j, ok := s.inflight[key]; ok {
		return j, false, nil // join the running computation
	}
	j := newJob(sc)
	if serr := s.pool.trySubmit(j); serr != nil {
		if serr == errQueueFull {
			s.rejected++
		}
		return nil, false, serr
	}
	s.inflight[key] = j
	s.admitted++
	return j, false, nil
}

// --- HTTP handlers ------------------------------------------------------

func (s *Server) decodeScenario(w http.ResponseWriter, r *http.Request) (sim.Scenario, bool) {
	defer r.Body.Close() // close error is unactionable here; net/http drains the body
	var sc sim.Scenario
	if err := sim.DecodeScenario(http.MaxBytesReader(w, r.Body, maxBody), &sc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode scenario: %v", err))
		return sim.Scenario{}, false
	}
	sc = sc.Normalized()
	if err := sc.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return sim.Scenario{}, false
	}
	return sc, true
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.decodeScenario(w, r)
	if !ok {
		return
	}
	j, hit, serr := s.submit(sc)
	if serr != nil {
		writeSubmitError(w, serr)
		return
	}
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	//detlint:ignore chanorder transport-level wait: the job result is deterministic either way; the race only picks sync reply vs 504-with-poll-URL
	select {
	case <-j.done:
	case <-timer.C:
		w.Header().Set("X-Job-Id", j.key)
		writeError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("computation still running; poll /v1/jobs/%s", j.key))
		return
	case <-r.Context().Done():
		return
	}
	w.Header().Set("X-Scenario-Key", j.key)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	_, body, err := j.state()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) // client write failure is the client's problem; nothing to roll back
}

// jobView is the async job representation; the id is the scenario key.
type jobView struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func viewOf(j *job) jobView {
	st, body, err := j.state()
	v := jobView{ID: j.key, Key: j.key, Status: string(st)}
	if st == statusDone {
		v.Result = json.RawMessage(body)
	}
	if err != nil {
		v.Error = err.Error()
	}
	return v
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.decodeScenario(w, r)
	if !ok {
		return
	}
	j, hit, serr := s.submit(sc)
	if serr != nil {
		writeSubmitError(w, serr)
		return
	}
	v := viewOf(j)
	v.Result, v.Cached = nil, hit // the body is fetched with GET
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.inflight[key]
	if !ok {
		j, ok = s.cache.peek(key)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %q is unknown or evicted; re-POST the scenario", key))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}{status, s.cfg.Workers})
}

// Stats is the /v1/stats document.
type Stats struct {
	Workers    int  `json:"workers"`
	Busy       int  `json:"busy"`
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Draining   bool `json:"draining,omitempty"`

	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`

	Cache cacheStats `json:"cache"`
}

// StatsSnapshot assembles the current service counters (also used by
// tests, bypassing HTTP).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Workers:    s.cfg.Workers,
		Busy:       s.pool.busyCount(),
		QueueDepth: s.pool.depth(),
		QueueCap:   s.pool.capacity(),
		Draining:   s.draining.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Admitted, st.Rejected = s.admitted, s.rejected
	st.JobsDone, st.JobsFailed = s.done, s.failed
	st.Cache = s.cache.snapshot()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// --- response helpers ---------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // client write failure is the client's problem; nothing to roll back
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

func writeSubmitError(w http.ResponseWriter, e *submitError) {
	if e.retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, e.status, e.msg)
}
