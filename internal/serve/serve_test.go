package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"meshpram/internal/sim"
)

// testScenario is a small, fast scenario exercising both backends.
func testScenario() sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Size = 16
	return sc
}

func postScenario(t *testing.T, url string, sc sim.Scenario) *http.Response {
	t.Helper()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRunnerWarmColdIdentical pins the warm-pool determinism claim: a
// cold runner and a runner whose scheme cache is already warm (and was
// used for other scenarios in between) produce byte-identical bodies.
func TestRunnerWarmColdIdentical(t *testing.T) {
	sc := testScenario()
	sc.Trace = true

	cold, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewRunner()
	other := testScenario()
	other.Program = "matvec"
	other.Size = 4
	if _, err := warm.RunBody(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		body, err := warm.RunBody(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, body) {
			t.Fatalf("warm rerun %d differs from cold run:\n%s\nvs\n%s", i, cold, body)
		}
	}
}

// TestRunnerMeshMatchesIdeal checks the mesh simulation delivers the
// same output words as the ideal PRAM for every program.
func TestRunnerMeshMatchesIdeal(t *testing.T) {
	r := NewRunner()
	for _, prog := range sim.Programs {
		sc := testScenario()
		sc.Program = prog
		if prog == "matvec" {
			sc.Size = 4
		}
		res, err := r.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		if res.Ideal == nil || res.Mesh == nil {
			t.Fatalf("%s: missing backend result", prog)
		}
		if len(res.Mesh.Words) == 0 {
			t.Errorf("%s: no output words", prog)
		}
		if fmt.Sprint(res.Ideal.Words) != fmt.Sprint(res.Mesh.Words) {
			t.Errorf("%s: mesh words %v != ideal words %v", prog, res.Mesh.Words, res.Ideal.Words)
		}
		if res.Mesh.Verdict != VerdictOK {
			t.Errorf("%s: verdict %s on a fault-free run", prog, res.Mesh.Verdict)
		}
		if res.Mesh.MeshSteps <= 0 {
			t.Errorf("%s: no charged mesh steps", prog)
		}
	}
}

// TestRunnerFaultReports checks fault, repair and retry reporting
// surfaces in the Result.
func TestRunnerFaultReports(t *testing.T) {
	sc := testScenario()
	sc.FaultSchedule = "@3 module:40"
	sc.Repair = "eager"
	sc.Retry = 2
	res, err := NewRunner().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.Repair == nil {
		t.Fatal("no repair report despite repair=eager and a module death")
	}
	if res.Mesh.Repair.ModuleDeaths != 1 {
		t.Errorf("module deaths = %d, want 1", res.Mesh.Repair.ModuleDeaths)
	}
	if res.Mesh.Degradation == nil {
		t.Error("no degradation report despite a fault schedule")
	}
	if res.Mesh.Verdict == VerdictUnrecoverable {
		t.Errorf("verdict %s; eager repair should keep majorities alive", res.Mesh.Verdict)
	}
}

// TestServerColdWarmCacheIdentical is the ISSUE's acceptance triple: a
// cold run, a warm-pool rerun (cache disabled), and a cache hit all
// return byte-identical bodies.
func TestServerColdWarmCacheIdentical(t *testing.T) {
	sc := testScenario()

	// Cache disabled: every POST recomputes, second run is warm-pool.
	nocache := New(Config{Workers: 1, CacheEntries: -1})
	defer nocache.Drain()
	ts := httptest.NewServer(nocache.Handler())
	defer ts.Close()

	resp := postScenario(t, ts.URL+"/v1/simulate", sc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold run X-Cache = %q, want miss", got)
	}
	if got := resp.Header.Get("X-Scenario-Key"); got != sc.Key() {
		t.Errorf("X-Scenario-Key = %q, want %q", got, sc.Key())
	}
	cold := readBody(t, resp)

	resp = postScenario(t, ts.URL+"/v1/simulate", sc)
	warm := readBody(t, resp)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Error("cache-disabled server reported a cache hit")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm-pool rerun differs from cold run:\n%s\nvs\n%s", cold, warm)
	}

	// Caching server: miss then hit, both identical to the no-cache body.
	cached := New(Config{Workers: 1})
	defer cached.Drain()
	ts2 := httptest.NewServer(cached.Handler())
	defer ts2.Close()

	resp = postScenario(t, ts2.URL+"/v1/simulate", sc)
	miss := readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	resp = postScenario(t, ts2.URL+"/v1/simulate", sc)
	hit := readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from cold miss:\n%s\nvs\n%s", miss, hit)
	}
	if !bytes.Equal(cold, hit) {
		t.Fatalf("cached body differs from cache-disabled body")
	}
}

// TestServerConcurrentIdentical runs the same scenario concurrently
// (under -race in CI) and requires every response body byte-identical.
func TestServerConcurrentIdentical(t *testing.T) {
	srv := New(Config{Workers: 4})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario()
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(sc)
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestAsyncJobLifecycle drives POST /v1/jobs + GET /v1/jobs/{id} and
// checks the async result equals the sync body.
func TestAsyncJobLifecycle(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario()
	sc.Program = "reduce"
	resp := postScenario(t, ts.URL+"/v1/jobs", sc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var v struct {
		ID     string          `json:"id"`
		Key    string          `json:"key"`
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(readBody(t, resp), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Key != sc.Key() {
		t.Fatalf("bad submit view: %+v", v)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var poll struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal(readBody(t, r), &poll); err != nil {
			t.Fatal(err)
		}
		if poll.Status == "done" {
			want, err := NewRunner().RunBody(sc)
			if err != nil {
				t.Fatal(err)
			}
			// The job view re-indents the embedded result; compare the
			// compacted JSON (strict byte identity is pinned on the sync
			// endpoint, which serves the cached bytes verbatim).
			var gotC, wantC bytes.Buffer
			if err := json.Compact(&gotC, poll.Result); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&wantC, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
				t.Fatalf("async result differs from direct run")
			}
			break
		}
		if poll.Status == "failed" {
			t.Fatalf("job failed: %s", poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", poll.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unknown job id → 404.
	r, err := http.Get(ts.URL + "/v1/jobs/j-does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	readBody(t, r)
}

// TestRejectionsSurfaceFieldNames checks 400 bodies name the offending
// scenario field.
func TestRejectionsSurfaceFieldNames(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"bad q", `{"side":9,"q":2,"d":3,"k":2,"program":"prefixsum","size":16,"seed":1}`, "q"},
		{"malformed fault schedule", `{"side":9,"q":3,"d":3,"k":2,"program":"prefixsum","size":16,"seed":1,"fault_schedule":"@x module:40"}`, "fault_schedule"},
		{"unknown field", `{"side":9,"q":3,"d":3,"k":2,"program":"prefixsum","size":16,"seed":1,"warp_drive":true}`, "warp_drive"},
		{"unknown program", `{"side":9,"q":3,"d":3,"k":2,"program":"quicksort","size":16,"seed":1}`, "program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.field) {
				t.Errorf("error body %s does not name field %q", body, tc.field)
			}
		})
	}
}

// TestOversizedScenarioRejected checks that field values which would
// allocate without bound are refused with a 400 naming the field, and
// that the server keeps serving afterwards.
func TestOversizedScenarioRejected(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := func(edit func(*sim.Scenario)) sim.Scenario {
		sc := testScenario()
		sc.Backend = sim.BackendIdeal
		edit(&sc)
		return sc
	}
	cases := []struct {
		name  string
		sc    sim.Scenario
		field string
	}{
		{"ideal memory", huge(func(sc *sim.Scenario) { sc.IdealMemory = 1 << 62 }), "ideal_memory"},
		{"ideal size", huge(func(sc *sim.Scenario) { sc.Size = 1 << 62 }), "size"},
		{"matvec size", huge(func(sc *sim.Scenario) { sc.Program, sc.Size = "matvec", 1<<31 }), "size"},
	}
	for _, tc := range cases {
		resp := postScenario(t, ts.URL+"/v1/simulate", tc.sc)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.field) {
			t.Errorf("%s: error body %s does not name field %q", tc.name, body, tc.field)
		}
	}
	resp := postScenario(t, ts.URL+"/v1/simulate", testScenario())
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", resp.StatusCode, body)
	}
}

// TestAdmissionControl checks the token bucket rejects with 429 and a
// Retry-After header once the burst is spent.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{Workers: 1, Rate: 0.0001, Burst: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postScenario(t, ts.URL+"/v1/jobs", testScenario())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)

	// A different scenario (no cache hit, no coalescing) must be refused.
	other := testScenario()
	other.Seed = 99
	resp = postScenario(t, ts.URL+"/v1/jobs", other)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// An identical, already-computed scenario still serves from the
	// cache without a token.
	srv.pool.drain() // let the first job finish and fill the cache
	resp = postScenario(t, ts.URL+"/v1/simulate", testScenario())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cache hit refused by admission: status %d: %s", resp.StatusCode, readBody(t, resp))
	} else {
		if resp.Header.Get("X-Cache") != "hit" {
			t.Error("expected a cache hit")
		}
		readBody(t, resp)
	}
}

// TestQueueFull checks a saturated queue rejects with 429.
func TestQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	// Stop the workers so the queue cannot drain, without marking the
	// server as draining (trySubmit then fails on the closed pool).
	srv.pool.drain()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postScenario(t, ts.URL+"/v1/jobs", testScenario())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue") {
		t.Errorf("429 body %s does not mention the queue", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestDrainRefuses checks a draining server refuses new work with 503.
func TestDrainRefuses(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.Drain()
	resp := postScenario(t, ts.URL+"/v1/simulate", testScenario())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}

	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readBody(t, r)
	if !strings.Contains(string(hb), "draining") {
		t.Errorf("healthz %s does not report draining", hb)
	}
}

// TestStats checks /v1/stats accounting: runs, cache hits, hit rate,
// per-scenario mesh-step totals.
func TestStats(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario()
	for i := 0; i < 3; i++ {
		resp := postScenario(t, ts.URL+"/v1/simulate", sc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		readBody(t, resp)
	}

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(readBody(t, r), &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 1 {
		t.Errorf("jobs done = %d, want 1 (two of three were cache hits)", st.JobsDone)
	}
	if st.Cache.Hits != 2 {
		t.Errorf("cache hits = %d, want 2", st.Cache.Hits)
	}
	if st.Cache.HitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", st.Cache.HitRate)
	}
	if len(st.Scenarios) != 1 {
		t.Fatalf("scenario rows = %d, want 1", len(st.Scenarios))
	}
	row := st.Scenarios[0]
	if row.Key != sc.Key() {
		t.Errorf("scenario key %s, want %s", row.Key, sc.Key())
	}
	if row.Runs != 1 || row.CacheHits != 2 {
		t.Errorf("scenario totals runs=%d hits=%d, want 1/2", row.Runs, row.CacheHits)
	}
	if row.MeshSteps <= 0 {
		t.Errorf("scenario mesh steps = %d, want > 0", row.MeshSteps)
	}
}

// TestJobRetentionEviction pins the async job map bound: completed
// records beyond MaxJobs are evicted oldest-first, evicted ids answer
// 404 with a retention reason (distinct from never-known ids), and
// live jobs are never dropped by retention pressure.
func TestJobRetentionEviction(t *testing.T) {
	srv := New(Config{Workers: 1, MaxJobs: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fill the result cache so every async submission below completes
	// instantly (completedJob) — eviction order then depends only on
	// submission order, never on worker timing.
	sc := testScenario()
	resp := postScenario(t, ts.URL+"/v1/simulate", sc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up run: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)

	const n = 5
	ids := make([]string, n)
	for i := range ids {
		resp := postScenario(t, ts.URL+"/v1/jobs", sc)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(readBody(t, resp), &v); err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}

	srv.mu.Lock()
	retained := len(srv.jobs)
	srv.mu.Unlock()
	if retained > 2 {
		t.Errorf("job map holds %d records, want ≤ MaxJobs=2", retained)
	}

	// Newest two ids survive; everything older is evicted.
	for i, id := range ids {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, r)
		if i >= n-2 {
			if r.StatusCode != http.StatusOK {
				t.Errorf("retained job %s: status %d, want 200: %s", id, r.StatusCode, body)
			}
			continue
		}
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404: %s", id, r.StatusCode, body)
		}
		if !strings.Contains(string(body), "evicted") || !strings.Contains(string(body), "retention") {
			t.Errorf("evicted job %s: 404 body %s does not explain the retention eviction", id, body)
		}
	}

	// A never-known id still gets the plain unknown-job 404.
	r, err := http.Get(ts.URL + "/v1/jobs/j-never-submitted")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	if !strings.Contains(string(body), "unknown job") || strings.Contains(string(body), "evicted") {
		t.Errorf("unknown job body %s should be the plain unknown-job reason", body)
	}
}

// TestJobRetentionSkipsLiveJobs checks retention pressure walks past
// queued/running records instead of dropping them or stalling: live
// jobs survive, completed ones behind them are still evicted.
func TestJobRetentionSkipsLiveJobs(t *testing.T) {
	srv := New(Config{Workers: 1, MaxJobs: 1})
	// No HTTP, no workers: drive rememberJob directly under the lock.
	live := newJob("j-live", testScenario())

	other := testScenario()
	other.Seed = 2
	doneA := completedJob("j-done-a", other, []byte("{}"))
	doneB := completedJob("j-done-b", other, []byte("{}"))

	srv.mu.Lock()
	srv.rememberJob(doneA) // oldest
	srv.rememberJob(live)
	srv.rememberJob(doneB) // over bound: must evict doneA, then live blocks... skip to keep doneB
	if _, ok := srv.jobs["j-done-a"]; ok {
		t.Error("oldest completed job not evicted")
	}
	if !srv.evicted["j-done-a"] {
		t.Error("evicted id not remembered")
	}
	if _, ok := srv.jobs["j-live"]; !ok {
		t.Error("live job dropped by retention")
	}
	srv.mu.Unlock()

	// The evicted-id memory is itself bounded (count-based, no clock).
	srv.mu.Lock()
	for i := 0; i < 3*evictedMemory; i++ {
		srv.rememberEvicted(fmt.Sprintf("j-x-%d", i))
	}
	if got, want := len(srv.evictFIFO), evictedMemory*srv.cfg.MaxJobs; got > want {
		t.Errorf("evicted-id memory holds %d ids, want ≤ %d", got, want)
	}
	if len(srv.evicted) != len(srv.evictFIFO) {
		t.Errorf("evicted map (%d) and FIFO (%d) diverged", len(srv.evicted), len(srv.evictFIFO))
	}
	srv.mu.Unlock()
}

// TestLRUCache unit-tests the result cache bounds and counters.
func TestLRUCache(t *testing.T) {
	c := newCache(2, 0)
	c.put("a", []byte("aaa"))
	c.put("b", []byte("bbb"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []byte("ccc")) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	st := c.snapshot()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}

	// Byte bound: oversized bodies are skipped, small ones evict to fit.
	cb := newCache(10, 4)
	cb.put("big", []byte("12345"))
	if _, ok := cb.get("big"); ok {
		t.Error("oversized body cached")
	}
	cb.put("x", []byte("12"))
	cb.put("y", []byte("34"))
	cb.put("z", []byte("56")) // must evict x
	if _, ok := cb.get("x"); ok {
		t.Error("byte bound not enforced")
	}
	if st := cb.snapshot(); st.Bytes > 4 {
		t.Errorf("cached bytes = %d, want ≤ 4", st.Bytes)
	}

	// Disabled cache.
	var nc *lruCache = newCache(0, 0)
	nc.put("k", []byte("v"))
	if _, ok := nc.get("k"); ok {
		t.Error("disabled cache stored a body")
	}
}
