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

// TestServerColdWarmCacheIdentical is the acceptance triple: a direct
// Runner body, the server's cold miss and its cache hit are
// byte-identical. (Warm-pool reruns are pinned by
// TestRunnerWarmColdIdentical.)
func TestServerColdWarmCacheIdentical(t *testing.T) {
	sc := testScenario()
	direct, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postScenario(t, ts.URL+"/v1/simulate", sc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	if got := resp.Header.Get("X-Scenario-Key"); got != sc.Key() {
		t.Errorf("X-Scenario-Key = %q, want %q", got, sc.Key())
	}
	miss := readBody(t, resp)

	resp = postScenario(t, ts.URL+"/v1/simulate", sc)
	hit := readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from cold miss:\n%s\nvs\n%s", miss, hit)
	}
	if !bytes.Equal(direct, miss) {
		t.Fatalf("served body differs from the direct Runner body:\n%s\nvs\n%s", direct, miss)
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
		{"trailing data", `{"side":27,"q":3,"d":5,"k":2,"program":"prefixsum","size":16,"seed":1} garbage`, "trailing data"},
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

// stalledServer returns a server whose pool has a queue of depth
// slots and no running workers, so queued jobs stay queued.
func stalledServer(t *testing.T, depth int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 1})
	srv.pool.drain()
	srv.pool = newPool(0, depth, srv.jobDone)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestQueueFull checks a full queue rejects a new scenario with 429 and
// Retry-After, while an identical submission still joins its queued
// job.
func TestQueueFull(t *testing.T) {
	srv, ts := stalledServer(t, 1)

	sc := testScenario()
	resp := postScenario(t, ts.URL+"/v1/jobs", sc)
	if body := readBody(t, resp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202: %s", resp.StatusCode, body)
	}

	other := testScenario()
	other.Seed = 2
	resp = postScenario(t, ts.URL+"/v1/jobs", other)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue") {
		t.Errorf("429 body %s does not mention the queue", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}

	resp = postScenario(t, ts.URL+"/v1/jobs", sc)
	if body := readBody(t, resp); resp.StatusCode != http.StatusAccepted {
		t.Errorf("identical submit on a full queue: status %d, want 202 (join): %s", resp.StatusCode, body)
	}
	if st := srv.StatsSnapshot(); st.Admitted != 1 || st.Rejected != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 1/1", st.Admitted, st.Rejected)
	}
}

// TestSubmitRacingDrain checks a submission that passed the draining
// check but met an already-closed pool is told the server is draining
// (503, no Retry-After), not that the queue is full.
func TestSubmitRacingDrain(t *testing.T) {
	srv, ts := stalledServer(t, 4)
	srv.pool.drain() // closed pool, draining flag not yet set

	resp := postScenario(t, ts.URL+"/v1/jobs", testScenario())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("503 body %s does not say the server is draining", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Errorf("draining refusal carries Retry-After %q", got)
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

// TestStats checks /v1/stats accounting: runs, cache hits, hit rate.
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
}

// TestLRUCache unit-tests the result table bounds and counters.
func TestLRUCache(t *testing.T) {
	finished := func(key, body string) *job {
		return &job{key: key, status: statusDone, body: []byte(body)}
	}
	c := newCache(2, 0)
	c.put(finished("a", "aaa"))
	c.put(finished("b", "bbb"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put(finished("c", "ccc")) // evicts b (a was just used)
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
	if _, ok := c.peek("c"); !ok || c.snapshot() != st {
		t.Error("peek missed c or moved the counters")
	}

	// Byte bound: oversized bodies are skipped, small ones evict to fit.
	cb := newCache(10, 4)
	cb.put(finished("big", "12345"))
	if _, ok := cb.get("big"); ok {
		t.Error("oversized body cached")
	}
	cb.put(finished("x", "12"))
	cb.put(finished("y", "34"))
	cb.put(finished("z", "56")) // must evict x
	if _, ok := cb.get("x"); ok {
		t.Error("byte bound not enforced")
	}
	if st := cb.snapshot(); st.Bytes > 4 {
		t.Errorf("cached bytes = %d, want ≤ 4", st.Bytes)
	}
}

// getJob polls GET /v1/jobs/{key} and decodes the job view.
func getJob(t *testing.T, url, key string) (int, jobView) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	body := readBody(t, resp)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// TestJobIDIsScenarioKey pins the keyed job table: the job id is the
// scenario key, identical submissions share one job and one run, the
// finished result is retrievable by key, and a never-submitted key is
// unknown.
func TestJobIDIsScenarioKey(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario()
	key := sc.Key()
	for i := 0; i < 2; i++ {
		resp := postScenario(t, ts.URL+"/v1/jobs", sc)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.ID != key || v.Key != key {
			t.Fatalf("submit %d: id %q key %q, want both %q", i, v.ID, v.Key, key)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	var v jobView
	for {
		code, got := getJob(t, ts.URL, key)
		if code != http.StatusOK {
			t.Fatalf("GET by key: status %d", code)
		}
		if v = got; v.Status == "done" || v.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v.Status != "done" || v.ID != key {
		t.Fatalf("finished view %+v, want status done and id %q", v, key)
	}
	want, err := NewRunner().RunBody(sc)
	if err != nil {
		t.Fatal(err)
	}
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, v.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatal("result by key differs from a direct run")
	}

	srv.Drain() // settle the worker before reading its counters
	if st := srv.StatsSnapshot(); st.JobsDone != 1 {
		t.Errorf("jobs done = %d, want 1 (identical submissions share one run)", st.JobsDone)
	}
	other := testScenario()
	other.Seed = 7
	if code, _ := getJob(t, ts.URL, other.Key()); code != http.StatusNotFound {
		t.Errorf("never-submitted key: status %d, want 404", code)
	}
}

// TestFailureCached checks a deterministic run failure is kept in the
// result table like a body: the second identical submission answers
// 422 from the table without rerunning, and GET reports it as failed.
func TestFailureCached(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := testScenario()
	sc.Q = 6 // passes Validate, fails in hmos.New: not a prime power
	for _, want := range []string{"miss", "hit"} {
		resp := postScenario(t, ts.URL+"/v1/simulate", sc)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", want, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("X-Cache = %q, want %q", got, want)
		}
		if !strings.Contains(string(body), "prime power") {
			t.Errorf("%s: 422 body %s does not carry the run error", want, body)
		}
	}
	if st := srv.StatsSnapshot(); st.JobsFailed != 1 || st.JobsDone != 0 {
		t.Errorf("jobs failed/done = %d/%d, want 1/0", st.JobsFailed, st.JobsDone)
	}
	code, v := getJob(t, ts.URL, sc.Key())
	if code != http.StatusOK || v.Status != "failed" || !strings.Contains(v.Error, "prime power") {
		t.Errorf("GET failed job: status %d view %+v, want failed with the run error", code, v)
	}
}
