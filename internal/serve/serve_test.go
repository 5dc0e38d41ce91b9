package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mix/internal/corpus"
	"mix/internal/obs"
)

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decode(t *testing.T, b []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return r
}

// ladderRequest builds the core-language ladder-n request used across
// the tests (merge off, so the 2^n paths are really explored).
func ladderRequest(n int) Request {
	src, envPairs := corpus.Ladder(n)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	var req Request
	req.Source = src
	req.Symbolic = true
	req.Env = env
	req.Workers = 1
	req.Merge = "off"
	return req
}

// memoRequest is a core request whose report-feasibility checks carry
// two-variable inequalities, so it actually exercises the shared
// solver memo (the ladder's boolean guards never reach it).
func memoRequest() Request {
	var req Request
	req.Source = `{s if x < y then (if y < x then {t 1 + true t} else 1)
		else (if y < x then 2 else (if x < y then {t 1 + true t} else 3)) s}`
	req.Symbolic = true
	req.Env = map[string]string{"x": "int", "y": "int"}
	req.Workers = 1
	req.Merge = "off"
	return req
}

func vsftpdRequest(nFuncs int) Request {
	var req Request
	req.Source = corpus.SyntheticVsftpd(nFuncs, 2)
	req.Workers = 1
	req.Merge = "joins"
	req.Entry = "main"
	return req
}

// verdict reduces a response to its verdict-bearing fields — the part
// that must be byte-identical warm vs cold. Cache/timing statistics
// legitimately differ.
func verdict(r Response) string {
	if r.Check != nil {
		return fmt.Sprintf("core type=%q err=%q reports=%q paths=%d merges=%d degraded=%v fault=%q",
			r.Check.Type, r.Check.Error, r.Check.Reports, r.Check.Paths,
			r.Check.Merges, r.Check.Degraded, r.Check.Fault)
	}
	if r.Analyze != nil {
		return fmt.Sprintf("microc warnings=%q merges=%d blocks=%d degraded=%v fault=%q",
			r.Analyze.Warnings, r.Analyze.Merges, r.Analyze.BlocksAnalyzed,
			r.Analyze.Degraded, r.Analyze.Fault)
	}
	return "empty"
}

// TestCheckAndAnalyzeBasic pins the happy paths of both endpoints.
func TestCheckAndAnalyzeBasic(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, body := post(t, ts.URL+"/check", ladderRequest(4))
	if resp.StatusCode != 200 {
		t.Fatalf("/check = %d: %s", resp.StatusCode, body)
	}
	r := decode(t, body)
	if r.Kind != "core" || r.Check == nil || r.Check.Type != "int" || r.Check.Paths != 16 {
		t.Fatalf("check response: %s", body)
	}

	resp, body = post(t, ts.URL+"/analyze", vsftpdRequest(4))
	if resp.StatusCode != 200 {
		t.Fatalf("/analyze = %d: %s", resp.StatusCode, body)
	}
	r = decode(t, body)
	if r.Kind != "microc" || r.Analyze == nil || r.Analyze.BlocksAnalyzed == 0 {
		t.Fatalf("analyze response: %s", body)
	}
}

// TestWarmColdDifferential is the acceptance differential: a mixed
// corpus served to concurrent clients against a warm server yields
// verdicts byte-identical to cold single-request servers. Run under
// -race this also hammers the shared caches.
func TestWarmColdDifferential(t *testing.T) {
	reqs := map[string]struct {
		path string
		req  Request
	}{
		"ladder8": {"/check", ladderRequest(8)},
		"memo":    {"/check", memoRequest()},
		"vsftpd6": {"/analyze", vsftpdRequest(6)},
		"mini": {"/analyze", func() Request {
			var r Request
			r.Source = corpus.VsftpdMini.Source
			r.Entry = corpus.VsftpdMini.Entry
			r.Workers = 1
			r.Merge = "joins"
			return r
		}()},
	}

	// Cold references: each request on its own fresh server.
	cold := map[string]string{}
	for name, rc := range reqs {
		_, ts := newTestServer(t, Options{})
		resp, body := post(t, ts.URL+rc.path, rc.req)
		if resp.StatusCode != 200 {
			t.Fatalf("cold %s = %d: %s", name, resp.StatusCode, body)
		}
		cold[name] = verdict(decode(t, body))
		ts.Close()
	}

	// Warm server: every client mixes all corpus entries. The in-flight
	// cap is set above the client count (the default 4×GOMAXPROCS can
	// be below it on small machines, and this test is about cache
	// correctness, not admission).
	srv, ts := newTestServer(t, Options{MaxConcurrent: 16})
	names := make([]string, 0, len(reqs))
	for name := range reqs {
		names = append(names, name)
	}
	const clients, iters = 6, 8
	var wg sync.WaitGroup
	errs := make(chan string, clients*iters)
	var cachedSeen sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(c+i)%len(names)]
				rc := reqs[name]
				resp, body := post(t, ts.URL+rc.path, rc.req)
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("warm %s = %d: %s", name, resp.StatusCode, body)
					return
				}
				r := decode(t, body)
				if got := verdict(r); got != cold[name] {
					errs <- fmt.Sprintf("%s diverged:\nwarm %s\ncold %s", name, got, cold[name])
					return
				}
				if r.Cached {
					cachedSeen.Store(name, true)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	anyCached := false
	cachedSeen.Range(func(_, _ any) bool { anyCached = true; return false })
	if !anyCached {
		t.Fatal("no warm request was answered from the verdict cache")
	}
	if cs := srv.Cache().Stats(); cs.MemoHits == 0 {
		t.Fatalf("solver cache stats = %+v, want cross-request memo hits", cs)
	}
}

// TestDeadlineExpiryDegraded200 pins the deadline contract: expiry is
// a degraded verdict with a transient-fault retry hint, transported as
// a 200 — never an error or a dropped connection — and it is not
// cached, so a retry really re-runs.
func TestDeadlineExpiryDegraded200(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ladderRequest(12) // ~100ms of exploration
	req.Deadline = 1_000_000 // 1ms: expires mid-run

	resp, body := post(t, ts.URL+"/check", req)
	if resp.StatusCode != 200 {
		t.Fatalf("deadline expiry = %d, want 200: %s", resp.StatusCode, body)
	}
	r := decode(t, body)
	if r.Check == nil || !r.Check.Degraded {
		t.Fatalf("want degraded verdict: %s", body)
	}
	if r.Check.Fault != "timeout" && r.Check.Fault != "canceled" {
		t.Fatalf("fault = %q, want a deadline class", r.Check.Fault)
	}
	if !r.Retryable {
		t.Fatalf("deadline expiry should be retryable: %s", body)
	}

	// The degraded verdict must not have been cached: the same request
	// with a workable deadline completes.
	req.Deadline = 0
	resp, body = post(t, ts.URL+"/check", req)
	r = decode(t, body)
	if resp.StatusCode != 200 || r.Check == nil || r.Check.Degraded || r.Cached || r.Check.Type != "int" {
		t.Fatalf("retry after expiry: %d %s", resp.StatusCode, body)
	}
}

// TestRateLimit429 pins token-bucket admission: an over-budget tenant
// gets 429 with Retry-After while another tenant is still admitted.
func TestRateLimit429(t *testing.T) {
	now := time.Unix(1000, 0)
	_, ts := newTestServer(t, Options{
		RatePerSec: 1, Burst: 2,
		Now: func() time.Time { return now }, // frozen: no refill
	})
	req := ladderRequest(2)
	req.Tenant = "greedy"

	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL+"/check", req); resp.StatusCode != 200 {
			t.Fatalf("burst request %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts.URL+"/check", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfterSec < 1 {
		t.Fatalf("429 body = %s", body)
	}

	// Fairness: a different tenant has its own bucket.
	other := req
	other.Tenant = "patient"
	if resp, body := post(t, ts.URL+"/check", other); resp.StatusCode != 200 {
		t.Fatalf("other tenant = %d, want 200 (per-tenant fairness): %s", resp.StatusCode, body)
	}
}

// TestDrainRequestBodyMatchesCorpus pins the checked-in body that CI's
// drain smoke posts to mixd: a MicroC request over
// corpus.SyntheticVsftpd(120, 3), long enough (about a second) to be
// in flight when SIGTERM lands. It must decode the way the handler
// decodes, and its source must be what the corpus generates today.
func TestDrainRequestBodyMatchesCorpus(t *testing.T) {
	body, err := os.ReadFile("testdata/drain_request.json")
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Source != corpus.SyntheticVsftpd(120, 3) || req.Entry != "main" {
		t.Fatal(`testdata/drain_request.json is stale: regenerate it as {"entry": "main", "source": corpus.SyntheticVsftpd(120, 3)}`)
	}
}

// TestDrainZeroDrop pins SIGTERM semantics: in-flight requests finish
// with real responses (zero dropped), new requests get 503, and
// healthz flips to draining.
func TestDrainZeroDrop(t *testing.T) {
	srv, ts := newTestServer(t, Options{MaxConcurrent: 8})

	const inflight = 4
	var wg sync.WaitGroup
	codes := make([]int, inflight)
	verdicts := make([]Response, inflight)
	for i := 0; i < inflight; i++ {
		// Distinct slow programs (~100ms each), so none is answered
		// from the verdict cache and all are genuinely running when
		// Drain fires.
		var slow Request
		slow.Source = corpus.SyntheticVsftpd(18+i, 3)
		slow.Workers = 1
		slow.Merge = "joins"
		slow.Entry = "main"
		wg.Add(1)
		go func(i int, slow Request) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/analyze", slow)
			codes[i] = resp.StatusCode
			if resp.StatusCode == 200 {
				verdicts[i] = decode(t, body)
			}
		}(i, slow)
	}
	// Wait until all of them are admitted and running.
	for deadline := time.Now().Add(10 * time.Second); srv.inflightNow.Load() < inflight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted", srv.inflightNow.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 200 || verdicts[i].Analyze == nil {
			t.Fatalf("in-flight request %d dropped during drain: code=%d", i, code)
		}
	}

	resp, body := post(t, ts.URL+"/analyze", vsftpdRequest(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain = %d, want 503: %s", resp.StatusCode, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", hr.StatusCode)
	}
}

// badRequests is the 400 surface: malformed JSON, trailing bytes,
// unknown fields, missing source, parse errors, and facade validation
// errors. TestBadRequests pins each row; FuzzRequest seeds from them.
var badRequests = []struct {
	name, path, body, want string
}{
	{"malformed", "/check", `{`, "bad request body"},
	{"trailing bytes", "/check", `{"source":"1 + 2"} trailing`, "data after the JSON object"},
	{"second object", "/check", `{"source":"1 + 2"} {}`, "data after the JSON object"},
	{"unknown field", "/check", `{"source":"1","bogus":true}`, "bad request body"},
	{"missing source", "/check", `{"workers":1}`, `missing "source"`},
	{"core parse error", "/check", `{"source":"let let"}`, "parse"},
	{"microc parse error", "/analyze", `{"source":"int f("}`, "parse"},
	{"bad merge", "/check", `{"source":"1 + 2","merge":"sometimes"}`, "bad Merge mode"},
	{"negative workers", "/check", `{"source":"1 + 2","workers":-1}`, "negative Workers"},
	// Exploration is sequential: a request for more than one worker is
	// rejected, not silently run on one.
	{"workers above one", "/check", `{"source":"1 + 2","workers":2}`, "exploration is sequential"},
	{"workers above one microc", "/analyze", `{"source":"int main() { return 0; }","workers":4}`, "exploration is sequential"},
	// A negative deadline is an error, as a negative solver_timeout
	// is, not a request for the server default.
	{"negative deadline", "/check", `{"source":"1 + 2","deadline":"-5ms"}`, "negative Deadline"},
	{"negative deadline ns", "/analyze", `{"source":"int main() { return 0; }","deadline":-1}`, "negative Deadline"},
	// The search-core selector and the solver bound overrides are
	// gone; a request that still carries one is rejected, not
	// silently run at the fixed configuration.
	{"removed solver", "/check", `{"source":"1 + 2","solver":"dpll"}`, "unknown field"},
	{"removed max_atoms", "/analyze", `{"source":"int main() { return 0; }","max_atoms":2}`, "unknown field"},
	{"removed max_decisions", "/check", `{"source":"1 + 2","max_decisions":1}`, "unknown field"},
	{"removed max_learned", "/analyze", `{"source":"int main() { return 0; }","max_learned":8}`, "unknown field"},
	// Every engine memoizes now, and aggressive merging is no
	// longer a request mode.
	{"removed no_memo", "/check", `{"source":"1 + 2","no_memo":true}`, "unknown field"},
	// The joins-mode divergence cap is the constant 8.
	{"removed merge_cap", "/analyze", `{"source":"int main() { return 0; }","merge":"joins","merge_cap":4}`, "unknown field"},
	{"removed aggressive merge", "/analyze", `{"source":"int main() { return 0; }","merge":"aggressive"}`, `bad Merge mode "aggressive"`},
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range badRequests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400: %s", resp.StatusCode, buf.Bytes())
			}
			var eb errorBody
			if err := json.Unmarshal(buf.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, tc.want) {
				t.Fatalf("error = %s, want substring %q", buf.Bytes(), tc.want)
			}
		})
	}
}

// TestVerdictCacheIgnoresWorkers: every request runs the same engine,
// so a request that spells out "workers": 1 is answered from the entry
// of one that leaves it out, while "workers": 2 is still a 400, not a
// cached 200.
func TestVerdictCacheIgnoresWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i, tc := range []struct {
		body       string
		code       int
		wantCached bool
	}{
		{`{"source":"1 + 2"}`, http.StatusOK, false},
		{`{"source":"1 + 2","workers":1}`, http.StatusOK, true},
		{`{"source":"1 + 2","workers":2}`, http.StatusBadRequest, false},
	} {
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("request %d %s = %d, want %d: %s", i, tc.body, resp.StatusCode, tc.code, buf.Bytes())
		}
		if tc.code == http.StatusOK {
			if r := decode(t, buf.Bytes()); r.Cached != tc.wantCached {
				t.Fatalf("request %d %s: cached = %v, want %v", i, tc.body, r.Cached, tc.wantCached)
			}
		}
	}
}

// TestFlushEndpoint pins /flush: both caches drop, so the next
// identical request is a verdict-cache miss.
func TestFlushEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	req := memoRequest()

	post(t, ts.URL+"/check", req)
	_, body := post(t, ts.URL+"/check", req)
	if r := decode(t, body); !r.Cached {
		t.Fatalf("second identical request not cached: %s", body)
	}

	resp, err := http.Post(ts.URL+"/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/flush = %d", resp.StatusCode)
	}
	if cs := srv.Cache().Stats(); cs.MemoEntries != 0 || cs.Flushes == 0 {
		t.Fatalf("solver cache after flush: %+v", cs)
	}

	_, body = post(t, ts.URL+"/check", req)
	if r := decode(t, body); r.Cached {
		t.Fatalf("request after flush still cached: %s", body)
	}
}

// TestPerRequestMetricsAndTrace pins the response shaping extras: a
// request asking for metrics/trace gets the run's own snapshot and
// deterministic trace rows, and bypasses the verdict cache.
func TestPerRequestMetricsAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := memoRequest()
	req.Metrics = true
	req.Trace = true

	for i := 0; i < 2; i++ {
		_, body := post(t, ts.URL+"/check", req)
		r := decode(t, body)
		if r.Cached {
			t.Fatalf("traced request %d must bypass the verdict cache", i)
		}
		if r.Metrics == nil || r.Metrics.SchemaVersion != obs.MetricsSchemaVersion || len(r.Metrics.Metrics) == 0 {
			t.Fatalf("metrics missing: %s", body)
		}
		if len(r.Trace) == 0 {
			t.Fatalf("trace missing: %s", body)
		}
		var ev map[string]any
		if err := json.Unmarshal(r.Trace[0], &ev); err != nil {
			t.Fatalf("trace row not JSON: %v", err)
		}
	}
}

// summariesRequest is a MicroC request with a summarizable helper
// called twice from a symbolic entry, with summaries enabled — the
// shape that exercises the server's shared summary store.
func summariesRequest() Request {
	var req Request
	req.Source = `
int h(int a, int b) {
  if (a < b) { return a + 1; }
  return b - 1;
}
int entry(int x, int y) MIX(symbolic) {
  int r = h(x, y);
  int s = h(r, x);
  return r + s;
}
`
	req.Entry = "entry"
	req.Merge = "joins"
	req.Summaries = true
	return req
}

// TestSummaryStoreSharedAndFlushed pins the daemon's summary-store
// lifecycle: summaries computed for one request answer later requests
// from memory, POST /flush drops that memory (disk survives), and the
// verdicts never change.
func TestSummaryStoreSharedAndFlushed(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{CacheDir: dir})
	req := summariesRequest()

	_, body := post(t, ts.URL+"/analyze", req)
	cold := decode(t, body)
	if cold.Analyze == nil {
		t.Fatalf("analyze failed: %s", body)
	}
	st := srv.Summaries().Stats()
	if st.Computed == 0 || st.Entries == 0 {
		t.Fatalf("summaries request computed nothing: %+v", st)
	}

	// The summary counters surface on the /metrics scrape.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.MetricsSnapshot
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, m := range snap.Metrics {
		vals[m.Name] = m.Value
	}
	if vals["serve.summaries.computed"] == 0 || vals["serve.summaries.entries"] == 0 {
		t.Fatalf("summary gauges missing from /metrics: %v", vals)
	}

	// Flush drops the in-memory tier only; the next run (a verdict-cache
	// miss, since /flush dropped that too) reloads summaries from disk.
	resp, err := http.Post(ts.URL+"/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := srv.Summaries().Stats(); st.Entries != 0 {
		t.Fatalf("flush left %d summary entries in memory", st.Entries)
	}

	_, body = post(t, ts.URL+"/analyze", req)
	warm := decode(t, body)
	if warm.Cached {
		t.Fatal("post-flush request must not be a verdict-cache hit")
	}
	if verdict(warm) != verdict(cold) {
		t.Fatalf("warm verdict differs:\n got %s\nwant %s", verdict(warm), verdict(cold))
	}
	warmStats := srv.Summaries().Stats()
	if warmStats.DiskHits == 0 {
		t.Fatalf("post-flush run did not reload summaries from disk: %+v", warmStats)
	}
	if warmStats.Computed != st.Computed {
		t.Fatalf("post-flush run recomputed summaries: %+v, want only the cold run's %d", warmStats, st.Computed)
	}
}

// TestWarmStartFromDisk pins the restart story: a fresh server on the
// same cache directory answers a repeat analysis without recomputing
// any summaries, with a byte-identical verdict.
func TestWarmStartFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := summariesRequest()

	s1, ts1 := newTestServer(t, Options{CacheDir: dir})
	_, body := post(t, ts1.URL+"/analyze", req)
	cold := decode(t, body)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, ts2 := newTestServer(t, Options{CacheDir: dir})
	_, body = post(t, ts2.URL+"/analyze", req)
	warm := decode(t, body)
	if warm.Cached {
		t.Fatal("restarted server has an empty verdict cache; hit is impossible")
	}
	if verdict(warm) != verdict(cold) {
		t.Fatalf("restart changed the verdict:\n got %s\nwant %s", verdict(warm), verdict(cold))
	}
	st := s2.Summaries().Stats()
	if st.Computed != 0 || st.DiskHits == 0 {
		t.Fatalf("restarted server stats = %+v, want all summaries from disk", st)
	}
}

// TestMetricsEndpoint pins the /metrics scrape: the obs JSON schema
// with the server counters and refreshed cache gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts.URL+"/check", memoRequest())
	post(t, ts.URL+"/check", memoRequest())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, m := range snap.Metrics {
		vals[m.Name] = m.Value
	}
	if vals["serve.requests"] != 2 || vals["serve.responses.cached"] != 1 {
		t.Fatalf("server counters: %v", vals)
	}
	if vals["serve.respcache.entries"] != 1 || vals["serve.solvercache.memo_entries"] == 0 {
		t.Fatalf("cache gauges not refreshed on scrape: %v", vals)
	}
}
