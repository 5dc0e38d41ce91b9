// Package serve is the analysis-as-a-service layer: a long-lived HTTP
// daemon wrapping the mix.Check / mix.AnalyzeC facade, so cache warmth
// amortizes across requests instead of being rebuilt per process. See
// DESIGN.md section 13 for the architecture.
//
// The server owns two caches that outlive any single request:
//
//   - a shared engine.Cache (per-component solver memo, counterexample
//     models, warm per-worker solver instances), which
//     every engine-backed request reads and extends,
//   - a shared summary.Store, so function summaries computed for one
//     request answer later requests that analyze the same code, and
//   - a request-level verdict cache, answering byte-identical repeat
//     requests without re-running the analysis.
//
// All are bounded and all drop their in-memory tier on POST /flush.
// With Options.CacheDir set, the solver memo, counterexample models,
// and function summaries also persist to disk: a restarted daemon
// starts warm, and /flush does not touch the disk tier. Degraded
// results are never cached — they depend on wall clock and load, not
// just the request.
//
// Admission control is a per-tenant token bucket (fairness across
// tenants at one shared rate) plus a global in-flight cap; rejected
// requests get 429 with Retry-After, and a draining server answers 503.
// A request's deadline is enforced inside the analysis via the
// internal/fault plumbing: expiry degrades the verdict — still a 200,
// with "degraded", the fault class, and a "retryable" hint — because a
// truncated analysis is an answer ("unknown"), not a transport error.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mix"
	"mix/internal/cliflags"
	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/obs"
	"mix/internal/profiling"
	"mix/internal/summary"
)

// maxBodyBytes bounds a request body; programs are source text, so a
// few megabytes is generous.
const maxBodyBytes = 8 << 20

// Options configures a Server. The zero value serves: no rate limit,
// in-flight cap of 4×GOMAXPROCS, 10s default / 60s maximum deadline,
// default cache sizes.
type Options struct {
	// MaxConcurrent caps in-flight analyses (0 = 4×GOMAXPROCS).
	// Admission beyond the cap is answered 429, not queued: under
	// sustained overload a bounded queue only adds latency before the
	// same rejection.
	MaxConcurrent int
	// RatePerSec is each tenant's sustained admission rate in requests
	// per second (0 = no rate limiting); Burst is the bucket size
	// (0 = max(1, RatePerSec)).
	RatePerSec float64
	Burst      int
	// DefaultDeadline applies when a request carries none; MaxDeadline
	// clamps what a request may ask for. Zero values mean 10s and 60s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MemoSize bounds the shared engine cache's memo (see
	// engine.CacheOptions). ResponseCacheSize bounds the verdict cache
	// (0 = 4096 entries).
	MemoSize          int
	ResponseCacheSize int
	// CacheDir, when non-empty, backs the engine cache and the summary
	// store with a persistent on-disk tier: verdicts, models, and
	// summaries survive daemon restarts (warm start), and POST /flush
	// drops only the in-memory generations. Server-side configuration
	// only — requests cannot name filesystem paths.
	CacheDir string
	// Registry receives the server's own metrics (request counts,
	// rejections, latency, cache gauges, per-tenant RED series). Nil
	// creates a private one; it is exposed at GET /metrics either way
	// (obs JSON by default, Prometheus text format with
	// ?format=prometheus).
	Registry *obs.Registry
	// FlightSize bounds the flight recorder — the always-on ring of
	// recent request summaries dumped at GET /debug/flight and on
	// drain. 0 means 1024 entries; negative disables it.
	FlightSize int
	// Now is the clock (tests only; nil = time.Now).
	Now func() time.Time
}

// Server is the serving state: caches, admission control, metrics,
// and the drain flag. Construct with New.
type Server struct {
	opts    Options
	cache   *engine.Cache
	sums    *summary.Store
	resp    *respCache
	adm     *tenantBuckets
	reg     *obs.Registry
	tenants *tenantRED
	flight  *flightRecorder

	inflight    chan struct{}
	inflightNow atomic.Int64
	draining    atomic.Bool
	wg          sync.WaitGroup

	requests    *obs.Counter
	cachedHits  *obs.Counter
	rejected429 *obs.Counter
	rejected503 *obs.Counter
	badRequests *obs.Counter
	degraded    *obs.Counter
	latency     *obs.Histogram
	flushes     *obs.Counter
}

// New builds a Server from o.
func New(o Options) *Server {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 10 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 60 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	s := &Server{
		opts:     o,
		cache:    engine.NewCache(engine.CacheOptions{MemoSize: o.MemoSize, Dir: o.CacheDir}),
		sums:     summary.NewStore(o.CacheDir),
		resp:     newRespCache(o.ResponseCacheSize),
		adm:      newTenantBuckets(o.RatePerSec, o.Burst, o.Now),
		reg:      o.Registry,
		tenants:  newTenantRED(o.Registry, o.Now),
		flight:   newFlightRecorder(o.FlightSize),
		inflight: make(chan struct{}, o.MaxConcurrent),

		requests:    o.Registry.Counter("serve.requests"),
		cachedHits:  o.Registry.Counter("serve.responses.cached"),
		rejected429: o.Registry.Counter("serve.rejected.ratelimit"),
		rejected503: o.Registry.Counter("serve.rejected.draining"),
		badRequests: o.Registry.Counter("serve.rejected.badrequest"),
		degraded:    o.Registry.Counter("serve.responses.degraded"),
		latency:     o.Registry.Histogram("serve.latency.ns"),
		flushes:     o.Registry.Counter("serve.flushes"),
	}
	return s
}

// Request is one analysis request: the program source plus the same
// option set the CLIs accept (cliflags.Analysis defines the JSON
// names), a tenant for admission accounting, and response shaping.
type Request struct {
	cliflags.Analysis
	// Source is the program text (core language for /check, MicroC for
	// /analyze).
	Source string `json:"source"`
	// Tenant names the admission-control bucket; empty = "default".
	Tenant string `json:"tenant,omitempty"`
	// Metrics asks for the run's own metrics snapshot in the response.
	Metrics bool `json:"metrics,omitempty"`
	// Trace asks for the run's deterministic event trace (JSONL rows).
	// Traced requests bypass the verdict cache: a cached verdict has no
	// run to trace.
	Trace bool `json:"trace,omitempty"`
}

// CheckResult is the JSON rendering of mix.Result.
type CheckResult struct {
	Type          string   `json:"type,omitempty"`
	Error         string   `json:"error,omitempty"`
	Reports       []string `json:"reports,omitempty"`
	Paths         int      `json:"paths"`
	Merges        int      `json:"merges"`
	SolverQueries int      `json:"solver_queries"`
	MemoHits      int      `json:"memo_hits"`
	MemoMisses    int      `json:"memo_misses"`
	QuickDecided  int      `json:"quick_decided"`
	CexHits       int      `json:"cex_hits"`
	Degraded      bool     `json:"degraded,omitempty"`
	Fault         string   `json:"fault,omitempty"`
	FaultDetail   string   `json:"fault_detail,omitempty"`
}

// AnalyzeResult is the JSON rendering of mix.CResult.
type AnalyzeResult struct {
	Warnings       []string `json:"warnings,omitempty"`
	Merges         int      `json:"merges"`
	BlocksAnalyzed int      `json:"blocks_analyzed"`
	CacheHits      int      `json:"block_cache_hits"`
	FixpointIters  int      `json:"fixpoint_iters"`
	SolverQueries  int      `json:"solver_queries"`
	MemoHits       int      `json:"memo_hits"`
	MemoMisses     int      `json:"memo_misses"`
	QuickDecided   int      `json:"quick_decided"`
	CexHits        int      `json:"cex_hits"`
	Degraded       bool     `json:"degraded,omitempty"`
	Fault          string   `json:"fault,omitempty"`
	FaultDetail    string   `json:"fault_detail,omitempty"`
}

// Response is the envelope of every 200.
type Response struct {
	// Kind is "core" or "microc", matching the endpoint.
	Kind string `json:"kind"`
	// Check / Analyze carries the result; exactly one is set.
	Check   *CheckResult   `json:"check,omitempty"`
	Analyze *AnalyzeResult `json:"analyze,omitempty"`
	// Cached reports a verdict-cache hit: the analysis did not run.
	Cached bool `json:"cached"`
	// Retryable hints that the degradation (if any) was transient —
	// retrying the identical request may genuinely succeed. See
	// fault.Class.Transient.
	Retryable bool `json:"retryable,omitempty"`
	// LatencyNS is the server-side processing time of this request.
	LatencyNS int64 `json:"latency_ns"`
	// Metrics is the run's metrics snapshot (with "metrics": true).
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
	// Trace is the run's deterministic JSONL trace (with "trace": true).
	Trace []json.RawMessage `json:"trace,omitempty"`
}

// errorBody is the envelope of every non-200.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on 429/503.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Handler returns the daemon's HTTP surface:
//
//	POST /check         core-language analysis
//	POST /analyze       MicroC (MIXY) analysis
//	POST /flush         drop all in-memory caches (admin)
//	GET  /metrics       server metrics snapshot (obs JSON schema, or
//	                    Prometheus text format with ?format=prometheus)
//	GET  /healthz       readiness (503 once draining)
//	GET  /debug/flight  flight-recorder dump (JSONL, oldest first)
//
// The observability endpoints (/metrics, /debug/flight) have no drain
// gate: a draining daemon keeps answering scrapes — that is exactly
// when the last readings matter — while the analysis endpoints 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /check", s.analysisHandler("core"))
	mux.Handle("POST /analyze", s.analysisHandler("microc"))
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		s.Flush()
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"flushed":true}`)
	})
	mux.Handle("GET /metrics", profiling.MetricsHandler(s.reg, s.collect))
	mux.Handle("GET /healthz", profiling.HealthzHandler(s.Ready))
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.flight.WriteJSONL(w)
	})
	return mux
}

// WriteFlight dumps the flight recorder as JSONL, oldest entry first —
// what mixd writes on SIGTERM so a crash-looping deployment leaves its
// last requests on stderr. A disabled recorder writes nothing.
func (s *Server) WriteFlight(w io.Writer) error { return s.flight.WriteJSONL(w) }

// Flush drops the in-memory tiers of the solver cache, the summary
// store, and the verdict cache. The persistent tier (Options.CacheDir)
// survives: flushing resets warmth, it does not delete the cross-run
// store. Safe under load: in-flight queries finish against the
// generation they captured.
func (s *Server) Flush() {
	s.cache.Flush()
	s.sums.Flush()
	s.resp.flush()
	s.flushes.Inc()
}

// Ready reports whether the server is admitting requests.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Drain stops admitting work and waits for in-flight requests to
// finish, or for ctx to expire — the SIGTERM path. It returns nil when
// every in-flight request completed (zero dropped), or the context
// error if some were still running at the cutoff. Either way the
// persistent cache tier is written back before returning, so the next
// daemon start is warm (summaries write through at compute time and
// need no step here).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if perr := s.cache.Persist(); perr != nil && err == nil {
		err = perr
	}
	return err
}

// Cache exposes the shared solver cache (stats for /metrics and
// tests).
func (s *Server) Cache() *engine.Cache { return s.cache }

// Summaries exposes the shared function-summary store (stats for
// /metrics and tests).
func (s *Server) Summaries() *summary.Store { return s.sums }

// collect refreshes the on-demand gauges before a /metrics scrape.
func (s *Server) collect() {
	cs := s.cache.Stats()
	s.reg.Gauge("serve.solvercache.memo_entries").Set(int64(cs.MemoEntries))
	s.reg.Gauge("serve.solvercache.memo_hits").Set(cs.MemoHits)
	s.reg.Gauge("serve.solvercache.memo_misses").Set(cs.MemoMisses)
	s.reg.Gauge("serve.solvercache.cex_hits").Set(cs.CexHits)
	s.reg.Gauge("serve.solvercache.evictions").Set(cs.Evictions)
	s.reg.Gauge("serve.solvercache.disk_entries").Set(int64(cs.DiskEntries))
	s.reg.Gauge("serve.solvercache.disk_hits").Set(cs.DiskHits)
	s.reg.Gauge("serve.solvercache.disk_corrupt").Set(cs.DiskCorrupt)
	ss := s.sums.Stats()
	s.reg.Gauge("serve.summaries.entries").Set(int64(ss.Entries))
	s.reg.Gauge("serve.summaries.mem_hits").Set(ss.MemHits)
	s.reg.Gauge("serve.summaries.disk_hits").Set(ss.DiskHits)
	s.reg.Gauge("serve.summaries.computed").Set(ss.Computed)
	s.reg.Gauge("serve.summaries.corrupt").Set(ss.Corrupt)
	entries, hits, misses := s.resp.stats()
	s.reg.Gauge("serve.respcache.entries").Set(int64(entries))
	s.reg.Gauge("serve.respcache.hits").Set(hits)
	s.reg.Gauge("serve.respcache.misses").Set(misses)
	s.reg.Gauge("serve.inflight").Set(s.inflightNow.Load())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) reject(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	body := errorBody{Error: msg}
	if retryAfter > 0 {
		sec := int(retryAfter.Seconds() + 0.999)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		body.RetryAfterSec = sec
	}
	writeJSON(w, code, body)
}

// analysisHandler is the shared request lifecycle of /check and
// /analyze: drain gate → decode → validate (400) → admission (429) →
// verdict cache → run → respond. kind is "core" or "microc". Every
// exit — rejects included — lands in the flight recorder, and every
// exit with a known tenant lands in that tenant's RED series.
func (s *Server) analysisHandler(kind string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Register with the drain group before checking the flag:
		// either Drain sees this request in the group and waits for it,
		// or this request sees the flag and bows out — it cannot fall
		// between.
		s.wg.Add(1)
		defer s.wg.Done()
		t0 := time.Now()
		fe := FlightEntry{TNs: t0.UnixNano(), Kind: kind}
		// finish records the request in the flight recorder and the
		// tenant's RED series. It runs before the response bytes go out,
		// so a client that scrapes right after its own request always
		// sees that request accounted.
		finish := func(status int) {
			fe.Status = status
			fe.LatencyNS = int64(time.Since(t0))
			s.flight.record(fe)
			if fe.Tenant != "" {
				s.tenants.observe(fe.Tenant, status != http.StatusOK || fe.Verdict == "degraded", fe.LatencyNS)
			}
		}
		if s.draining.Load() {
			s.rejected503.Inc()
			finish(http.StatusServiceUnavailable)
			s.reject(w, http.StatusServiceUnavailable, time.Second, "server is draining")
			return
		}

		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.badRequests.Inc()
			finish(http.StatusBadRequest)
			s.reject(w, http.StatusBadRequest, 0, "bad request body: "+err.Error())
			return
		}
		if req.Source == "" {
			s.badRequests.Inc()
			finish(http.StatusBadRequest)
			s.reject(w, http.StatusBadRequest, 0, `missing "source"`)
			return
		}

		tenant := req.Tenant
		if tenant == "" {
			tenant = "default"
		}
		fe.Tenant = tenant
		if ok, retry := s.adm.take(tenant); !ok {
			s.rejected429.Inc()
			finish(http.StatusTooManyRequests)
			s.reject(w, http.StatusTooManyRequests, retry,
				fmt.Sprintf("tenant %q over admission rate", tenant))
			return
		}
		select {
		case s.inflight <- struct{}{}:
			s.inflightNow.Add(1)
			defer func() {
				<-s.inflight
				s.inflightNow.Add(-1)
			}()
		default:
			s.rejected429.Inc()
			finish(http.StatusTooManyRequests)
			s.reject(w, http.StatusTooManyRequests, time.Second, "server at in-flight capacity")
			return
		}

		s.requests.Inc()
		resp, code, errMsg := s.run(kind, &req)
		elapsed := time.Since(t0)
		s.latency.Observe(int64(elapsed))
		if code != http.StatusOK {
			s.badRequests.Inc()
			finish(code)
			s.reject(w, code, 0, errMsg)
			return
		}
		fe.Cached = resp.Cached
		fe.Verdict, fe.Fault = verdictOf(resp)
		resp.LatencyNS = int64(elapsed)
		finish(http.StatusOK)
		writeJSON(w, http.StatusOK, resp)
	})
}

// verdictOf summarizes a 200 response for the flight recorder.
func verdictOf(resp *Response) (verdict, faultClass string) {
	switch {
	case resp.Check != nil && resp.Check.Degraded:
		return "degraded", resp.Check.Fault
	case resp.Analyze != nil && resp.Analyze.Degraded:
		return "degraded", resp.Analyze.Fault
	case resp.Check != nil && resp.Check.Error != "":
		return "reject", ""
	default:
		return "ok", ""
	}
}

// cacheKey is the verdict-cache key: kind, source, and the canonical
// JSON of the analysis options (struct field order, so it is
// deterministic).
func cacheKey(kind, source string, a cliflags.Analysis) string {
	opts, _ := json.Marshal(a)
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(source))
	h.Write([]byte{0})
	h.Write(opts)
	return hex.EncodeToString(h.Sum(nil))
}

// deadline resolves the request deadline: the default when absent,
// clamped to the maximum either way.
func (s *Server) deadline(req *Request) time.Duration {
	d := time.Duration(req.Deadline)
	if d <= 0 {
		d = s.opts.DefaultDeadline
	}
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return d
}

// run executes one admitted request. It returns the response (code
// 200), or a non-200 code and message.
func (s *Server) run(kind string, req *Request) (*Response, int, string) {
	resp := &Response{Kind: kind}

	// Parse errors are 400s — the client sent a program the language
	// does not contain — unlike analysis rejections (type errors,
	// warnings), which are successful analyses of valid programs.
	switch kind {
	case "core":
		if _, err := mix.Parse(req.Source); err != nil {
			return nil, http.StatusBadRequest, "parse: " + err.Error()
		}
	case "microc":
		if _, err := mix.ParseC(req.Source); err != nil {
			return nil, http.StatusBadRequest, "parse: " + err.Error()
		}
	}

	key := cacheKey(kind, req.Source, req.Analysis)
	cacheable := !req.Trace && !req.Metrics
	if cacheable {
		if e := s.resp.get(key); e != nil {
			s.cachedHits.Inc()
			resp.Cached = true
			resp.Check, resp.Analyze = e.check, e.analyze
			return resp, http.StatusOK, ""
		}
	}

	var reg *obs.Registry
	if req.Metrics {
		reg = obs.NewRegistry()
	}
	var tr *obs.Tracer
	if req.Trace {
		tr = obs.NewTracer(obs.TraceOptions{Deterministic: true})
	}

	switch kind {
	case "core":
		cfg := req.Analysis.MixConfig()
		cfg.Cache = s.cache
		cfg.Deadline = s.deadline(req)
		cfg.Metrics, cfg.Tracer = reg, tr
		if err := cfg.Validate(); err != nil {
			return nil, http.StatusBadRequest, err.Error()
		}
		res := mix.Check(req.Source, cfg)
		cr := &CheckResult{
			Type:          res.Type,
			Reports:       res.Reports,
			Paths:         res.Paths,
			Merges:        res.Merges,
			SolverQueries: res.SolverQueries,
			MemoHits:      res.MemoHits,
			MemoMisses:    res.MemoMisses,
			QuickDecided:  res.QuickDecided,
			CexHits:       res.CexHits,
			Degraded:      res.Degraded,
			Fault:         res.Fault,
			FaultDetail:   res.FaultDetail,
		}
		if res.Err != nil {
			cr.Error = res.Err.Error()
		}
		resp.Check = cr
		if res.Degraded {
			s.degraded.Inc()
			resp.Retryable = retryable(res.Fault)
		} else if cacheable {
			s.resp.put(&respEntry{key: key, check: cr})
		}
	case "microc":
		cfg := req.Analysis.CConfig()
		cfg.Cache = s.cache
		if cfg.Summaries {
			// The shared store, not a per-request one: summaries computed
			// for one request answer every later request that analyzes
			// the same functions (and, with CacheDir, later processes).
			cfg.SummaryStore = s.sums
		}
		cfg.Deadline = s.deadline(req)
		cfg.Metrics, cfg.Tracer = reg, tr
		if err := cfg.Validate(); err != nil {
			return nil, http.StatusBadRequest, err.Error()
		}
		res, err := mix.AnalyzeC(req.Source, cfg)
		if err != nil {
			// Parse passed, so this is a program the analyzer cannot
			// handle (unbound entry, unsupported construct): still the
			// client's content.
			return nil, http.StatusBadRequest, err.Error()
		}
		ar := &AnalyzeResult{
			Warnings:       res.Warnings,
			Merges:         res.Merges,
			BlocksAnalyzed: res.BlocksAnalyzed,
			CacheHits:      res.CacheHits,
			FixpointIters:  res.FixpointIters,
			SolverQueries:  res.SolverQueries,
			MemoHits:       res.MemoHits,
			MemoMisses:     res.MemoMisses,
			QuickDecided:   res.QuickDecided,
			CexHits:        res.CexHits,
			Degraded:       res.Degraded,
			Fault:          res.Fault,
			FaultDetail:    res.FaultDetail,
		}
		resp.Analyze = ar
		if res.Degraded {
			s.degraded.Inc()
			resp.Retryable = retryable(res.Fault)
		} else if cacheable {
			s.resp.put(&respEntry{key: key, analyze: ar})
		}
	}

	if reg != nil {
		snap := reg.Snapshot()
		resp.Metrics = &snap
	}
	if tr != nil {
		resp.Trace = traceRows(tr)
	}
	return resp, http.StatusOK, ""
}

// retryable maps a Result.Fault class name back to the transiency
// hint. The facade reports fault classes as strings (their public
// form), so match on the parsed class.
func retryable(faultName string) bool {
	for _, c := range fault.Classes() {
		if c.String() == faultName {
			return c.Transient()
		}
	}
	return false
}

// traceRows renders a tracer's JSONL output as individual JSON rows.
func traceRows(tr *obs.Tracer) []json.RawMessage {
	var buf jsonlBuffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return nil
	}
	return buf.rows
}

// jsonlBuffer splits written JSONL bytes into rows, tolerating writes
// that do not align with line boundaries.
type jsonlBuffer struct {
	rows []json.RawMessage
	cur  []byte
}

func (b *jsonlBuffer) Write(p []byte) (int, error) {
	for _, c := range p {
		if c == '\n' {
			if len(b.cur) > 0 {
				row := make(json.RawMessage, len(b.cur))
				copy(row, b.cur)
				b.rows = append(b.rows, row)
				b.cur = b.cur[:0]
			}
			continue
		}
		b.cur = append(b.cur, c)
	}
	return len(p), nil
}
