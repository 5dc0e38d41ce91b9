// mixd is the analysis-as-a-service daemon: a long-lived HTTP/JSON
// server over the mix.Check / mix.AnalyzeC facade (see internal/serve
// and DESIGN.md section 13).
//
//	mixd [-addr host:port] [-rate n] [-burst n] [-max-inflight n]
//	     [-default-deadline d] [-max-deadline d]
//	     [-memo-size n] [-respcache-size n]
//	     [-cache-dir dir] [-flight n] [-drain-timeout d] [-pprof addr]
//
// Endpoints: POST /check (core language), POST /analyze (MicroC),
// POST /flush (drop in-memory caches), GET /metrics (obs JSON, or
// Prometheus text format with ?format=prometheus), GET /healthz,
// GET /debug/flight (recent-request flight recorder, JSONL).
//
// A request body is exactly one JSON object of serve.Request's fields:
// "source", the mix and mixy analysis flags (internal/cliflags), and
// "tenant", "metrics" and "trace"; anything else is a 400. Each
// request's analysis runs on one engine on its own goroutine, so
// "workers" selects nothing: it may be left out, 0 or 1, and all three
// are the same request.
//
// With -cache-dir, solver verdicts, counterexample models, and
// function summaries persist under that directory: a restarted daemon
// answers repeat analyses from disk. The directory is server
// configuration only — requests cannot name filesystem paths.
//
// On SIGTERM/SIGINT the daemon drains: it stops admitting (503 / a
// failing /healthz, while /metrics and /debug/flight keep answering),
// waits up to -drain-timeout for in-flight requests to complete,
// writes a final metrics snapshot and the flight-recorder dump to
// stderr, and exits 0 when nothing was dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mix/internal/obs"
	"mix/internal/profiling"
	"mix/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", "localhost:7090", "listen address")
		rate            = flag.Float64("rate", 0, "per-tenant admission rate in requests/sec (0 = unlimited)")
		burst           = flag.Int("burst", 0, "per-tenant token-bucket burst (0 = max(1, rate))")
		maxInflight     = flag.Int("max-inflight", 0, "in-flight analysis cap (0 = 4×GOMAXPROCS)")
		defaultDeadline = flag.Duration("default-deadline", 10*time.Second, "deadline applied to requests that carry none")
		maxDeadline     = flag.Duration("max-deadline", 60*time.Second, "upper clamp on requested deadlines")
		memoSize        = flag.Int("memo-size", 0, "solver memo capacity in entries (0 = default)")
		respCacheSize   = flag.Int("respcache-size", 0, "verdict cache capacity in entries (0 = default)")
		cacheDir        = flag.String("cache-dir", "", "persist caches (summaries, solver memo, models) under this directory across restarts")
		flightSize      = flag.Int("flight", 0, "flight-recorder capacity in requests (0 = 1024, -1 = off)")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		got, err := profiling.Serve(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixd: pprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mixd: pprof serving on http://%s/debug/pprof/\n", got)
	}

	reg := obs.NewRegistry()
	srv := serve.New(serve.Options{
		MaxConcurrent:     *maxInflight,
		RatePerSec:        *rate,
		Burst:             *burst,
		DefaultDeadline:   *defaultDeadline,
		MaxDeadline:       *maxDeadline,
		MemoSize:          *memoSize,
		ResponseCacheSize: *respCacheSize,
		CacheDir:          *cacheDir,
		FlightSize:        *flightSize,
		Registry:          reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "mixd: serving on http://%s/\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	exit := 0
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mixd:", err)
		exit = 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mixd: %v: draining (timeout %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mixd: drain incomplete:", err)
			exit = 1
		} else {
			fmt.Fprintln(os.Stderr, "mixd: drained, zero requests dropped")
		}
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "mixd: shutdown:", err)
		}
		cancel()
	}

	// Flush the final metrics snapshot and the flight recorder so a
	// scrape-less deployment still gets its lifetime counters and the
	// last requests the daemon served before going down.
	if err := reg.WriteJSON(os.Stderr); err == nil {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, "mixd: flight recorder:")
	_ = srv.WriteFlight(os.Stderr)
	os.Exit(exit)
}
