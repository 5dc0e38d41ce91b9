// Command mixy runs the MIXY null-pointer analysis on a MicroC file:
// flow-insensitive null/nonnull qualifier inference mixed with
// symbolic execution at MIX(typed)/MIX(symbolic) function boundaries.
//
// Usage:
//
//	mixy [-pure] [-entry main] [-nocache] [-merge mode]
//	     [-summaries] [-cache-dir dir]
//	     [-deadline d] [-solver-timeout d]
//	     [-stats] [-metrics] [-trace file] [-trace-det] [-pprof addr]
//	     file.mc
//
// -pure ignores the MIX annotations, giving the paper's baseline of
// pure type qualifier inference. Exit status 1 means warnings were
// reported.
//
// The analysis flags are shared with mix and with the mixd request
// schema (see internal/cliflags). Every run answers its solver
// queries through one engine's memoizing pool.
//
// -merge selects veritesting-style state merging in the per-block
// symbolic executor (DESIGN.md section 12): "joins" (the default)
// folds the two arms of a forked conditional into one state with
// guarded ite cells when both reach the join alive and at most 8
// cells diverge, and "off" restores pure forking.
//
// -summaries analyzes each eligible (int-only, non-MIX) function once
// into guarded summary arms and instantiates those at call sites
// instead of re-inlining the body (DESIGN.md section 14); a summary
// holds at most 16 arms (over that, the call inlines as before).
// -cache-dir persists the summaries — and the engine's solver memo and
// counterexample models — under a directory, so repeat runs over
// unchanged functions skip their symbolic exploration entirely.
//
// -deadline bounds the whole analysis' wall-clock time and
// -solver-timeout bounds each solver query. A run cut short by either
// degrades soundly: the fixed point stops and the frontier's
// qualifiers are pessimized to null, so warnings over-approximate
// instead of silently missing.
//
// Observability (see README "Stats and metrics schema" and DESIGN.md
// section 11): -stats prints the run's metrics registry as sorted
// "name value" lines — the same schema mix -stats uses; -metrics
// prints the registry as a JSON snapshot instead and moves warnings
// to stderr, leaving stdout pure JSON for pipelines. -trace file
// writes
// a JSONL event trace of the fixpoint loop and the symbolic
// executions inside it (validate or convert it for Perfetto with
// cmd/mixtrace); -trace-det makes the trace deterministic. -pprof
// addr serves net/http/pprof for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"mix"
	"mix/internal/cliflags"
	"mix/internal/obs"
	"mix/internal/profiling"
)

func main() {
	var a cliflags.Analysis
	var o cliflags.Obs
	a.Register(flag.CommandLine, cliflags.MicroC)
	o.Register(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mixy [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := cliflags.ReadInput(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixy:", err)
		os.Exit(2)
	}

	if o.PprofAddr != "" {
		addr, err := profiling.Serve(o.PprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixy: pprof:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "mixy: pprof serving on http://%s/debug/pprof/\n", addr)
	}

	cfg := a.CConfig()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err) // Validate errors carry the package prefix
		os.Exit(2)
	}
	if o.Stats || o.MetricsJSON {
		cfg.Metrics = obs.NewRegistry()
	}
	if o.TraceFile != "" {
		cfg.Tracer = obs.NewTracer(obs.TraceOptions{Deterministic: o.TraceDet})
	}

	res, err := mix.AnalyzeC(src, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixy:", err)
		os.Exit(2)
	}
	if cfg.Tracer != nil {
		if err := cliflags.WriteTrace(o.TraceFile, cfg.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "mixy: trace:", err)
			os.Exit(2)
		}
	}
	// With -metrics, stdout carries exactly one JSON document; the
	// human-readable report moves to stderr.
	human := os.Stdout
	if o.MetricsJSON {
		human = os.Stderr
	}
	if res.Degraded {
		fmt.Fprintf(human, "imprecision: analysis degraded (%s): %s\n", res.Fault, res.FaultDetail)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(human, "warning:", w)
	}
	if o.MetricsJSON {
		if err := cfg.Metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mixy: metrics:", err)
			os.Exit(2)
		}
	} else if o.Stats {
		if err := cfg.Metrics.WriteStats(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mixy: stats:", err)
			os.Exit(2)
		}
	}
	if len(res.Warnings) > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(human, "no warnings")
}
