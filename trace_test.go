// Observability acceptance tests (DESIGN.md section 11): seeded runs
// in deterministic trace mode must produce byte-identical JSONL run
// after run, and chaos runs must leave degrade events naming the fault
// class of every degradation the run absorbed.
package mix

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"mix/internal/corpus"
	"mix/internal/fault"
	"mix/internal/obs"
)

// ladderTraceJSONL explores ladder(n) symbolically with a
// deterministic tracer and returns the flushed JSONL bytes.
func ladderTraceJSONL(t *testing.T, n int) []byte {
	t.Helper()
	src, envPairs := corpus.Ladder(n)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	tr := obs.NewTracer(obs.TraceOptions{Deterministic: true})
	res := Check(src, Config{Mode: StartSymbolic, Env: env, Workers: 1, Tracer: tr})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uniqueEvents fails the test unless every event of a JSONL trace has
// its own (path, pseq) pair. Spans number their events, so a duplicate
// means something emitted the same event twice; the deterministic
// flush keeps it, and the test should say so instead of a changed trace.
func uniqueEvents(t *testing.T, name string, jsonl []byte) {
	t.Helper()
	type key struct {
		path string
		pseq int64
	}
	seen := map[key]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("%s: %v in %s", name, err, line)
		}
		k := key{e.Path, e.PSeq}
		if seen[k] {
			t.Fatalf("%s: event (path %s, pseq %d) appears twice", name, e.Path, e.PSeq)
		}
		seen[k] = true
	}
}

// TestTraceDeterministicAcrossWorkers is the headline acceptance
// criterion: the deterministic-mode trace of a seeded run is
// byte-identical run after run, fresh symbolic ids included.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	want := ladderTraceJSONL(t, 8)
	if len(want) == 0 {
		t.Fatal("first run produced an empty trace")
	}
	uniqueEvents(t, "run 0", want)
	for round := 1; round <= 3; round++ {
		got := ladderTraceJSONL(t, 8)
		uniqueEvents(t, fmt.Sprintf("run %d", round), got)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d trace differs from run 0 (%d vs %d bytes)", round, len(got), len(want))
		}
	}
}

// TestTraceDeterministicMixy asserts the same property end-to-end
// through MIXY: fixpoint-loop events and the symbolic executions
// inside it trace identically run after run.
func TestTraceDeterministicMixy(t *testing.T) {
	run := func() []byte {
		tr := obs.NewTracer(obs.TraceOptions{Deterministic: true})
		_, err := AnalyzeC(corpus.Case1.Source, CConfig{Workers: 1, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run()
	if len(want) == 0 {
		t.Fatal("first run produced an empty trace")
	}
	uniqueEvents(t, "run 0", want)
	got := run()
	uniqueEvents(t, "run 1", got)
	if !bytes.Equal(got, want) {
		t.Fatalf("second MIXY trace differs from the first (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosDegradeEventsNameFaultClass drives every fault class
// through a traced ladder run and asserts the trace carries the
// degradation's provenance: at least one degrade event, every degrade
// event naming the class the verdict reports.
func TestChaosDegradeEventsNameFaultClass(t *testing.T) {
	scenarios := []struct {
		name  string
		class string
		// configure arms the scenario's run.
		configure func(*Config)
	}{
		{"timeout", "timeout", func(c *Config) { c.Deadline = time.Nanosecond }},
		{"canceled", "canceled", func(c *Config) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c.Context = ctx
		}},
		{"path-budget", "path-budget", func(c *Config) { c.MaxPaths = 4 }},
		{"step-budget", "step-budget", func(c *Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreFork, fault.Plan{Class: fault.StepBudget})
		}},
		{"solver-limit", "solver-limit", func(c *Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreSolve, fault.Plan{Class: fault.SolverLimit})
		}},
		{"worker-panic", "worker-panic", func(c *Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreFork, fault.Plan{Count: 1, Panic: true})
		}},
	}
	src, envPairs := corpus.Ladder(8)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			tr := obs.NewTracer(obs.TraceOptions{Deterministic: true})
			cfg := Config{Mode: StartSymbolic, Env: env, Workers: 1, Tracer: tr}
			sc.configure(&cfg)
			res := Check(src, cfg)
			if res.Err != nil {
				t.Fatalf("fault must degrade, not reject: %v", res.Err)
			}
			if !res.Degraded {
				t.Fatal("expected a degraded verdict")
			}
			if res.Fault != sc.class {
				t.Fatalf("verdict fault class = %q, want %q", res.Fault, sc.class)
			}
			var degrades int
			for _, e := range tr.Events() {
				if e.Kind != obs.KindDegrade {
					continue
				}
				degrades++
				if e.Class != sc.class {
					t.Fatalf("degrade event on path %s names class %q, want %q (detail: %s)",
						e.Path, e.Class, sc.class, e.Detail)
				}
			}
			if degrades == 0 {
				t.Fatal("degraded run left no degrade event in the trace")
			}
		})
	}
}

// TestTraceMetricsRegistrySchema pins the -stats rendering contract
// end-to-end: a traced, metered check populates the registry, and the
// stats schema is sorted "name value" lines.
func TestTraceMetricsRegistrySchema(t *testing.T) {
	src, envPairs := corpus.Ladder(4)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	reg := obs.NewRegistry()
	res := Check(src, Config{Mode: StartSymbolic, Env: env, Workers: 1, Metrics: reg})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := reg.Snapshot()
	byName := map[string]obs.Metric{}
	for i, m := range snap.Metrics {
		byName[m.Name] = m
		if i > 0 && !(snap.Metrics[i-1].Name < m.Name) {
			t.Fatalf("snapshot not sorted: %q before %q", snap.Metrics[i-1].Name, m.Name)
		}
	}
	if got := byName["mix.paths"].Value; got != 16 {
		t.Fatalf("mix.paths = %d, want 16", got)
	}
	if got := byName["engine.forks"].Value; got != 15 {
		t.Fatalf("engine.forks = %d, want 15", got)
	}
	if _, ok := byName["solver.queries"]; !ok {
		t.Fatal("solver.queries missing from registry snapshot")
	}
}
