// Chaos tests for the degradation ladder: every fault class — expired
// deadline, cancellation, path budget, and injected step-budget,
// solver-limit, and worker-panic faults — must produce the same
// degraded-but-sound verdict run after run, with the fault class and
// the tripped budget named in the diagnostics.
package engine_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"mix"
	"mix/internal/corpus"
	"mix/internal/fault"
)

// chaosVerdict is the externally observable outcome tuple the
// run-against-run determinism assertions compare.
type chaosVerdict struct {
	degraded bool
	class    string
	typ      string
	errMsg   string
}

// runChaos checks src symbolically on an engine armed by configure.
func runChaos(t *testing.T, src string, envPairs [][2]string, configure func(*mix.Config)) (chaosVerdict, mix.Result) {
	t.Helper()
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	cfg := mix.Config{Mode: mix.StartSymbolic, Env: env, Workers: 1}
	configure(&cfg)
	res := mix.Check(src, cfg)
	v := chaosVerdict{degraded: res.Degraded, class: res.Fault, typ: res.Type}
	if res.Err != nil {
		v.errMsg = res.Err.Error()
	}
	return v, res
}

// TestChaosFaultClassesDeterministic runs each scenario on the ladder,
// except solver-limit: a ladder asks the solver nothing (its forks cover
// the block), so that one runs the plain deep conditional, whose
// refuted arm takes one query.
func TestChaosFaultClassesDeterministic(t *testing.T) {
	deep, _, deepEnv := corpus.DeepConditionals(8)
	scenarios := []struct {
		name   string
		class  string
		detail string // required substring of the degradation diagnostic
		// configure arms the scenario; called once per run so stateful
		// injectors are never shared between runs.
		configure func(*mix.Config)
	}{
		{"timeout", "timeout", "deadline=1ns", func(c *mix.Config) {
			c.Deadline = time.Nanosecond
		}},
		{"canceled", "canceled", "canceled", func(c *mix.Config) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c.Context = ctx
		}},
		{"path-budget", "path-budget", "max-paths=4", func(c *mix.Config) {
			c.MaxPaths = 4
		}},
		{"step-budget", "step-budget", "injected", func(c *mix.Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreFork, fault.Plan{Class: fault.StepBudget})
		}},
		{"solver-limit", "solver-limit", "injected", func(c *mix.Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreSolve, fault.Plan{Class: fault.SolverLimit})
		}},
		{"worker-panic", "worker-panic", "injected", func(c *mix.Config) {
			c.FaultInjector = fault.NewInjector(1).
				Plan(fault.PreFork, fault.Plan{Count: 1, Panic: true})
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var verdicts []chaosVerdict
			src, envPairs := corpus.Ladder(8)
			if sc.class == "solver-limit" {
				src, envPairs = deep, deepEnv
			}
			for run := 0; run < 2; run++ {
				v, res := runChaos(t, src, envPairs, sc.configure)
				if res.Err != nil {
					t.Fatalf("run %d: fault must degrade, not reject: %v", run, res.Err)
				}
				if !v.degraded {
					t.Fatalf("run %d: expected a degraded verdict, certified %q instead", run, v.typ)
				}
				if v.class != sc.class {
					t.Fatalf("run %d: fault class = %q, want %q (diagnostic: %s)",
						run, v.class, sc.class, res.FaultDetail)
				}
				if v.typ != "" {
					t.Fatalf("run %d: a degraded check must not certify a type, got %q", run, v.typ)
				}
				if !strings.Contains(res.FaultDetail, sc.detail) {
					t.Fatalf("run %d: diagnostic %q must name %q", run, res.FaultDetail, sc.detail)
				}
				verdicts = append(verdicts, v)
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("verdict differs run to run: %+v vs %+v", verdicts[0], verdicts[1])
			}
		})
	}
}

// TestExpiredDeadlineTerminatesPromptly is the acceptance criterion in
// the small: an already-expired deadline must stop a 1024-path run at
// its first cooperative poll and return a degraded verdict — never a
// hang, never a panic.
func TestExpiredDeadlineTerminatesPromptly(t *testing.T) {
	src, envPairs := corpus.Ladder(10)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	start := time.Now()
	res := mix.Check(src, mix.Config{
		Mode: mix.StartSymbolic, Env: env, Workers: 1, Deadline: time.Nanosecond,
	})
	elapsed := time.Since(start)
	if res.Err != nil {
		t.Fatalf("expired deadline must degrade, not reject: %v", res.Err)
	}
	if !res.Degraded || res.Fault != "timeout" {
		t.Fatalf("want a timeout-degraded verdict, got %+v", res)
	}
	if res.Timeouts == 0 {
		t.Fatal("the timeout must be recorded in the fault counters")
	}
	// Generous bound: the run should stop at its first poll, orders of
	// magnitude under this; the bound only guards against a hang.
	if elapsed > 30*time.Second {
		t.Fatalf("expired-deadline run took %v; degradation must be prompt", elapsed)
	}
}

// TestCorePathBudgetDegradesCheck: a path budget below the program's
// path count degrades the check, naming the budget, and certifies no
// type.
func TestCorePathBudgetDegradesCheck(t *testing.T) {
	src, envPairs := corpus.Ladder(8) // 256 paths, budget 16
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	res := mix.Check(src, mix.Config{Mode: mix.StartSymbolic, Env: env, Workers: 1, MaxPaths: 16})
	if res.Err != nil {
		t.Fatalf("path budget must degrade, not reject: %v", res.Err)
	}
	if !res.Degraded {
		t.Fatal("path budget must surface as a degraded (uncertified) result")
	}
	if res.Fault != "path-budget" {
		t.Fatalf("fault class = %q, want path-budget", res.Fault)
	}
	if !strings.Contains(res.FaultDetail, "max-paths=16") {
		t.Fatalf("diagnostic must name the tripped budget: %q", res.FaultDetail)
	}
	if res.Type != "" {
		t.Fatalf("a degraded check must not certify a type, got %q", res.Type)
	}
}

// TestChaosSeededChanceReproducible drives the probabilistic injection
// mode: the same seed must produce byte-identical verdicts run over
// run. It runs the plain deep conditional, whose refuted arm reaches
// the pre-solve injection site; a ladder sends no query.
func TestChaosSeededChanceReproducible(t *testing.T) {
	deep, _, deepEnv := corpus.DeepConditionals(8)
	run := func() (chaosVerdict, mix.Result) {
		return runChaos(t, deep, deepEnv, func(c *mix.Config) {
			c.FaultInjector = fault.NewInjector(42).
				Chance(fault.PreSolve, 0.3, fault.SolverLimit)
		})
	}
	v1, _ := run()
	v2, r2 := run()
	if v1 != v2 {
		t.Fatalf("seeded chaos diverged: %+v vs %+v (detail %s)", v1, v2, r2.FaultDetail)
	}
}
