// Chaos tests for the degradation ladder: every fault class — expired
// deadline, cancellation, path budget, and injected step-budget,
// solver-limit, and worker-panic faults — must produce the same
// degraded-but-sound verdict whether exploration runs on one worker or
// four, with the fault class and the tripped budget named in the
// diagnostics. Run under -race: the injection points fire on worker
// goroutines.
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
// workers=1-vs-N determinism assertions compare.
type chaosVerdict struct {
	degraded bool
	class    string
	typ      string
	errMsg   string
}

func runLadderChaos(t *testing.T, workers int, configure func(*mix.Config)) (chaosVerdict, mix.Result) {
	t.Helper()
	src, envPairs := corpus.Ladder(8)
	env := map[string]string{}
	for _, p := range envPairs {
		env[p[0]] = p[1]
	}
	cfg := mix.Config{Mode: mix.StartSymbolic, Env: env, Workers: workers}
	configure(&cfg)
	res := mix.Check(src, cfg)
	v := chaosVerdict{degraded: res.Degraded, class: res.Fault, typ: res.Type}
	if res.Err != nil {
		v.errMsg = res.Err.Error()
	}
	return v, res
}

func TestChaosFaultClassesDeterministic(t *testing.T) {
	scenarios := []struct {
		name   string
		class  string
		detail string // required substring of the degradation diagnostic
		// configure arms the scenario; called once per worker count so
		// stateful injectors are never shared between runs.
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
			for _, workers := range []int{1, 4} {
				v, res := runLadderChaos(t, workers, sc.configure)
				if res.Err != nil {
					t.Fatalf("workers=%d: fault must degrade, not reject: %v", workers, res.Err)
				}
				if !v.degraded {
					t.Fatalf("workers=%d: expected a degraded verdict, certified %q instead", workers, v.typ)
				}
				if v.class != sc.class {
					t.Fatalf("workers=%d: fault class = %q, want %q (diagnostic: %s)",
						workers, v.class, sc.class, res.FaultDetail)
				}
				if v.typ != "" {
					t.Fatalf("workers=%d: a degraded check must not certify a type, got %q", workers, v.typ)
				}
				if !strings.Contains(res.FaultDetail, sc.detail) {
					t.Fatalf("workers=%d: diagnostic %q must name %q", workers, res.FaultDetail, sc.detail)
				}
				verdicts = append(verdicts, v)
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("verdict differs across worker counts: %+v vs %+v", verdicts[0], verdicts[1])
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
		Mode: mix.StartSymbolic, Env: env, Workers: 4, Deadline: time.Nanosecond,
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

// TestChaosSeededChanceReproducible drives the probabilistic injection
// mode on a single worker: the same seed must produce byte-identical
// verdicts run over run.
func TestChaosSeededChanceReproducible(t *testing.T) {
	run := func() (chaosVerdict, mix.Result) {
		return runLadderChaos(t, 1, func(c *mix.Config) {
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
