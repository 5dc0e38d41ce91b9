// Resource-exhaustion mapping tests for the solver pool: every
// pipeline stage that can hit a limit must surface it as
// errors.Is(err, solver.ErrLimit) with fault class solver-limit, and
// the memo table must replay deterministic exhaustion while never
// caching transient faults (timeouts, cancellations).
package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/solver"
)

// iffChain builds Iff(v0,v1) ∧ Iff(v1,v2) ∧ ... — a single entangled
// component (every conjunct shares a variable with the next) that the
// interval fast path cannot decide and slicing cannot split, so it is
// guaranteed to reach the search with roughly one decision per variable.
func iffChain(n int) solver.Formula {
	vars := make([]solver.Formula, n+1)
	for i := range vars {
		vars[i] = solver.BoolVar{Name: "v" + string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	f := solver.Formula(solver.BoolConst{Val: true})
	for i := 0; i < n; i++ {
		f = solver.NewAnd(f, solver.Iff{X: vars[i], Y: vars[i+1]})
	}
	return f
}

// orChain builds (y0∨z0∨w0) ∧ (¬w0∨y1∨z1∨w1) ∧ ... — a single
// entangled component (each clause shares w with the next) where unit
// propagation stalls: every clause needs two decisions before it
// propagates, so n links cost at least 2n decisions.
func orChain(n int) solver.Formula {
	v := func(p string, i int) solver.Formula {
		return solver.BoolVar{Name: p + string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	f := solver.Disj(v("y", 0), v("z", 0), v("w", 0))
	for i := 1; i <= n; i++ {
		link := solver.Disj(solver.NewNot(v("w", i-1)), v("y", i), v("z", i), v("w", i))
		f = solver.NewAnd(f, link)
	}
	return f
}

// tightEngine builds an engine whose solver carries the given bounds,
// so pipeline-stage limit handling can be exercised without huge
// formulas.
func tightEngine(t *testing.T, maxAtoms, maxDecisions int) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Options{
		NewSolver: func() *solver.Solver {
			s := solver.New()
			if maxAtoms > 0 {
				s.MaxAtoms = maxAtoms
			}
			if maxDecisions > 0 {
				s.MaxDecisions = maxDecisions
			}
			return s
		},
	})
	t.Cleanup(eng.Close)
	return eng
}

// TestDecisionBudgetMapsToErrLimit: decision-budget exhaustion
// must come back through the pipeline as ErrLimit / solver-limit, and
// it must be memoized — re-running the same query under the same
// bounds would only rediscover the same exhaustion.
func TestDecisionBudgetMapsToErrLimit(t *testing.T) {
	eng := tightEngine(t, 0, 1)
	f := orChain(2)
	_, err := eng.Sat(f)
	if err == nil {
		t.Fatal("an entangled chain under MaxDecisions=1 must exhaust the budget")
	}
	if !errors.Is(err, solver.ErrLimit) {
		t.Fatalf("err = %v, want errors.Is(err, solver.ErrLimit)", err)
	}
	if got := fault.ClassOf(err); got != fault.SolverLimit {
		t.Fatalf("fault class = %v, want solver-limit", got)
	}
	if fault.Of(err) != nil {
		t.Fatalf("plain resource exhaustion is deterministic, not a transient fault: %v", err)
	}

	// The unknown verdict must replay from the memo table.
	_, err2 := eng.Sat(f)
	if !errors.Is(err2, solver.ErrLimit) {
		t.Fatalf("memoized replay = %v, want the same ErrLimit", err2)
	}
	s := eng.Snapshot()
	if s.MemoHits == 0 {
		t.Fatalf("second identical exhausted query must memo-hit: %+v", s)
	}
	if s.SolverUnknown < 2 {
		t.Fatalf("both queries must count as unknown, got %d", s.SolverUnknown)
	}
}

// TestAtomGateMapsToErrLimit: the pre-search atom gate is a distinct
// pipeline stage; its exhaustion must classify identically.
func TestAtomGateMapsToErrLimit(t *testing.T) {
	eng := tightEngine(t, 1, 0)
	_, err := eng.Sat(iffChain(4)) // 5 atoms over MaxAtoms=1
	if !errors.Is(err, solver.ErrLimit) {
		t.Fatalf("err = %v, want errors.Is(err, solver.ErrLimit)", err)
	}
	if got := fault.ClassOf(err); got != fault.SolverLimit {
		t.Fatalf("fault class = %v, want solver-limit", got)
	}
	if fault.Of(err) != nil {
		t.Fatalf("atom-gate exhaustion must not be a transient fault: %v", err)
	}
}

// TestCancellationNotMemoized is the soundness half of unknown-caching:
// a cancellation verdict depends on wall clock, so caching it would
// turn a transient abort into a permanent wrong answer. Cancel, query,
// swap in a live context, and the same query must produce the real
// verdict.
func TestCancellationNotMemoized(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Options{Context: ctx})
	defer eng.Close()

	f := iffChain(4)
	_, err := eng.Sat(f)
	if got := fault.ClassOf(err); got != fault.Canceled {
		t.Fatalf("canceled-context query: fault class = %v (err %v), want canceled", got, err)
	}
	if fault.Of(err) == nil {
		t.Fatalf("cancellation must be a classified transient fault: %v", err)
	}

	eng.SetContext(context.Background())
	sat, err := eng.Sat(f)
	if err != nil {
		t.Fatalf("live-context re-query failed — the cancellation was memoized: %v", err)
	}
	if !sat {
		t.Fatal("an iff-chain is satisfiable; the degraded verdict leaked into the memo")
	}
	if hits := eng.Snapshot().MemoHits; hits != 0 {
		t.Fatalf("nothing should have been memoized before the real verdict, got %d hits", hits)
	}
}

// TestSolverTimeoutClassifiesTimeout: the per-query timeout wires a
// deadline context into each pooled solve; an already-expired budget
// must classify as a timeout fault and stay out of the memo.
func TestSolverTimeoutClassifiesTimeout(t *testing.T) {
	eng := engine.New(engine.Options{SolverTimeout: time.Nanosecond})
	defer eng.Close()

	_, err := eng.Sat(iffChain(4))
	if got := fault.ClassOf(err); got != fault.Timeout {
		t.Fatalf("fault class = %v (err %v), want timeout", got, err)
	}
	if fault.Of(err) == nil {
		t.Fatalf("a timeout must be a classified transient fault: %v", err)
	}
	_, err2 := eng.Sat(iffChain(4))
	if fault.ClassOf(err2) != fault.Timeout {
		t.Fatalf("re-query = %v; the timeout verdict must not have been memoized", err2)
	}
	if hits := eng.Snapshot().MemoHits; hits != 0 {
		t.Fatalf("timeout verdicts must never be memoized, got %d hits", hits)
	}
}

// TestMidSearchInjectionReachesDecisionLoop: the mid-search injection
// site sits on the CDCL decision-loop poll (every 32 decisions or
// conflicts); a long entangled chain must trip it and surface the
// planned fault class. CDCL is the one search core, so it is the one
// subtest.
func TestMidSearchInjectionReachesDecisionLoop(t *testing.T) {
	t.Run("cdcl", func(t *testing.T) {
		inj := fault.NewInjector(1).Plan(fault.MidSearch, fault.Plan{Class: fault.SolverLimit})
		eng := engine.New(engine.Options{FaultInjector: inj})
		defer eng.Close()

		// ~80 decisions (two per link): comfortably past the
		// 32-decision poll cadence.
		_, err := eng.Sat(orChain(40))
		if got := fault.ClassOf(err); got != fault.SolverLimit {
			t.Fatalf("fault class = %v (err %v), want the injected solver-limit", got, err)
		}
		if fault.Of(err) == nil {
			t.Fatalf("injected faults are transient and must not be memoizable: %v", err)
		}
		if n := inj.Counters().Snapshot().Of(fault.SolverLimit); n == 0 {
			t.Fatal("the mid-search site never fired")
		}
		if hits := eng.Snapshot().MemoHits; hits != 0 {
			t.Fatalf("injected faults must never be memoized, got %d hits", hits)
		}
	})
}
