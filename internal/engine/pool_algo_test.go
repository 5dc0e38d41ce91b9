package engine

import (
	"fmt"
	"runtime"
	"testing"

	"mix/internal/solver"
)

// capturePool builds an engine whose pool reports every solver it
// constructs, so tests can inspect the run's solver state directly.
func capturePool(t *testing.T, opts Options) (*Engine, *[]*solver.Solver) {
	t.Helper()
	captured := &[]*solver.Solver{}
	opts.NewSolver = func() *solver.Solver {
		s := solver.New()
		*captured = append(*captured, s)
		return s
	}
	e := New(opts)
	t.Cleanup(e.Close)
	return e, captured
}

// TestOneSolverPerRun: a run takes one solver at its first search and
// keeps it, so four searches with garbage collections between them
// still build exactly one solver and its CDCL state stays warm.
func TestOneSolverPerRun(t *testing.T) {
	e, captured := capturePool(t, Options{})
	for i := 0; i < 4; i++ {
		if i > 0 {
			runtime.GC()
			runtime.GC()
		}
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		contradiction := solver.NewAnd(
			solver.Lt{X: solver.IntVar{Name: a}, Y: solver.IntVar{Name: b}},
			solver.Lt{X: solver.IntVar{Name: b}, Y: solver.IntVar{Name: a}})
		if sat, err := e.Sat(contradiction); err != nil || sat {
			t.Fatalf("query %d = %v, %v; want unsat", i, sat, err)
		}
	}
	if s := e.Snapshot(); s.MemoMisses != 4 || s.CexHits != 0 {
		t.Fatalf("stats = %+v; want all four queries to reach the search", s)
	}
	if n := len(*captured); n != 1 {
		t.Fatalf("built %d solvers for one run, want 1", n)
	}
}

// TestPoolFlushResetsSolvers: the run's solver keeps incremental CDCL
// state (learned clauses, cached root encodings) across queries, but a
// cache flush marks "start over" — the next query must Reset it and
// adopt the new flush epoch, or stale encodings would outlive the
// cache generation that justified them.
func TestPoolFlushResetsSolvers(t *testing.T) {
	e, captured := capturePool(t, Options{})
	p := e.Pool()

	q := []solver.Formula{vle("a", "b")}
	if _, _, err := p.solve(q, false); err != nil {
		t.Fatal(err)
	}
	if len(*captured) != 1 || (*captured)[0].Gen != 0 {
		t.Fatalf("pre-flush: %d solvers built, want one at epoch 0", len(*captured))
	}

	p.cache.Flush()
	sat, _, err := p.solve(q, false)
	if err != nil || !sat {
		t.Fatalf("post-flush solve: sat=%v err=%v", sat, err)
	}
	want := uint64(p.cache.flushes.Load())
	if want == 0 {
		t.Fatal("flush was not counted")
	}
	if len(*captured) != 1 || (*captured)[0].Gen != want {
		t.Fatalf("post-flush: %d solvers built; want the run's one solver at flush epoch %d", len(*captured), want)
	}
}

// TestPoolAlgoVerdictsAgree: the same queries through the default
// CDCL pool, through a pool running the chronological DPLL reference
// (solver.NewReference), and on a direct reference solver must produce
// identical verdicts. The pooled reference leg counts the solvers its
// seam builds, so a pool that silently falls back to solver.New cannot
// pass; the direct leg calls NewReference itself.
func TestPoolAlgoVerdictsAgree(t *testing.T) {
	queries := []solver.Formula{
		vle("a", "b"),
		solver.NewAnd(vle("a", "b"), solver.NewAnd(vle("b", "c"), solver.Lt{X: solver.IntVar{Name: "c"}, Y: solver.IntVar{Name: "a"}})),
		solver.NewAnd(bvar("p"), solver.NewNot(bvar("p"))),
		solver.NewOr(bvar("p"), solver.Eq{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 3}}),
	}
	built := 0
	reference := func() *solver.Solver {
		built++
		return solver.NewReference()
	}
	for qi, q := range queries {
		var verdicts []bool
		for _, o := range []Options{{}, {NewSolver: reference}} {
			e := New(o)
			sat, err := e.Sat(q)
			e.Close()
			if err != nil {
				t.Fatalf("query %d (pool, reference=%v): %v", qi, o.NewSolver != nil, err)
			}
			verdicts = append(verdicts, sat)
		}
		sat, err := solver.NewReference().Sat(q)
		if err != nil {
			t.Fatalf("query %d (direct reference): %v", qi, err)
		}
		verdicts = append(verdicts, sat)
		if verdicts[0] != verdicts[1] || verdicts[0] != verdicts[2] {
			t.Fatalf("query %d: verdicts diverge (cdcl pool, dpll pool, dpll direct): %v", qi, verdicts)
		}
	}
	if built == 0 {
		t.Fatal("the pool never built a reference solver")
	}
}
