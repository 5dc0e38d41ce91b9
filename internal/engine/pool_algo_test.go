package engine

import (
	"sync/atomic"
	"testing"

	"mix/internal/solver"
)

// capturePool builds a 1-worker engine whose pool reports every solver
// it constructs, so tests can inspect pooled state without relying on
// sync.Pool round-trips (which -race deliberately randomizes).
func capturePool(t *testing.T, opts Options) (*Engine, *[]*solver.Solver) {
	t.Helper()
	captured := &[]*solver.Solver{}
	opts.Workers = 1
	opts.NewSolver = func() *solver.Solver {
		s := solver.New()
		*captured = append(*captured, s)
		return s
	}
	e := New(opts)
	t.Cleanup(e.Close)
	return e, captured
}

// TestPoolFlushResetsSolvers: pooled solvers keep incremental CDCL
// state (learned clauses, cached root encodings) across queries, but a
// cache flush marks "start over" — the next borrow must Reset and
// adopt the new flush epoch, or stale encodings would outlive the
// cache generation that justified them.
func TestPoolFlushResetsSolvers(t *testing.T) {
	e, captured := capturePool(t, Options{})
	p := e.Pool()

	q := []solver.Formula{vle("a", "b")}
	if _, _, err := p.solve(q, false); err != nil {
		t.Fatal(err)
	}
	if len(*captured) == 0 {
		t.Fatal("the solve never constructed a pooled solver")
	}
	for i, s := range *captured {
		if s.Gen != 0 {
			t.Fatalf("pre-flush solver %d: epoch = %d, want 0", i, s.Gen)
		}
	}

	p.cache.Flush()
	sat, _, err := p.solve(q, false)
	if err != nil || !sat {
		t.Fatalf("post-flush solve: sat=%v err=%v", sat, err)
	}
	// Every solver the post-flush solve actually borrowed must carry
	// the new epoch; solvers sync.Pool dropped in between never served
	// it and legitimately keep the old tag.
	want := uint64(p.cache.flushes.Load())
	if want == 0 {
		t.Fatal("flush was not counted")
	}
	stamped := 0
	for _, s := range *captured {
		if s.Gen == want {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatalf("no pooled solver adopted flush epoch %d", want)
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
	var built atomic.Int64
	reference := func() *solver.Solver {
		built.Add(1)
		return solver.NewReference()
	}
	for qi, q := range queries {
		var verdicts []bool
		for _, o := range []Options{{Workers: 1}, {Workers: 1, NewSolver: reference}} {
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
	if built.Load() == 0 {
		t.Fatal("the pool never built a reference solver")
	}
}
