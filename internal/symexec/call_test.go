package symexec

import (
	"sort"
	"testing"

	"mix/internal/engine"
	"mix/internal/pointer"
)

// Tests for the call-evaluation paths (evalCall / evalCallTo /
// evalCallRest): argument order and state threading, arguments whose
// evaluation forks, function pointers resolving to more than one
// target, and recursion against the depth bound.

func TestArgumentEvaluationOrder(t *testing.T) {
	// C-style left-to-right with state threading: bump() runs before
	// the second argument reads g0, so both arguments see the bumped
	// value (0 + 1) — a stale read would leave the second at 0.
	_, outs := run(t, `
int g0;
int bump(void) { g0 = g0 + 1; return g0; }
int add(int a, int b) { return a + b; }
int f(void) {
  g0 = 0;
  return add(bump(), g0);
}
`, "f")
	if len(outs) != 1 {
		t.Fatalf("paths = %d", len(outs))
	}
	if got := outs[0].Ret.String(); got != "((0 + 1) + (0 + 1))" {
		t.Fatalf("ret = %s, want ((0 + 1) + (0 + 1)): second argument read a stale global", got)
	}
}

func TestForkingArgumentForksCall(t *testing.T) {
	// abs_(n) forks, so evalCallTo must hand the remaining arguments
	// to evalCallRest and run the call once per argument path.
	_, outs := run(t, `
int abs_(int n) { if (n < 0) { return 0 - n; } return n; }
int add(int a, int b) { return a + b; }
int f(int n) { return add(abs_(n), 1); }
`, "f")
	if len(outs) != 2 {
		t.Fatalf("paths = %d, want one call per argument path", len(outs))
	}
}

func TestBothArgumentsForking(t *testing.T) {
	// Two forking arguments compose: evalCallRest recurses over the
	// second argument under each path of the first, and each of the
	// four (sign of n) x (sign of m) combinations keeps the argument
	// values from its own path.
	_, outs := run(t, `
int abs_(int n) { if (n < 0) { return 0 - n; } return n; }
int add(int a, int b) { return a + b; }
int f(int n, int m) { return add(abs_(n), abs_(m)); }
`, "f")
	if len(outs) != 4 {
		t.Fatalf("paths = %d, want 4 argument-path combinations", len(outs))
	}
}

func TestFnPointerForkedTargets(t *testing.T) {
	// The pointer is concrete on each forked path; the indirect call
	// must resolve per path without an UnsupportedFnPtr report.
	x, outs := run(t, `
int r0;
void one(void) { r0 = 1; }
void two(void) { r0 = 2; }
fnptr cb;
int f(int n) {
  if (n > 0) { cb = one; } else { cb = two; }
  (*cb)();
  return r0;
}
`, "f")
	if len(x.ReportsOf(UnsupportedFnPtr)) != 0 {
		t.Fatalf("concrete per-path fn ptr should resolve: %v", x.Reports)
	}
	rets := retStrings(outs)
	if len(rets) != 2 || rets[0] != "1" || rets[1] != "2" {
		t.Fatalf("returns = %v, want [1 2]", rets)
	}
}

func TestFnPointerMergedTargets(t *testing.T) {
	// Under joins-mode merging the two assignments fold into one
	// guarded value, so a single state's call must enumerate the
	// cases, check each guard's feasibility, and execute both
	// targets.
	x, outs := runMerged(t, `
int r0;
void one(void) { r0 = 1; }
void two(void) { r0 = 2; }
fnptr cb;
int f(int n) {
  if (n > 0) { cb = one; } else { cb = two; }
  (*cb)();
  return r0;
}
`, "f", engine.MergeJoins)
	if len(x.ReportsOf(UnsupportedFnPtr)) != 0 {
		t.Fatalf("merged fn ptr cases should resolve: %v", x.Reports)
	}
	rets := retStrings(outs)
	if len(rets) != 2 || rets[0] != "1" || rets[1] != "2" {
		t.Fatalf("returns = %v, want both targets executed: [1 2]", rets)
	}
}

func TestFnPointerInfeasibleTargetPruned(t *testing.T) {
	// Both branches assign, but the path condition at the call site
	// contradicts the `two` case: only `one` may run.
	_, outs := runMerged(t, `
int r0;
void one(void) { r0 = 1; }
void two(void) { r0 = 2; }
fnptr cb;
int f(int n) {
  if (n > 0) { cb = one; } else { cb = two; }
  if (n > 5) { (*cb)(); return r0; }
  return 0;
}
`, "f", engine.MergeJoins)
	for _, o := range outs {
		if o.Ret.String() == "2" {
			t.Fatalf("infeasible target executed: %v", outs)
		}
	}
}

func TestRecursionDepthBoundDegrades(t *testing.T) {
	// Unbounded recursion must hit MaxDepth and degrade to an
	// Imprecision report with a havoc return — never crash or hang.
	prog := mustParse(`
int r(int n) {
  if (n > 0) { return r(n - 1) + 1; }
  return 0;
}
int f(int n) { return r(n); }
`)
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	x.MaxDepth = 4
	outs, err := x.Run("f")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(outs) == 0 {
		t.Fatal("no outcomes survived the depth bound")
	}
	if !hasReport(x, Imprecision, "call depth bound reached at r") {
		t.Fatalf("expected depth-bound imprecision, got %v", x.Reports)
	}
}

func TestSelfRecursionAlwaysBounded(t *testing.T) {
	// Recursion with no reachable base case: every path ends at the
	// bound, and each one still produces an outcome.
	prog := mustParse(`
int r(int n) { return r(n); }
int f(int n) { return r(n); }
`)
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	x.MaxDepth = 3
	outs, err := x.Run("f")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("paths = %d, want 1", len(outs))
	}
	if !hasReport(x, Imprecision, "call depth bound reached at r") {
		t.Fatalf("expected depth-bound imprecision, got %v", x.Reports)
	}
}

func retStrings(outs []Outcome) []string {
	var rets []string
	for _, o := range outs {
		rets = append(rets, o.Ret.String())
	}
	sort.Strings(rets)
	return rets
}
