package core

import (
	"fmt"
	"testing"

	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// The exhaustiveness premise of TSYMBLOCK is decided on the prefix-
// factored disjunction of the block's guards (sym.Translator.
// Disjunction). These tests hold it to the flat disjunction of
// per-guard translations, which is kept here only as the oracle: on
// every guard set, ¬D must be satisfiable for one exactly when it is
// for the other, each decided on a fresh solver.

// counterexample reports whether ¬d is satisfiable, i.e. whether the
// guards behind d are not exhaustive.
func counterexample(t *testing.T, d solver.Formula) bool {
	t.Helper()
	sat, err := solver.New().Sat(solver.NewNot(d))
	if err != nil {
		t.Fatalf("exhaustiveness query: %v", err)
	}
	return sat
}

// flatCounterexample is the oracle: the flat disjunction of each
// guard's own translation.
func flatCounterexample(t *testing.T, guards []sym.Val) bool {
	t.Helper()
	tr := sym.NewTranslator()
	fs := make([]solver.Formula, len(guards))
	for i, g := range guards {
		f, err := tr.Formula(g)
		if err != nil {
			t.Fatalf("translating %s: %v", g, err)
		}
		fs[i] = f
	}
	return counterexample(t, solver.Disj(fs...))
}

// factoredCounterexample decides the same question on the factored
// disjunction core and signs use.
func factoredCounterexample(t *testing.T, guards []sym.Val) bool {
	t.Helper()
	d, err := sym.NewTranslator().Disjunction(guards)
	if err != nil {
		t.Fatalf("Disjunction: %v", err)
	}
	return counterexample(t, d)
}

// sameExhaustiveness fails the test unless the factored and flat
// disjunctions agree on guards, and returns whether they are
// exhaustive.
func sameExhaustiveness(t *testing.T, name string, guards []sym.Val) bool {
	t.Helper()
	factored, flat := factoredCounterexample(t, guards), flatCounterexample(t, guards)
	if factored != flat {
		t.Errorf("%s: factored disjunction says counterexample=%v, flat says %v (guards %v)",
			name, factored, flat, guards)
	}
	return !flat
}

// withoutLeaf returns guards minus the i-th.
func withoutLeaf(guards []sym.Val, i int) []sym.Val {
	out := append([]sym.Val(nil), guards[:i]...)
	return append(out, guards[i+1:]...)
}

// reversed returns guards in reverse order, so leaves that shared a
// prefix in run order meet the trie in the other order.
func reversed(guards []sym.Val) []sym.Val {
	out := make([]sym.Val, len(guards))
	for i, g := range guards {
		out[len(guards)-1-i] = g
	}
	return out
}

// blockGuards runs e as a top-level symbolic block of c under env and
// returns the guards tSymBlock's exhaustiveness check sees: those of
// the surviving results, in run order.
func blockGuards(t *testing.T, c *Checker, env *types.Env, e lang.Expr) []sym.Val {
	t.Helper()
	senv := sym.EmptyEnv()
	for _, name := range env.Names() {
		ty, _ := env.Lookup(name)
		senv = senv.Extend(name, c.exec.Fresh.Var(ty, name))
	}
	rs, err := c.exec.Run(senv, c.exec.InitialState(), e)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var guards []sym.Val
	for _, r := range rs {
		if r.Err == nil {
			guards = append(guards, r.State.Guard)
		}
	}
	return guards
}

func boolEnv(names ...string) *types.Env {
	env := types.EmptyEnv()
	for _, n := range names {
		env = env.Extend(n, types.Bool)
	}
	return env
}

// corpusEnv builds a typing environment from corpus name/type pairs.
func corpusEnv(t *testing.T, pairs [][2]string) *types.Env {
	t.Helper()
	env := types.EmptyEnv()
	for _, p := range pairs {
		te, err := lang.ParseType(p[1])
		if err != nil {
			t.Fatal(err)
		}
		ty, err := types.FromExpr(te)
		if err != nil {
			t.Fatal(err)
		}
		env = env.Extend(p[0], ty)
	}
	return env
}

// checkRunGuards compares both forms on a run's guard set, its
// reversal, and every one-leaf-removed subset. When the run explored
// an exhaustive block completely (accepted), the full set must be
// exhaustive and, when every leaf is feasible, each subset must not be.
func checkRunGuards(t *testing.T, name string, guards []sym.Val, accepted, allFeasible bool) {
	t.Helper()
	if !sameExhaustiveness(t, name, guards) && accepted {
		t.Errorf("%s: the guards of a complete run must be exhaustive", name)
	}
	sameExhaustiveness(t, name+"/reversed", reversed(guards))
	for i := range guards {
		if len(guards) > 16 && i%(len(guards)/8) != 0 {
			continue // a sample of removals is enough on big trees
		}
		if !sameExhaustiveness(t, fmt.Sprintf("%s/without-%d", name, i), withoutLeaf(guards, i)) {
			continue
		}
		if accepted && allFeasible {
			t.Errorf("%s: dropping leaf %d must leave the guards non-exhaustive", name, i)
		}
	}
}

// exhaustiveModes are the exploration modes whose block guards the
// factored form must agree with the flat form on.
var exhaustiveModes = []struct {
	name string
	opts Options
}{
	{"fork-merge-off", Options{}},
	{"fork-merge-joins", Options{Merge: engine.MergeJoins}},
	{"defer", Options{IfMode: sym.DeferIf}},
}

func TestFactoredExhaustivenessMatchesFlatOnLadders(t *testing.T) {
	for _, m := range exhaustiveModes {
		for n := 1; n <= 8; n++ {
			src, env := corpus.Ladder(n)
			c := New(m.opts)
			guards := blockGuards(t, c, corpusEnv(t, env), lang.MustParse(src))
			checkRunGuards(t, fmt.Sprintf("%s/ladder-%d", m.name, n), guards, true, true)
		}
		for n := 2; n <= 5; n++ {
			// The plain deep conditional's ill-typed arm sits behind an
			// infeasible guard and leaves the surviving guards; they are
			// exhaustive only together with its refutation. Deferring
			// rejects the block outright (no surviving paths).
			plain, _, env := corpus.DeepConditionals(n)
			_, err := New(m.opts).CheckSymbolic(corpusEnv(t, env), lang.MustParse(plain))
			c := New(m.opts)
			guards := blockGuards(t, c, corpusEnv(t, env), lang.MustParse(plain))
			checkRunGuards(t, fmt.Sprintf("%s/deep-%d", m.name, n), guards, err == nil, false)
		}
	}
}

func TestFactoredExhaustivenessMatchesFlatOnHandWrittenTrees(t *testing.T) {
	// A balanced two-fork block, a single fork, ladder-3, and a forked
	// let whose body forks again on other variables.
	programs := []struct {
		src   string
		names []string
	}{
		{"if b1 then (if b2 then 1 else 2) else (if b2 then 3 else 4)", []string{"b1", "b2"}},
		{"if b then 1 else 2", []string{"b"}},
		{corpusLadderSrc(3), []string{"b0", "b1", "b2"}},
		{"let t = (if a then 1 else 2) in if b then t else (if c then 3 else 4)", []string{"a", "b", "c"}},
	}
	for _, m := range exhaustiveModes {
		for pi, p := range programs {
			c := New(m.opts)
			guards := blockGuards(t, c, boolEnv(p.names...), lang.MustParse(p.src))
			checkRunGuards(t, fmt.Sprintf("%s/program-%d", m.name, pi), guards, true, true)
		}
	}
}

func corpusLadderSrc(n int) string {
	src, _ := corpus.Ladder(n)
	return src
}

func TestFactoredExhaustivenessMatchesFlatOnLanggen(t *testing.T) {
	for _, mode := range []sym.IfMode{sym.ForkIf, sym.DeferIf} {
		gen := langgen.New(0xD15, langgen.DefaultConfig())
		sets, forked := 0, 0
		for i := 0; i < 400; i++ {
			prog := gen.Closed()
			c := New(Options{IfMode: mode})
			guards := blockGuards(t, c, types.EmptyEnv(), prog)
			if len(guards) == 0 {
				continue
			}
			sets++
			if len(guards) > 1 {
				forked++
			}
			name := fmt.Sprintf("mode-%d/program-%d", mode, i)
			sameExhaustiveness(t, name, guards)
			sameExhaustiveness(t, name+"/reversed", reversed(guards))
			sameExhaustiveness(t, name+"/without-0", withoutLeaf(guards, 0))
		}
		// Deferring merges every conditional, so only forking yields
		// multi-guard sets.
		if sets < 100 || (mode == sym.ForkIf && forked < 20) {
			t.Fatalf("mode %d: %d langgen programs produced guards, %d of them several", mode, sets, forked)
		}
	}
}

// Hand-built guard lists reach the trie shapes no fork tree produces:
// a guard that is a strict prefix of another, duplicates, shared
// prefixes that are not adjacent in the list.
func TestFactoredExhaustivenessMatchesFlatOnHandBuiltGuards(t *testing.T) {
	fresh := sym.NewFresh()
	a := fresh.Var(types.Bool, "a")
	b := fresh.Var(types.Bool, "b")
	c := fresh.Var(types.Bool, "c")
	x := fresh.Var(types.Int, "x")
	and := func(vs ...sym.Val) sym.Val {
		g := sym.TrueVal
		for _, v := range vs {
			g = sym.MkAnd(g, v)
		}
		return g
	}
	not := sym.MkNot
	neg := sym.Val{U: sym.LtOp{X: x, Y: sym.IntVal(0)}, T: types.Bool}
	zero := sym.Val{U: sym.EqOp{X: x, Y: sym.IntVal(0)}, T: types.Bool}
	pos := sym.Val{U: sym.LtOp{X: sym.IntVal(0), Y: x}, T: types.Bool}
	cases := []struct {
		name       string
		guards     []sym.Val
		exhaustive bool
	}{
		{"empty", nil, false},
		{"true", []sym.Val{sym.TrueVal}, true},
		{"true-beside-a", []sym.Val{a, sym.TrueVal}, true},
		{"fork", []sym.Val{a, not(a)}, true},
		{"fork-missing-leaf", []sym.Val{a}, false},
		{"siblings-differ", []sym.Val{and(a, b), and(a, c), and(not(a), b), and(not(a), not(b))}, false},
		{"duplicates", []sym.Val{and(a, b), and(a, b), and(a, not(b)), not(a), not(a)}, true},
		{"strict-prefix-first", []sym.Val{a, and(a, b), not(a)}, true},
		{"strict-prefix-last", []sym.Val{and(a, b), not(a), a}, true},
		{"strict-prefix-deep", []sym.Val{and(a, b, c), and(a, b), and(a, not(b)), not(a)}, true},
		{"strict-prefix-uncovered", []sym.Val{a, and(a, b)}, false},
		{"non-adjacent-prefixes", []sym.Val{and(a, b), and(not(a), c), and(a, not(b)), and(not(a), not(c))}, true},
		{"non-adjacent-missing-leaf", []sym.Val{and(a, b), and(not(a), c), and(a, not(b))}, false},
		{"one-leaf-removed", []sym.Val{and(a, b), and(a, not(b)), and(not(a), b)}, false},
		{"ints", []sym.Val{neg, and(not(neg), zero), and(not(neg), not(zero))}, true},
		{"ints-by-sign", []sym.Val{neg, zero, pos}, true},
		{"ints-gap", []sym.Val{neg, pos}, false},
		{"ints-dead-leaf", []sym.Val{and(neg, pos), not(neg)}, false},
		{"mixed-depths", []sym.Val{and(a, neg), and(a, not(neg), b), and(a, not(neg), not(b)), and(not(a), c, zero), and(not(a), c, not(zero)), and(not(a), not(c))}, true},
	}
	for _, tc := range cases {
		for _, order := range []string{"", "/reversed"} {
			guards := tc.guards
			if order != "" {
				guards = reversed(guards)
			}
			if got := sameExhaustiveness(t, tc.name+order, guards); got != tc.exhaustive {
				t.Errorf("%s%s: exhaustive = %v, want %v", tc.name, order, got, tc.exhaustive)
			}
		}
	}
}
