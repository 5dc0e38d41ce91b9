package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mix/internal/concrete"
	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// TSYMBLOCK's premise exhaustive(g1, …, gn) is discharged by
// construction in fork mode: the leaves of a Run that did not degrade,
// ok and error alike, cover its initial guard (the cover lemma, DESIGN.md
// section 8), so tSymBlock sends no query there. These tests hold the
// executor to the lemma with the flat disjunction of the leaf guards as
// the oracle, decided by the reference solver, on a generator of
// programs with free variables (coverGen). Deferring and concolic runs
// can leave part of the guard without a leaf, and keep the query.

// coverGen decodes a stream of choices into a core-language program
// over the free variables b, c : bool and x, y : int. It aims at the
// rules that split a guard: conditionals on comparisons of x and y
// with small constants, so that nested conditions contradict each
// other (x < 0 inside 0 < x); applied conditional closures,
// (if g then (fun v -> e1) else (fun v -> e2)) e3, which fork in
// apply; typed and symbolic blocks; a write under a condition; and
// operands of the wrong type, which leave error leaves. Rarely, it
// splices a whole program of coverCorpus, whose free variables
// coverEnv declares as well. Every choice stream decodes to a
// program: choose answers 0, a leaf, once the stream runs out.
type coverGen struct {
	choose func(n int) int // a choice in [0, n)
	names  int             // binders named so far
}

// coverKind is the type a generated expression aims at: bool when
// true, int when false.
type coverKind = bool

const (
	kindInt  coverKind = false
	kindBool coverKind = true
)

// coverBinding is a let- or fun-bound variable in scope.
type coverBinding struct {
	name string
	kind coverKind
}

// coverDepth bounds the nesting of generated expressions.
const coverDepth = 4

// newRandCoverGen draws the choices from a seeded source.
func newRandCoverGen(seed int64) *coverGen {
	return &coverGen{choose: rand.New(rand.NewSource(seed)).Intn}
}

// newByteCoverGen reads one choice from each byte of data.
func newByteCoverGen(data []byte) *coverGen {
	return &coverGen{choose: func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}}
}

// program generates one program.
func (g *coverGen) program() string {
	return g.expr(coverDepth, g.choose(2) == 1, nil)
}

// expr generates an expression of kind k within depth d. One choice out
// of 32 picks the production; a leaf takes the first 12, and at depth 0
// every choice.
func (g *coverGen) expr(d int, k coverKind, sc []coverBinding) string {
	p := g.choose(32)
	if d == 0 || p < 12 {
		return g.leaf(k, sc)
	}
	d--
	switch {
	case p < 15:
		return fmt.Sprintf("(if %s then %s else %s)", g.cond(d, sc), g.expr(d, k, sc), g.expr(d, k, sc))
	case p < 17:
		ka := g.choose(2) == 1
		v, body := g.bind(ka, sc)
		return fmt.Sprintf("(let %s = %s in %s)", v, g.expr(d, ka, sc), g.expr(d, k, body))
	case p < 20:
		// An applied conditional closure: apply forks on the callee.
		ka := g.choose(2) == 1
		v, body := g.bind(ka, sc)
		return fmt.Sprintf("((if %s then (fun %s -> %s) else (fun %s -> %s)) %s)",
			g.cond(d, sc), v, g.expr(d, k, body), v, g.expr(d, k, body), g.expr(d, ka, sc))
	case p < 21:
		ka := g.choose(2) == 1
		v, body := g.bind(ka, sc)
		return fmt.Sprintf("((fun %s -> %s) %s)", v, g.expr(d, k, body), g.expr(d, ka, sc))
	case p < 24:
		if k == kindInt {
			return fmt.Sprintf("(%s + %s)", g.expr(d, kindInt, sc), g.expr(d, kindInt, sc))
		}
		return g.cond(d, sc)
	case p < 25:
		return fmt.Sprintf("{t %s t}", g.expr(d, k, sc))
	case p < 27:
		return fmt.Sprintf("{s %s s}", g.expr(d, k, sc))
	case p < 28:
		// A write under a condition: the read after it depends on the
		// path, and a write of the other kind breaks ⊢ m ok.
		v, body := g.bind(k, sc)
		return fmt.Sprintf("(let %s = ref %s in (let _ = (if %s then (%s := %s) else %s) in !%s))",
			v, g.expr(d, k, sc), g.cond(d, sc), v, g.expr(d, k != (g.choose(4) == 0), sc),
			g.expr(d, k, body), v)
	case p < 31:
		// The other kind: a type error, or an arm that disagrees.
		return g.expr(d, !k, sc)
	}
	return "(" + coverCorpus[g.choose(len(coverCorpus))] + ")"
}

// cond generates a condition, usually a comparison of an integer
// variable with a small constant or with another integer.
func (g *coverGen) cond(d int, sc []coverBinding) string {
	switch g.choose(8) {
	case 0:
		return g.leaf(kindBool, sc)
	case 1:
		return fmt.Sprintf("(not %s)", g.cond(d, sc))
	case 2:
		if d > 0 {
			return fmt.Sprintf("(%s && %s)", g.cond(d-1, sc), g.cond(d-1, sc))
		}
		return g.leaf(kindBool, sc)
	case 3:
		if d > 0 {
			return g.expr(d-1, kindBool, sc)
		}
		return g.leaf(kindBool, sc)
	case 4, 5:
		return fmt.Sprintf("(%s < %s)", g.operand(sc), g.operand(sc))
	}
	return fmt.Sprintf("(%s = %s)", g.operand(sc), g.operand(sc))
}

// operand is an integer variable in scope, or 0 or 1.
func (g *coverGen) operand(sc []coverBinding) string {
	if g.choose(3) == 0 {
		return fmt.Sprint(g.choose(2))
	}
	return g.variable(kindInt, sc)
}

// leaf is a literal or a variable of kind k.
func (g *coverGen) leaf(k coverKind, sc []coverBinding) string {
	if g.choose(2) == 0 {
		return g.variable(k, sc)
	}
	if k == kindInt {
		return fmt.Sprint(g.choose(3))
	}
	return fmt.Sprint(g.choose(2) == 0)
}

// variable picks a free or bound variable of kind k.
func (g *coverGen) variable(k coverKind, sc []coverBinding) string {
	names := []string{"x", "y"}
	if k == kindBool {
		names = []string{"b", "c"}
	}
	for _, b := range sc {
		if b.kind == k {
			names = append(names, b.name)
		}
	}
	return names[g.choose(len(names))]
}

// bind names a new variable of kind k and returns it with the scope
// that holds it.
func (g *coverGen) bind(k coverKind, sc []coverBinding) (string, []coverBinding) {
	v := fmt.Sprintf("v%d", g.names)
	g.names++
	return v, append(sc[:len(sc):len(sc)], coverBinding{v, k})
}

// deferGap is a program SEIF-DEFER's dropped arm makes unsound without
// the exhaustiveness query. At b = true the closure's body reaches
// x < 0 ∧ 0 < x (refuted) or true, so the block evaluates to a bool and
// the + fails; the deferred run drops the true arms, because their
// siblings only err, and keeps just the int leaf under ¬b.
const deferGap = "{s (if b then (fun y -> if x < y then (if y < x then 1 + true else true) else true)" +
	" else (fun y -> 5)) 0 s} + 1"

// coverCorpus are the whole programs coverGen splices: small ladders,
// both forms of small deep conditionals, the Section 2 idioms and the
// defer gap. coverEnv declares their free variables.
var coverCorpus = func() []string {
	var out []string
	for n := 1; n <= 4; n++ {
		src, _ := corpus.Ladder(n)
		out = append(out, src)
	}
	for n := 2; n <= 4; n++ {
		plain, mixed, _ := corpus.DeepConditionals(n)
		out = append(out, plain, mixed)
	}
	for _, id := range corpus.CoreIdioms {
		out = append(out, id.Source)
	}
	return append(out, deferGap)
}()

// coverEnv types coverGen's free variables and those of coverCorpus.
func coverEnv(t testing.TB) *types.Env {
	t.Helper()
	env := types.EmptyEnv().
		Extend("b", types.Bool).Extend("c", types.Bool).
		Extend("x", types.Int).Extend("y", types.Int).
		Extend("extfun", types.Fun(types.Int, types.Int))
	for i := 0; i < 4; i++ {
		env = env.Extend(fmt.Sprintf("b%d", i), types.Bool)
	}
	return env
}

// coverMode is one fork-mode configuration.
type coverMode struct {
	name string
	opts Options
}

// coverModes are the fork-mode configurations the cover lemma holds in:
// merging off or at joins, and concrete folding on or off.
var coverModes = func() []coverMode {
	var modes []coverMode
	for _, merge := range []engine.MergeMode{engine.MergeOff, engine.MergeJoins} {
		for _, nofold := range []bool{false, true} {
			modes = append(modes, coverMode{
				name: fmt.Sprintf("merge=%d/nofold=%v", merge, nofold),
				opts: Options{Merge: merge, NoConcreteFold: nofold},
			})
		}
	}
	return modes
}()

// blockLeaves runs e as a top-level symbolic block of c under env, as
// tSymBlock does, and returns the guards of all its leaves, ok and
// error, in run order, and whether the run degraded.
func blockLeaves(t testing.TB, c *Checker, env *types.Env, e lang.Expr) ([]sym.Val, bool) {
	t.Helper()
	senv := sym.EmptyEnv()
	for _, name := range env.Names() {
		ty, _ := env.Lookup(name)
		senv = senv.Extend(name, c.exec.Fresh.Var(ty, name))
	}
	before := c.exec.ImprecisionCount()
	rs, err := c.exec.Run(senv, c.exec.InitialState(), e)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	guards := make([]sym.Val, len(rs))
	for i, r := range rs {
		guards[i] = r.State.Guard
	}
	return guards, c.exec.ImprecisionCount() > before
}

// valid decides whether the flat disjunction of guards is valid, on a
// reference solver.
func valid(t testing.TB, guards []sym.Val) bool {
	t.Helper()
	tr := sym.NewTranslator()
	disj := solver.False
	for _, g := range guards {
		f, err := tr.Formula(g)
		if err != nil {
			t.Fatalf("translating %s: %v", g, err)
		}
		disj = solver.NewOr(disj, f)
	}
	ok, err := solver.NewReference().Valid(disj)
	if err != nil {
		t.Fatalf("validity of %d leaf guards: %v", len(guards), err)
	}
	return ok
}

// satisfiable decides g on a reference solver.
func satisfiable(t testing.TB, g sym.Val) bool {
	t.Helper()
	f, err := sym.NewTranslator().Formula(g)
	if err != nil {
		t.Fatalf("translating %s: %v", g, err)
	}
	ok, err := solver.NewReference().Sat(f)
	if err != nil {
		t.Fatalf("satisfiability of %s: %v", g, err)
	}
	return ok
}

// coverStats counts what checkCover checked: the runs, the distinct
// leaf sets among them, and the leaf drops that broke validity.
type coverStats struct {
	runs, sets, drops int
}

// checkCover holds every non-degraded top-level fork-mode run of src to
// the cover lemma: its leaf guards, ok and error, form a valid
// disjunction. For non-vacuity, dropping any one leaf with a
// satisfiable guard must make the disjunction invalid; fork-mode
// leaves are pairwise disjoint, so a model of the dropped guard
// falsifies every other.
func checkCover(t testing.TB, src string, st *coverStats) {
	t.Helper()
	e, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	env := coverEnv(t)
	// Modes often explore the same leaves, and a leaf set once decided
	// need not be decided again.
	decided := map[string]bool{}
	for _, m := range coverModes {
		guards, degraded := blockLeaves(t, New(m.opts), env, e)
		if degraded {
			continue
		}
		st.runs++
		key := guardList(guards)
		if decided[key] {
			continue
		}
		decided[key] = true
		st.sets++
		if !valid(t, guards) {
			t.Fatalf("%s: %s: the %d leaf guards do not cover the block:\n%s",
				m.name, src, len(guards), key)
		}
		for i, g := range guards {
			if !satisfiable(t, g) {
				continue
			}
			st.drops++
			rest := append(append([]sym.Val(nil), guards[:i]...), guards[i+1:]...)
			if valid(t, rest) {
				t.Fatalf("%s: %s: the leaf guards still cover the block without leaf %d (%s):\n%s",
					m.name, src, i, g, key)
			}
		}
	}
}

// guardList prints guards one a line.
func guardList(guards []sym.Val) string {
	var b strings.Builder
	for _, g := range guards {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCoverLemma holds the executor to the cover lemma on seeded
// coverGen programs: every non-degraded fork-mode run's leaves cover
// its guard, and no leaf with a satisfiable guard is redundant.
func TestCoverLemma(t *testing.T) {
	const programs = 1500
	gen := newRandCoverGen(0xC0FE)
	var st coverStats
	for i := 0; i < programs; i++ {
		checkCover(t, gen.program(), &st)
	}
	// Most runs fork: the lemma and its non-vacuity must both bite.
	if st.runs < programs*len(coverModes)*9/10 || st.drops < st.sets {
		t.Fatalf("vacuous: %d runs, %d distinct leaf sets, %d leaf drops", st.runs, st.sets, st.drops)
	}
	t.Logf("%d runs, %d distinct leaf sets, %d leaf drops broke validity", st.runs, st.sets, st.drops)
}

// TestCoverLemmaOnCorpus holds the lemma on every coverCorpus program.
func TestCoverLemmaOnCorpus(t *testing.T) {
	var st coverStats
	for _, src := range coverCorpus {
		checkCover(t, src, &st)
	}
}

// TestDeferGapKeepsTheQuery pins the one place deferral breaks the
// cover lemma. SEIF-DEFER drops an arm's successful results when the
// other arm has none, so the deferred run of deferGap keeps only the
// int leaf under ¬b, and only the exhaustiveness query sees that b is
// left uncovered. Forking keeps both leaves and rejects the
// disagreement, and the concrete run at b = true, x = 3 does hit a
// run-time type error.
func TestDeferGapKeepsTheQuery(t *testing.T) {
	env := types.EmptyEnv().Extend("b", types.Bool).Extend("x", types.Int)
	e := lang.MustParse(deferGap)

	_, err := New(Options{IfMode: sym.DeferIf}).Check(env, e)
	wantErr(t, err, "symbolic block executions are not exhaustive")
	_, err = New(Options{}).Check(env, e)
	wantErr(t, err, "paths disagree on type")

	cenv := concrete.EmptyEnv().Extend("b", concrete.BoolV{Val: true}).Extend("x", concrete.IntV{Val: 3})
	_, cerr := concrete.NewEvaluator().Eval(cenv, concrete.NewMemory(), e)
	if !errors.Is(cerr, concrete.ErrTypeError) {
		t.Fatalf("concrete run at b = true, x = 3: %v, want a run-time type error", cerr)
	}
}
