package sym

import (
	"strings"
	"testing"

	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/types"
)

func TestTranslateErrors(t *testing.T) {
	tr := NewTranslator()
	// Zero values.
	if _, err := tr.Formula(Val{}); err == nil {
		t.Fatal("zero value must error")
	}
	if _, err := tr.Term(Val{}); err == nil {
		t.Fatal("zero value must error")
	}
	// Non-bool to Formula.
	if _, err := tr.Formula(IntVal(1)); err == nil {
		t.Fatal("int to Formula must error")
	}
	// Closures cannot be translated.
	clo := Val{CloV{Param: "x", Body: lang.I(1)}, types.UnknownType{}}
	if _, err := tr.Term(clo); err == nil {
		t.Fatal("closure to Term must error")
	}
}

func TestTranslateBooleanReads(t *testing.T) {
	// A bool stored through a ref and read back at bool type.
	x := NewExecutor()
	rs, err := x.Run(EmptyEnv(), x.InitialState(),
		lang.MustParse("let b = ref true in !b"))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator()
	f, err := tr.Formula(rs[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New()
	valid, err := s.Valid(f)
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Fatalf("!b should be provably true, got %s", f)
	}
}

func TestTranslateBaseMemoryBoolRead(t *testing.T) {
	// A bool read from the arbitrary base memory μ becomes a free
	// boolean variable: satisfiable either way.
	x := NewExecutor()
	p := x.Fresh.Var(types.Ref(types.Bool), "p")
	env := EmptyEnv().Extend("p", p)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("!p"))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator()
	f, err := tr.Formula(rs[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New()
	sat1, _ := s.Sat(f)
	sat2, _ := s.Sat(solver.NewNot(f))
	if !sat1 || !sat2 {
		t.Fatalf("base-memory bool read must be unconstrained: %s", f)
	}
}

func TestTranslateCondMemRead(t *testing.T) {
	// Defer mode writes different values per branch; the merged memory
	// is conditional, and the read reflects both.
	x := NewExecutor()
	x.Mode = DeferIf
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	src := "let r = ref 0 in let _ = (if b then r := 1 else r := 2) in !r"
	rs, err := x.Run(env, x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("defer mode: got %v", rs)
	}
	tr := NewTranslator()
	term, err := tr.Term(ok[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	s := solver.New()
	// The read is 1 or 2, never 0.
	zero, err := s.Sat(solver.Eq{X: term, Y: solver.IntConst{Val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if zero {
		t.Fatal("!r can no longer be 0 after the write")
	}
	one, err := s.Sat(solver.Eq{X: term, Y: solver.IntConst{Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.Sat(solver.Eq{X: term, Y: solver.IntConst{Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !one || !two {
		t.Fatalf("both 1 and 2 must be possible: one=%t two=%t", one, two)
	}
}

func TestMemOKCondMem(t *testing.T) {
	f := NewFresh()
	mu := f.Memory()
	p := f.Var(types.Ref(types.Int), "p")
	good := Update{Base: mu, Addr: p, V: IntVal(1)}
	bad := Update{Base: mu, Addr: p, V: BoolVal(true)}
	g := f.Var(types.Bool, "g")
	if err := MemOK(CondMem{G: g, M1: good, M2: good}); err != nil {
		t.Fatalf("both arms ok: %v", err)
	}
	if err := MemOK(CondMem{G: g, M1: good, M2: bad}); err == nil {
		t.Fatal("an inconsistent arm must fail")
	}
}

func TestValAndMemPrinting(t *testing.T) {
	f := NewFresh()
	p := f.Var(types.Ref(types.Int), "p")
	mu := f.Memory()
	m := Update{Base: Alloc{Base: mu, Addr: p, V: IntVal(1)}, Addr: p, V: IntVal(2)}
	s := m.String()
	for _, frag := range []string{"μ", "→a", "→", "α1<p>"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("memory print %q missing %q", s, frag)
		}
	}
	st := State{Guard: TrueVal, Mem: mu}
	if !strings.Contains(st.String(), "⟨") {
		t.Fatalf("state print %q", st.String())
	}
	read := Val{MemRead{M: mu, Ptr: p}, types.Int}
	if !strings.Contains(read.String(), "[") {
		t.Fatalf("read print %q", read.String())
	}
	if f.Count() < 2 {
		t.Fatalf("Count = %d", f.Count())
	}
}

func TestValEqualEdgeCases(t *testing.T) {
	f := NewFresh()
	a := f.Var(types.Int, "a")
	b := f.Var(types.Int, "b")
	if ValEqual(a, b) {
		t.Fatal("distinct symvars must differ")
	}
	if !ValEqual(a, a) {
		t.Fatal("reflexivity")
	}
	// Same ID with different annotations (cannot arise, but IDs rule).
	if !ValEqual(Val{SymVar{ID: 99}, types.Int}, Val{SymVar{ID: 99}, types.Ref(types.Int)}) {
		t.Fatal("symvar identity is by ID")
	}
	if ValEqual(IntVal(1), BoolVal(true)) {
		t.Fatal("different types must differ")
	}
	if !ValEqual(
		Val{AddOp{a, IntVal(1)}, types.Int},
		Val{AddOp{a, IntVal(1)}, types.Int}) {
		t.Fatal("structural equality on AddOp")
	}
	if !ValEqual(
		Val{NotOp{BoolVal(true)}, types.Bool},
		Val{NotOp{BoolVal(true)}, types.Bool}) {
		t.Fatal("structural equality on NotOp")
	}
}

// countBoolVars counts the boolean-variable occurrences in f.
func countBoolVars(f solver.Formula) int {
	switch f := f.(type) {
	case solver.BoolVar:
		return 1
	case solver.Not:
		return countBoolVars(f.X)
	case solver.And:
		return countBoolVars(f.X) + countBoolVars(f.Y)
	case solver.Or:
		return countBoolVars(f.X) + countBoolVars(f.Y)
	}
	return 0
}

// factoredLowering is the reference for Disjunction's residue: the
// guards' conjunct chains grouped by first conjunct, in order of first
// appearance, each group lowered under its conjunct, with no subtree
// decided before the solver's Simplify sees it.
func factoredLowering(t *testing.T, tr *Translator, chains [][]Val) solver.Formula {
	t.Helper()
	acc := solver.False
	for i, ch := range chains {
		if len(ch) == 0 {
			return solver.True
		}
		seen := false
		for _, prev := range chains[:i] {
			seen = seen || ValEqual(prev[0], ch[0])
		}
		if seen {
			continue
		}
		var rest [][]Val
		for _, other := range chains[i:] {
			if ValEqual(other[0], ch[0]) {
				rest = append(rest, other[1:])
			}
		}
		f, err := tr.Formula(ch[0])
		if err != nil {
			t.Fatal(err)
		}
		acc = solver.NewOr(acc, solver.NewAnd(f, factoredLowering(t, tr, rest)))
	}
	return acc
}

// chainOf returns g's conjuncts, oldest first.
func chainOf(g Val) []Val {
	if a, ok := g.U.(AndOp); ok {
		return append(chainOf(a.X), a.Y)
	}
	return []Val{g}
}

// A complete k-fork tree is decided in Disjunction's trie: it lowers
// to true with no conjunct translated. With one leaf removed, only the
// removed leaf's ancestors stay undecided, so the residue carries both
// children at each of the k−1 levels above it (the sibling off the
// path decided, the one on it lowered further) and the surviving leaf
// at the bottom: 2k−1 variable occurrences, where the full factored
// lowering carries one per remaining trie node, 2^(k+1)−3. Simplify
// turns the residue and the full lowering into one formula.
func TestDisjunctionTranslatesEachPrefixConjunctOnce(t *testing.T) {
	const k = 6
	x := NewExecutor()
	env := EmptyEnv()
	var src strings.Builder
	for i := 0; i < k; i++ {
		name := string(rune('a' + i))
		env = env.Extend(name, x.Fresh.Var(types.Bool, name))
		src.WriteString("let _ = (if " + name + " then 1 else 2) in ")
	}
	src.WriteString("0")
	rs, err := x.Run(env, x.InitialState(), lang.MustParse(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	guards := make([]Val, len(rs))
	for i, r := range rs {
		guards[i] = r.State.Guard
	}
	if len(guards) != 1<<k {
		t.Fatalf("%d paths, want %d", len(guards), 1<<k)
	}
	d, err := NewTranslator().Disjunction(guards)
	if err != nil {
		t.Fatal(err)
	}
	if !solver.FormulaEq(d, solver.True) {
		t.Fatalf("complete tree lowers to %s, want true", d)
	}

	for _, missing := range []int{0, 1 << (k - 1), 1<<k - 1} {
		partial := append(append([]Val(nil), guards[:missing]...), guards[missing+1:]...)
		residue, err := NewTranslator().Disjunction(partial)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countBoolVars(residue), 2*k-1; got != want {
			t.Errorf("without leaf %d: residue %s has %d variable occurrences, want %d", missing, residue, got, want)
		}
		chains := make([][]Val, len(partial))
		for i, g := range partial {
			chains[i] = chainOf(g)
		}
		full := factoredLowering(t, NewTranslator(), chains)
		if got, want := countBoolVars(full), 1<<(k+1)-3; got != want {
			t.Errorf("without leaf %d: full lowering has %d variable occurrences, want %d", missing, got, want)
		}
		if got, want := solver.Simplify(residue), solver.Simplify(full); !solver.FormulaEq(got, want) {
			t.Errorf("without leaf %d: Simplify(residue) = %s, Simplify(full lowering) = %s", missing, got, want)
		}
	}
}

// TestDisjunctionAllocs pins the cost of deciding a complete tree: the
// 1,024 guards of a ladder-10 block lower to true from one slice of
// trie nodes, with no conjunct translated and no formula built.
func TestDisjunctionAllocs(t *testing.T) {
	const n, maxAllocs = 10, 16
	e, mkEnv := benchLadder(n)
	x := NewExecutor()
	rs, err := x.Run(mkEnv(x), x.InitialState(), e)
	if err != nil || len(rs) != 1<<n {
		t.Fatalf("ladder-%d: %d paths, %v", n, len(rs), err)
	}
	guards := make([]Val, len(rs))
	for i, r := range rs {
		guards[i] = r.State.Guard
	}
	tr := NewTranslator()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.Disjunction(guards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("Disjunction over a complete ladder-%d allocates %.0f objects, want at most %d", n, allocs, maxAllocs)
	}
}

// A variable's solver name is its sort letter and ID (p for booleans,
// s for integers), the same at every occurrence.
func TestTranslatorNamesVariablesConsistently(t *testing.T) {
	x := NewExecutor()
	b := x.Fresh.Var(types.Bool, "b")
	n := x.Fresh.Var(types.Int, "n")
	tr := NewTranslator()
	for i := 0; i < 2; i++ {
		f, err := tr.Formula(MkAnd(b, Val{LtOp{n, IntVal(0)}, types.Bool}))
		if err != nil {
			t.Fatal(err)
		}
		want := solver.NewAnd(solver.BoolVar{Name: "p1"}, solver.Lt{X: solver.IntVar{Name: "s2"}, Y: solver.IntConst{Val: 0}})
		if !solver.FormulaEq(f, want) {
			t.Fatalf("translation %d = %s, want %s", i, f, want)
		}
	}
}
