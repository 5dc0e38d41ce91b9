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
	x := newExec()
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
	x := newExec()
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
	x := newExec()
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

// A variable's solver name is its sort letter and ID (p for booleans,
// s for integers), the same at every occurrence.
func TestTranslatorNamesVariablesConsistently(t *testing.T) {
	x := newExec()
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
