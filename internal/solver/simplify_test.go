package solver

import (
	"math"
	"testing"
)

// Each test pins one rewrite the canonicalizer must perform; these are
// the edge cases surfaced while wiring the simplifier into Sat.

func TestSimplifyDoubleNegation(t *testing.T) {
	p := BoolVar{"p"}
	got := Simplify(Not{X: Not{X: p}})
	if !formulaEq(got, p) {
		t.Fatalf("!!p = %v, want p", got)
	}
	// Triple negation folds to a single one.
	got = Simplify(Not{X: Not{X: Not{X: p}}})
	if !formulaEq(got, Not{X: p}) {
		t.Fatalf("!!!p = %v, want !p", got)
	}
}

func TestSimplifyXMinusX(t *testing.T) {
	x := IntVar{"x"}
	if got := SimplifyTerm(Sub(x, x)); !termEq(got, IntConst{0}) {
		t.Fatalf("x - x = %v, want 0", got)
	}
	// Also with the negation on the left.
	if got := SimplifyTerm(Add{Neg{x}, x}); !termEq(got, IntConst{0}) {
		t.Fatalf("-x + x = %v, want 0", got)
	}
	// Structured operands, not just variables.
	fx := App{Fn: "f", Args: []Term{x}}
	if got := SimplifyTerm(Sub(fx, fx)); !termEq(got, IntConst{0}) {
		t.Fatalf("f(x) - f(x) = %v, want 0", got)
	}
	// And the formula level folds the comparison away entirely.
	if got := Simplify(Eq{Sub(x, x), IntConst{0}}); !formulaEq(got, True) {
		t.Fatalf("x-x == 0 = %v, want true", got)
	}
}

func TestSimplifyEqualTermComparisons(t *testing.T) {
	x := IntVar{"x"}
	t1 := Add{Mul{3, x}, IntConst{7}}
	t2 := Add{Mul{3, x}, IntConst{7}}
	if got := Simplify(Eq{t1, t2}); !formulaEq(got, True) {
		t.Fatalf("t == t = %v, want true", got)
	}
	if got := Simplify(Le{t1, t2}); !formulaEq(got, True) {
		t.Fatalf("t <= t = %v, want true", got)
	}
	if got := Simplify(Lt{t1, t2}); !formulaEq(got, False) {
		t.Fatalf("t < t = %v, want false", got)
	}
	// Negations ride along through NewNot's folding.
	if got := Simplify(NewNot(Eq{t1, t2})); !formulaEq(got, False) {
		t.Fatalf("!(t == t) = %v, want false", got)
	}
}

func TestSimplifyTermIdentities(t *testing.T) {
	x := IntVar{"x"}
	cases := []struct {
		in, want Term
	}{
		{Add{x, IntConst{0}}, x},
		{Add{IntConst{0}, x}, x},
		{Add{IntConst{2}, IntConst{3}}, IntConst{5}},
		{Mul{K: 0, X: x}, IntConst{0}},
		{Mul{K: 1, X: x}, x},
		{Mul{K: 4, X: IntConst{5}}, IntConst{20}},
		{Neg{Neg{x}}, x},
		{Neg{IntConst{9}}, IntConst{-9}},
	}
	for _, c := range cases {
		if got := SimplifyTerm(c.in); !termEq(got, c.want) {
			t.Fatalf("SimplifyTerm(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Overflow must not wrap: the fold is skipped, not performed mod 2^64.
	huge := Add{IntConst{math.MaxInt64}, IntConst{1}}
	if got := SimplifyTerm(huge); !termEq(got, huge) {
		t.Fatalf("overflowing add folded to %v", got)
	}
	if got := SimplifyTerm(Neg{IntConst{math.MinInt64}}); !termEq(got, Neg{IntConst{math.MinInt64}}) {
		t.Fatalf("-MinInt64 folded to %v", got)
	}
}

func TestSimplifyConstantComparisons(t *testing.T) {
	if got := Simplify(Lt{IntConst{1}, IntConst{2}}); !formulaEq(got, True) {
		t.Fatalf("1 < 2 = %v", got)
	}
	if got := Simplify(Le{IntConst{3}, IntConst{2}}); !formulaEq(got, False) {
		t.Fatalf("3 <= 2 = %v", got)
	}
	if got := Simplify(Eq{IntConst{2}, IntConst{2}}); !formulaEq(got, True) {
		t.Fatalf("2 == 2 = %v", got)
	}
}

func TestSimplifyDuplicateAndComplementary(t *testing.T) {
	p, q := BoolVar{"p"}, BoolVar{"q"}
	if got := Simplify(Conj(p, q, p)); !formulaEq(got, NewAnd(p, q)) {
		t.Fatalf("p && q && p = %v", got)
	}
	if got := Simplify(Conj(p, q, Not{X: p})); !formulaEq(got, False) {
		t.Fatalf("p && q && !p = %v, want false", got)
	}
	if got := Simplify(Disj(p, q, Not{X: p})); !formulaEq(got, True) {
		t.Fatalf("p || q || !p = %v, want true", got)
	}
	if got := Simplify(NewAnd(p, True)); !formulaEq(got, p) {
		t.Fatalf("p && true = %v", got)
	}
	if got := Simplify(NewOr(p, False)); !formulaEq(got, p) {
		t.Fatalf("p || false = %v", got)
	}
}

func TestSimplifyIff(t *testing.T) {
	p, q := BoolVar{"p"}, BoolVar{"q"}
	if got := Simplify(Iff{True, q}); !formulaEq(got, q) {
		t.Fatalf("true <=> q = %v", got)
	}
	if got := Simplify(Iff{p, False}); !formulaEq(got, Not{X: p}) {
		t.Fatalf("p <=> false = %v", got)
	}
	if got := Simplify(Iff{p, p}); !formulaEq(got, True) {
		t.Fatalf("p <=> p = %v", got)
	}
}

// TestSimplifyConsensus pins the (A ∧ x) ∨ (A ∧ ¬x) → A rule and its
// iterated form: the complete guard tree of k fork decisions collapses
// to true without any search.
func TestSimplifyConsensus(t *testing.T) {
	p, b := BoolVar{"p"}, BoolVar{"b"}
	or := NewOr(NewAnd(p, b), NewAnd(p, Not{X: b}))
	if got := Simplify(or); !formulaEq(got, p) {
		t.Fatalf("(p&&b)||(p&&!b) = %v, want p", got)
	}

	// Complete tree over 6 guards: 64 disjuncts, each a conjunction of
	// literals over b0..b5 covering every sign pattern.
	const k = 6
	var disjuncts []Formula
	for bits := 0; bits < 1<<k; bits++ {
		var conj Formula = True
		for i := 0; i < k; i++ {
			var lit Formula = BoolVar{Name: "b" + string(rune('0'+i))}
			if bits&(1<<i) == 0 {
				lit = Not{X: lit}
			}
			conj = NewAnd(conj, lit)
		}
		disjuncts = append(disjuncts, conj)
	}
	if got := Simplify(Disj(disjuncts...)); !formulaEq(got, True) {
		t.Fatalf("complete guard tree simplified to %v, want true", got)
	}

	// Arithmetic guards collapse the same way.
	x := IntVar{"x"}
	g := Lt{x, IntConst{0}}
	or2 := NewOr(NewAnd(g, b), NewAnd(g, Not{X: b}))
	if got := Simplify(or2); !formulaEq(got, g) {
		t.Fatalf("(g&&b)||(g&&!b) = %v, want g", got)
	}
}

func TestSupportTokens(t *testing.T) {
	x, y := IntVar{"x"}, IntVar{"y"}
	f := NewAnd(NewOr(BoolVar{"p"}, Lt{x, IntConst{1}}), Eq{App{Fn: "f", Args: []Term{y}}, IntConst{0}})
	got := Support(f)
	want := []string{"b:p", "fn:f", "v:x", "v:y"}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestQuickConjIntervals(t *testing.T) {
	x, y := IntVar{"x"}, IntVar{"y"}
	cases := []struct {
		fs           []Formula
		sat, decided bool
	}{
		{[]Formula{Lt{x, IntConst{10}}, Lt{IntConst{5}, x}}, true, true},
		{[]Formula{Lt{x, IntConst{5}}, Lt{IntConst{5}, x}}, false, true},
		// Rational semantics: 5 < x < 6 is satisfiable.
		{[]Formula{Lt{IntConst{5}, x}, Lt{x, IntConst{6}}}, true, true},
		{[]Formula{Eq{x, IntConst{3}}, NewNot(Eq{x, IntConst{3}})}, false, true},
		{[]Formula{Eq{x, IntConst{3}}, NewNot(Eq{x, IntConst{4}})}, true, true},
		{[]Formula{Le{x, IntConst{3}}, Le{IntConst{3}, x}}, true, true},
		{[]Formula{Le{x, IntConst{3}}, Lt{IntConst{3}, x}}, false, true},
		{[]Formula{BoolVar{"p"}, NewNot(BoolVar{"p"})}, false, true},
		// Mixed-variable constraint: not recognized, not decided…
		{[]Formula{Lt{x, y}}, false, false},
		// …unless the recognized subset is already contradictory.
		{[]Formula{Lt{x, y}, Eq{x, IntConst{1}}, Eq{x, IntConst{2}}}, false, true},
	}
	for i, c := range cases {
		sat, decided := QuickConj(c.fs)
		if decided != c.decided || (decided && sat != c.sat) {
			t.Fatalf("case %d: QuickConj = (%v,%v), want (%v,%v)", i, sat, decided, c.sat, c.decided)
		}
	}
}

func TestPCIncremental(t *testing.T) {
	x := IntVar{"x"}
	var pc *PC
	if pc.Len() != 0 || pc.Dead() || !formulaEq(pc.Formula(), True) {
		t.Fatal("empty PC misbehaves")
	}
	p1 := pc.And(Lt{x, IntConst{10}})
	p2 := p1.And(NewAnd(BoolVar{"p"}, Lt{IntConst{0}, x})) // splits into two nodes
	if p1.Len() != 1 || p2.Len() != 3 {
		t.Fatalf("Len = %d, %d; want 1, 3", p1.Len(), p2.Len())
	}
	if p2.Parent().Parent() != p1 {
		t.Fatal("PC tail is not shared with the parent")
	}
	if p := p2.And(True); p != p2 {
		t.Fatal("And(true) must be a no-op")
	}
	// Re-asserting the newest conjunct is absorbed.
	if p := p2.And(Lt{IntConst{0}, x}); p != p2 {
		t.Fatal("duplicate head conjunct not absorbed")
	}
	d := p2.And(False)
	if !d.Dead() {
		t.Fatal("And(false) must mark the PC dead")
	}
	if d.And(False) != d {
		t.Fatal("dead PC should absorb further falses")
	}
	// A guard that simplifies to false kills the path too.
	d2 := p2.And(Lt{x, x})
	if !d2.Dead() {
		t.Fatal("x < x must kill the path")
	}
	got := p2.Conjuncts()
	if len(got) != 3 || !formulaEq(got[0], Lt{x, IntConst{10}}) || !formulaEq(got[1], BoolVar{"p"}) {
		t.Fatalf("Conjuncts = %v", got)
	}
}

func TestSatModelRoundTrip(t *testing.T) {
	x, y := IntVar{"x"}, IntVar{"y"}
	fs := []Formula{
		NewAnd(Lt{IntConst{2}, x}, Lt{x, IntConst{4}}),
		Conj(Eq{Add{x, y}, IntConst{10}}, Lt{x, IntConst{3}}, BoolVar{"p"}),
		Conj(NewNot(Eq{x, IntConst{0}}), Le{x, IntConst{0}}),
		NewOr(NewAnd(BoolVar{"p"}, Eq{x, IntConst{1}}), NewAnd(NewNot(BoolVar{"p"}), Eq{x, IntConst{2}})),
		Conj(Le{App{Fn: "f", Args: []Term{x}}, IntConst{5}}, Eq{x, IntConst{7}}),
	}
	for i, f := range fs {
		s := New()
		sat, m, err := s.SatModel(f)
		if err != nil || !sat {
			t.Fatalf("case %d: SatModel = %v, %v", i, sat, err)
		}
		if m == nil {
			t.Fatalf("case %d: sat but no model", i)
		}
		ok, err := m.Eval(f)
		if err != nil || !ok {
			t.Fatalf("case %d: model does not satisfy its own formula (ok=%v err=%v, model=%+v)", i, ok, err, m)
		}
	}
	// Unsat must stay unsat with no model.
	sat, m, err := New().SatModel(NewAnd(Lt{x, IntConst{0}}, Lt{IntConst{0}, x}))
	if err != nil || sat || m != nil {
		t.Fatalf("unsat SatModel = %v, %v, %v", sat, m, err)
	}
}
