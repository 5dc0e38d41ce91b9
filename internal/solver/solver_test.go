package solver

import (
	"testing"
)

func x() Term        { return IntVar{"x"} }
func y() Term        { return IntVar{"y"} }
func z() Term        { return IntVar{"z"} }
func c(v int64) Term { return IntConst{v} }

func mustSat(t *testing.T, f Formula) {
	t.Helper()
	got, err := New().Sat(f)
	if err != nil {
		t.Fatalf("Sat(%s): %v", f, err)
	}
	if !got {
		t.Fatalf("Sat(%s) = false, want true", f)
	}
}

func mustUnsat(t *testing.T, f Formula) {
	t.Helper()
	got, err := New().Sat(f)
	if err != nil {
		t.Fatalf("Sat(%s): %v", f, err)
	}
	if got {
		t.Fatalf("Sat(%s) = true, want false", f)
	}
}

func mustValid(t *testing.T, f Formula) {
	t.Helper()
	got, err := New().Valid(f)
	if err != nil {
		t.Fatalf("Valid(%s): %v", f, err)
	}
	if !got {
		t.Fatalf("Valid(%s) = false, want true", f)
	}
}

func mustInvalid(t *testing.T, f Formula) {
	t.Helper()
	got, err := New().Valid(f)
	if err != nil {
		t.Fatalf("Valid(%s): %v", f, err)
	}
	if got {
		t.Fatalf("Valid(%s) = true, want false", f)
	}
}

func TestConstants(t *testing.T) {
	mustSat(t, True)
	mustUnsat(t, False)
	mustValid(t, True)
	mustInvalid(t, False)
}

func TestBooleanStructure(t *testing.T) {
	p, q := BoolVar{"p"}, BoolVar{"q"}
	mustSat(t, p)
	mustSat(t, NewNot(p))
	mustUnsat(t, NewAnd(p, NewNot(p)))
	mustValid(t, NewOr(p, NewNot(p)))
	mustValid(t, Implies(NewAnd(p, q), p))
	mustInvalid(t, Implies(p, q))
	mustValid(t, Iff{p, p})
	mustSat(t, Iff{p, q})
	mustUnsat(t, NewAnd(Iff{p, q}, NewAnd(p, NewNot(q))))
	// De Morgan as a validity.
	mustValid(t, Iff{NewNot(NewAnd(p, q)), NewOr(NewNot(p), NewNot(q))})
}

func TestArithmeticBasics(t *testing.T) {
	mustValid(t, Eq{Add{x(), c(0)}, x()})
	mustValid(t, Eq{Add{x(), y()}, Add{y(), x()}})
	mustSat(t, Eq{x(), c(3)})
	mustUnsat(t, NewAnd(Eq{x(), c(3)}, Eq{x(), c(4)}))
	mustUnsat(t, NewAnd(Eq{x(), y()}, Neq(x(), y())))
	mustSat(t, Neq(x(), y()))
	mustValid(t, Implies(NewAnd(Eq{x(), y()}, Eq{y(), z()}), Eq{x(), z()}))
	// x + 1 = x is unsatisfiable.
	mustUnsat(t, Eq{Add{x(), c(1)}, x()})
	// 2x = x + x is valid.
	mustValid(t, Eq{Mul{2, x()}, Add{x(), x()}})
}

func TestInequalities(t *testing.T) {
	mustSat(t, Lt{x(), y()})
	mustUnsat(t, NewAnd(Lt{x(), y()}, Lt{y(), x()}))
	mustUnsat(t, NewAnd(Le{x(), y()}, Lt{y(), x()}))
	mustSat(t, NewAnd(Le{x(), y()}, Le{y(), x()}))
	mustValid(t, Implies(NewAnd(Le{x(), y()}, Le{y(), x()}), Eq{x(), y()}))
	mustValid(t, Implies(NewAnd(Lt{x(), y()}, Lt{y(), z()}), Lt{x(), z()}))
	mustUnsat(t, NewAnd(Gt(x(), c(0)), NewAnd(Lt{x(), c(5)}, Gt(x(), c(10)))))
	mustValid(t, NewOr(Le{x(), c(0)}, Gt(x(), c(0))))
	// Trichotomy as a tautology: the exhaustive() check for the
	// sign-refinement example in Section 2 of the paper.
	taut, err := New().Valid(Disj(Gt(x(), c(0)), Eq{x(), c(0)}, Lt{x(), c(0)}))
	if err != nil {
		t.Fatal(err)
	}
	if !taut {
		t.Fatal("trichotomy should be a tautology")
	}
	// Dropping one disjunct is not exhaustive.
	taut, err = New().Valid(Disj(Gt(x(), c(0)), Lt{x(), c(0)}))
	if err != nil {
		t.Fatal(err)
	}
	if taut {
		t.Fatal("x>0 or x<0 must not be a tautology")
	}
}

func TestMixedBoolArith(t *testing.T) {
	p := BoolVar{"p"}
	f := NewAnd(NewOr(p, Eq{x(), c(1)}), NewAnd(NewNot(p), Neq(x(), c(1))))
	mustUnsat(t, f)
	g := NewAnd(NewOr(p, Eq{x(), c(1)}), NewNot(p))
	mustSat(t, g)
}

func TestGaussianChains(t *testing.T) {
	// x = y+1, y = z+1, z = 0 entails x = 2.
	sys := Conj(
		Eq{x(), Add{y(), c(1)}},
		Eq{y(), Add{z(), c(1)}},
		Eq{z(), c(0)},
	)
	mustValid(t, Implies(sys, Eq{x(), c(2)}))
	mustUnsat(t, NewAnd(sys, Neq(x(), c(2))))
}

func TestUninterpretedApps(t *testing.T) {
	fx := App{"f", []Term{x()}}
	fx2 := App{"f", []Term{Add{x(), c(0)}}} // normalizes to the same key
	fy := App{"f", []Term{y()}}
	mustValid(t, Eq{fx, fx2})
	mustSat(t, Neq(fx, fy))
	mustSat(t, Eq{fx, fy})
	// Documented incompleteness: syntactic congruence does not merge
	// f(x) and f(y) under x=y, so this is reported satisfiable. That
	// is the conservative direction (see package comment).
	mustSat(t, NewAnd(Eq{x(), y()}, Neq(fx, fy)))
	// But unsat answers remain trustworthy.
	mustUnsat(t, NewAnd(Eq{fx, c(1)}, Eq{fx, c(2)}))
}

func TestAtomInterning(t *testing.T) {
	// x = y and y = x must be the same atom: their conjunction with a
	// negation of one is unsat without any theory case split beyond
	// the shared atom's polarity conflict.
	mustUnsat(t, NewAnd(Eq{x(), y()}, NewNot(Eq{y(), x()})))
	mustUnsat(t, NewAnd(Le{x(), y()}, NewNot(Ge(y(), x()))))
}

func TestRationalOverApproximation(t *testing.T) {
	// 2x = 1 has no integer solution but a rational one; the solver
	// must answer "sat" (conservative direction).
	mustSat(t, Eq{Mul{2, x()}, c(1)})
}

func TestResourceBounds(t *testing.T) {
	s := New()
	s.MaxAtoms = 2
	f := Conj(Eq{x(), c(1)}, Eq{y(), c(2)}, Eq{z(), c(3)})
	if _, err := s.Sat(f); err == nil {
		t.Fatal("expected resource error with MaxAtoms=2")
	}
}

func TestNilInputs(t *testing.T) {
	if _, err := New().Sat(nil); err == nil {
		t.Fatal("expected error for nil formula")
	}
	if _, err := New().Sat(Eq{nil, c(1)}); err == nil {
		t.Fatal("expected error for nil term")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New()
	if _, err := s.Sat(NewAnd(BoolVar{"p"}, Eq{x(), c(1)})); err != nil {
		t.Fatal(err)
	}
	if s.Stats.SatQueries != 1 {
		t.Fatalf("SatQueries = %d, want 1", s.Stats.SatQueries)
	}
	if s.Stats.Atoms == 0 || s.Stats.TheoryChecks == 0 {
		t.Fatalf("expected nonzero atoms and theory checks, got %+v", s.Stats)
	}
}

func TestIteEncodedGuards(t *testing.T) {
	// The SEIF-DEFER rule produces guard-shaped formulas like
	// (g && pc1) || (!g && pc2); exhaustiveness of such encodings must
	// be decidable.
	g := BoolVar{"g"}
	pc1 := Gt(x(), c(0))
	pc2 := Le{x(), c(0)}
	taut, err := New().Valid(Disj(NewAnd(g, pc1), NewAnd(g, NewNot(pc1)), NewNot(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !taut {
		t.Fatal("guard split should be exhaustive")
	}
	taut, err = New().Valid(Disj(NewAnd(g, pc1), NewAnd(NewNot(g), pc2)))
	if err != nil {
		t.Fatal(err)
	}
	if taut {
		t.Fatal("missing the (g && x<=0) corner: not a tautology")
	}
}
