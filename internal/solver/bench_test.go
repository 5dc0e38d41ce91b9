package solver

import (
	"fmt"
	"testing"
)

// chainFormula builds x0 = x1+1 ∧ ... ∧ x(n-1) = xn+1 ∧ x0 <= xn,
// unsatisfiable for n >= 1 (forces full Gaussian elimination).
func chainFormula(n int) Formula {
	f := True
	for i := 0; i < n; i++ {
		f = NewAnd(f, Eq{IntVar{fmt.Sprintf("x%d", i)}, Add{IntVar{fmt.Sprintf("x%d", i+1)}, IntConst{1}}})
	}
	return NewAnd(f, Le{IntVar{"x0"}, IntVar{fmt.Sprintf("x%d", n)}})
}

func BenchmarkGaussianChain(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := chainFormula(n)
			for i := 0; i < b.N; i++ {
				sat, err := New().Sat(f)
				if err != nil {
					b.Fatal(err)
				}
				if sat {
					b.Fatal("chain should be unsat")
				}
			}
		})
	}
}

// disjunctionFormula builds (p1 ∧ a1) ∨ ... ∨ (pn ∧ an), the shape of
// exhaustiveness queries over forked guards.
func disjunctionFormula(n int) Formula {
	f := False
	for i := 0; i < n; i++ {
		f = NewOr(f, NewAnd(
			BoolVar{fmt.Sprintf("p%d", i)},
			Gt(IntVar{fmt.Sprintf("a%d", i)}, IntConst{int64(i)}),
		))
	}
	return f
}

func BenchmarkDisjunctionSat(b *testing.B) {
	for _, n := range []int{8, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := disjunctionFormula(n)
			for i := 0; i < b.N; i++ {
				sat, err := New().Sat(f)
				if err != nil {
					b.Fatal(err)
				}
				if !sat {
					b.Fatal("disjunction should be sat")
				}
			}
		})
	}
}

// BenchmarkTrichotomyValid is the sign-refinement exhaustiveness
// query.
func BenchmarkTrichotomyValid(b *testing.B) {
	x := IntVar{"x"}
	zero := IntConst{0}
	for i := 0; i < b.N; i++ {
		taut, err := New().Valid(Disj(Gt(x, zero), Eq{x, zero}, Lt{x, zero}))
		if err != nil {
			b.Fatal(err)
		}
		if !taut {
			b.Fatal("trichotomy must be a tautology")
		}
	}
}

// BenchmarkFourierMotzkin stresses inequality elimination.
func BenchmarkFourierMotzkin(b *testing.B) {
	// 0 <= x1 <= x2 <= ... <= xn <= 10 with n variables, plus xn < x1
	// (unsat).
	const n = 10
	f := True
	for i := 1; i < n; i++ {
		f = NewAnd(f, Le{IntVar{fmt.Sprintf("x%d", i)}, IntVar{fmt.Sprintf("x%d", i+1)}})
	}
	f = NewAnd(f, Le{IntConst{0}, IntVar{"x1"}})
	f = NewAnd(f, Le{IntVar{fmt.Sprintf("x%d", n)}, IntConst{10}})
	f = NewAnd(f, Lt{IntVar{fmt.Sprintf("x%d", n)}, IntVar{"x1"}})
	for i := 0; i < b.N; i++ {
		sat, err := New().Sat(f)
		if err != nil {
			b.Fatal(err)
		}
		if sat {
			b.Fatal("should be unsat")
		}
	}
}
