// Package solver implements the decision procedure that backs both the
// core MIX symbolic executor and the MIXY prototype. It plays the role
// that STP plays in the paper: deciding satisfiability and validity of
// path conditions and exhaustiveness constraints.
//
// The logic is quantifier-free linear integer arithmetic with
// uninterpreted function terms (used for reads from arbitrary symbolic
// memories). The architecture is a small lazy-SMT loop: formulas are
// normalized to negation normal form with canonical arithmetic atoms, a
// CDCL search assigns atoms, and a theory solver decides
// conjunctions of linear constraints by Gaussian elimination of
// equalities followed by Fourier–Motzkin elimination of inequalities.
//
// Completeness caveat (documented in DESIGN.md): the arithmetic core is
// complete over the rationals, so it may report "satisfiable" for a
// constraint set with rational but no integer solutions. Every client
// in this repository uses satisfiability in a direction where that
// over-approximation is conservative (it can only introduce false
// positives, never unsoundness).
package solver

import (
	"fmt"
	"sort"
	"strings"
)

// Term is an integer-sorted term.
type Term interface {
	isTerm()
	String() string
}

// IntConst is an integer literal.
type IntConst struct{ Val int64 }

// IntVar is an integer-sorted variable.
type IntVar struct{ Name string }

// Add is binary addition.
type Add struct{ X, Y Term }

// Neg is arithmetic negation.
type Neg struct{ X Term }

// Mul is multiplication by a constant, keeping the logic linear.
type Mul struct {
	K int64
	X Term
}

// App is an application of an uninterpreted function symbol. The solver
// treats two applications as equal iff they are structurally equal
// after arithmetic normalization of the arguments; this is the
// conservative congruence described in DESIGN.md.
type App struct {
	Fn   string
	Args []Term
}

// Ite is a guarded term: the value of X when G holds, of Y otherwise.
// It is what state merging produces for a memory cell that diverges
// across the two arms of a conditional. The search never sees an
// Ite: Sat lowers each one to a fresh variable with two guarded
// defining clauses (see elimIte), which keeps the theory core linear.
// Construct with NewIte so trivial guards fold away at build time.
type Ite struct {
	G    Formula
	X, Y Term
}

func (IntConst) isTerm() {}
func (IntVar) isTerm()   {}
func (Add) isTerm()      {}
func (Neg) isTerm()      {}
func (Mul) isTerm()      {}
func (App) isTerm()      {}
func (Ite) isTerm()      {}

func (t IntConst) String() string { return fmt.Sprintf("%d", t.Val) }
func (t IntVar) String() string   { return t.Name }
func (t Add) String() string      { return "(" + t.X.String() + " + " + t.Y.String() + ")" }
func (t Neg) String() string      { return "-" + t.X.String() }
func (t Mul) String() string      { return fmt.Sprintf("%d*%s", t.K, t.X.String()) }

func (t App) String() string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.String()
	}
	return t.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (t Ite) String() string {
	return "(" + t.G.String() + " ? " + t.X.String() + " : " + t.Y.String() + ")"
}

// NewIte builds ite(g, x, y) with the trivial cases folded: a constant
// guard selects its arm, equal arms collapse to one, and a negated
// guard swaps the arms so ite(¬g, a, b) and ite(g, b, a) are one
// canonical structure (FormulaKey gives both spellings one key as well).
func NewIte(g Formula, x, y Term) Term {
	if c, ok := g.(BoolConst); ok {
		if c.Val {
			return x
		}
		return y
	}
	if termEq(x, y) {
		return x
	}
	if n, ok := g.(Not); ok {
		return NewIte(n.X, y, x)
	}
	return Ite{G: g, X: x, Y: y}
}

// Sum builds a (possibly empty) sum of terms; the empty sum is 0.
func Sum(ts ...Term) Term {
	if len(ts) == 0 {
		return IntConst{0}
	}
	acc := ts[0]
	for _, t := range ts[1:] {
		acc = Add{acc, t}
	}
	return acc
}

// Sub builds x - y.
func Sub(x, y Term) Term { return Add{x, Neg{y}} }

// sortedKeys returns the keys of m in sorted order; used to produce
// deterministic canonical strings.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
