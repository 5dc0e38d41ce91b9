package solver

import "testing"

// gd is a non-constant guard for ite tests.
func gd() Formula { return BoolVar{"g"} }

func TestNewIteFolding(t *testing.T) {
	if got := NewIte(BoolConst{true}, x(), y()); !termEq(got, x()) {
		t.Fatalf("ite(true, x, y) = %s, want x", got)
	}
	if got := NewIte(BoolConst{false}, x(), y()); !termEq(got, y()) {
		t.Fatalf("ite(false, x, y) = %s, want y", got)
	}
	if got := NewIte(gd(), x(), x()); !termEq(got, x()) {
		t.Fatalf("ite(g, x, x) = %s, want x", got)
	}
	// Polarity canonicalization: a negated guard swaps the arms, so the
	// two spellings of one function are one structure.
	a, b := NewIte(gd(), x(), y()), NewIte(Not{gd()}, y(), x())
	if !termEq(a, b) {
		t.Fatalf("ite(g, x, y) = %s but ite(!g, y, x) = %s; want one canonical form", a, b)
	}
}

// TestIteEliminationDecides drives ite terms through the full solver:
// elimIte lowers each distinct ite to a fresh defined variable, and the
// guarded defining clauses must pin it to exactly one arm under every
// valuation of the guard.
func TestIteEliminationDecides(t *testing.T) {
	ite := NewIte(gd(), c(1), c(2))

	// Under the guard the ite IS the then-arm; against it, the else-arm.
	mustSat(t, And{Eq{ite, c(1)}, gd()})
	mustUnsat(t, And{Eq{ite, c(2)}, gd()})
	mustSat(t, And{Eq{ite, c(2)}, Not{gd()}})
	mustUnsat(t, And{Eq{ite, c(1)}, Not{gd()}})

	// An ite can never escape its arms: ite = x ∨ ite = y is valid.
	free := NewIte(gd(), x(), y())
	mustUnsat(t, And{Not{Eq{free, x()}}, Not{Eq{free, y()}}})

	// Arithmetic over the lowered variable stays linear: a merged cell
	// participates in downstream atoms like any plain term.
	mustSat(t, Eq{Add{ite, c(10)}, c(11)})
	mustUnsat(t, And{Eq{Add{ite, c(10)}, c(13)}, gd()})

	// Nested ites lower recursively.
	nested := NewIte(BoolVar{"h"}, NewIte(gd(), c(1), c(2)), c(3))
	mustSat(t, And{Eq{nested, c(2)}, BoolVar{"h"}})
	mustUnsat(t, And{And{Eq{nested, c(1)}, BoolVar{"h"}}, Not{gd()}})
	mustUnsat(t, And{Eq{nested, c(3)}, BoolVar{"h"}})

	// The two polarity spellings denote the same function even when the
	// structures are built by hand (bypassing NewIte's normalization).
	handA := Ite{G: gd(), X: x(), Y: y()}
	handB := Ite{G: Not{gd()}, X: y(), Y: x()}
	mustUnsat(t, Not{Eq{handA, handB}})
}

// TestIteEliminationSharesDefinitions pins the definitional-extension
// economics: k occurrences of one ite must produce one fresh variable,
// not k, so a merged cell read many times costs one definition.
func TestIteEliminationSharesDefinitions(t *testing.T) {
	ite := NewIte(gd(), x(), y())
	f := And{Eq{ite, c(1)}, Le{ite, c(5)}}
	lw := &iteLower{vars: map[string]IntVar{}}
	lw.formula(f)
	if len(lw.vars) != 1 {
		t.Fatalf("two occurrences of one ite produced %d definitions, want 1", len(lw.vars))
	}
	// 2 defining clauses per distinct ite.
	if len(lw.defs) != 2 {
		t.Fatalf("one ite produced %d defining clauses, want 2", len(lw.defs))
	}
	// A formula without ites is returned untouched (and allocation-free).
	plain := And{Eq{x(), c(1)}, Le{y(), c(5)}}
	if got := elimIte(plain); got != Formula(plain) {
		t.Fatalf("elimIte changed an ite-free formula: %s", got)
	}
}
