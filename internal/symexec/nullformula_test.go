package symexec

import (
	"fmt"
	"math/rand"
	"testing"

	"mix/internal/solver"
)

// refNullFormula is nullFormula's plain recursion: it conjoins each
// guard, and each negated guard, with its arm's formula and lets NewAnd
// and NewOr fold the constants.
func refNullFormula(v Value) solver.Formula {
	switch v := v.(type) {
	case VNull:
		return solver.True
	case VObj, VFunc:
		return solver.False
	case VITE:
		return solver.NewOr(
			solver.NewAnd(v.G, refNullFormula(v.X)),
			solver.NewAnd(solver.NewNot(v.G), refNullFormula(v.Y)),
		)
	case VInt:
		return solver.Eq{X: v.T, Y: solver.IntConst{Val: 0}}
	case VUnknown:
		return solver.BoolVar{Name: "unknown_null"}
	}
	return solver.False
}

// genNullTree draws a VITE tree of depth at most depth over object,
// null, integer and unknown leaves, with literal, negated, compound
// and constant guards.
func genNullTree(r *rand.Rand, depth int, objs []*Object) Value {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0, 1, 2:
			return VObj{Obj: objs[r.Intn(len(objs))]}
		case 3:
			return VNull{}
		case 4:
			return VInt{T: solver.IntVar{Name: fmt.Sprintf("i%d", r.Intn(3))}}
		default:
			return VUnknown{Why: "test"}
		}
	}
	var g solver.Formula = solver.BoolVar{Name: fmt.Sprintf("pt%d", r.Intn(4))}
	switch r.Intn(6) {
	case 0:
		g = solver.NewNot(g)
	case 1:
		g = solver.NewAnd(g, solver.Lt{X: solver.IntVar{Name: "n"}, Y: solver.IntConst{Val: 3}})
	case 2:
		g = solver.BoolConst{Val: r.Intn(2) == 0}
	}
	return VITE{G: g, X: genNullTree(r, depth-1, objs), Y: genNullTree(r, depth-1, objs)}
}

// TestNullFormulaMatchesPlainRecursion: on random trees, nullFormula
// returns the formula the plain recursion builds, structurally and by
// memo key, so every query, and every memo entry, is unchanged.
func TestNullFormulaMatchesPlainRecursion(t *testing.T) {
	r := rand.New(rand.NewSource(2010))
	objs := []*Object{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}, {ID: 3, Name: "c"}}
	var folded, open int
	for i := 0; i < 5000; i++ {
		v := genNullTree(r, 1+r.Intn(6), objs)
		got, want := nullFormula(v), refNullFormula(v)
		if !solver.FormulaEq(got, want) || solver.FormulaKey(got) != solver.FormulaKey(want) {
			t.Fatalf("nullFormula(%s) = %s, plain recursion %s", v, got, want)
		}
		if _, ok := v.(VITE); !ok {
			continue
		}
		if got == solver.False {
			folded++
		} else {
			open++
		}
	}
	if folded < 300 || open < 300 {
		t.Fatalf("weak coverage: %d trees fold to false, %d do not", folded, open)
	}
}

// TestNullFormulaObjectTreeAllocatesNothing: a pointer whose targets
// are all objects is never null, and deciding so allocates nothing.
func TestNullFormulaObjectTreeAllocatesNothing(t *testing.T) {
	var v Value = VObj{Obj: &Object{ID: 1, Name: "o1"}}
	for i := 2; i <= 8; i++ {
		v = mkITE(solver.BoolVar{Name: fmt.Sprintf("pt%d", i)}, VObj{Obj: &Object{ID: i, Name: fmt.Sprintf("o%d", i)}}, v)
	}
	v = VITE{G: solver.NewNot(solver.BoolVar{Name: "q"}), X: v, Y: v}
	if f := nullFormula(v); f != solver.False {
		t.Fatalf("nullFormula of an object-only tree = %s, want false", f)
	}
	if n := testing.AllocsPerRun(100, func() { nullFormula(v) }); n != 0 {
		t.Fatalf("nullFormula of an object-only tree: %v allocations, want 0", n)
	}
}
