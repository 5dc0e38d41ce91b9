package symexec

import (
	"fmt"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/microc"
	"mix/internal/pointer"
	"mix/internal/solver"
)

// refCase is one leaf of a VITE tree with the conjunction of the
// guards on its path, built the way a flat case list builds it:
// g1 ∧ (g2 ∧ (… ∧ true)).
type refCase struct {
	g    solver.Formula
	leaf Value
}

func refCases(v Value) []refCase {
	if ite, ok := v.(VITE); ok {
		var out []refCase
		for _, c := range refCases(ite.X) {
			out = append(out, refCase{solver.NewAnd(ite.G, c.g), c.leaf})
		}
		for _, c := range refCases(ite.Y) {
			out = append(out, refCase{solver.NewAnd(solver.NewNot(ite.G), c.g), c.leaf})
		}
		return out
	}
	return []refCase{{solver.True, v}}
}

func samePC(a, b *solver.PC) bool {
	if a.Len() != b.Len() || a.Dead() != b.Dead() {
		return false
	}
	ca, cb := a.Conjuncts(), b.Conjuncts()
	for i := range ca {
		if !solver.FormulaEq(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

// kTargetSrc declares a global pointer p that the pointer analysis sees
// pointing at k globals.
func kTargetSrc(k int) string {
	var b strings.Builder
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	b.WriteString("int *p;\nvoid init(int c) {\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "  if (c == %d) p = &g%d;\n", i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestDerefWalkSharesPrefix dereferences a lazily initialized pointer
// with k points-to targets — the pt ite chain initPointer builds — and
// checks the walk's path conditions: each target's is the caller's
// plus one literal per level of its depth in the chain, exactly what
// extending the caller's by the target's whole guard would give, and
// consecutive targets share their common prefix node. The null query
// comes first and reports as before.
func TestDerefWalkSharesPrefix(t *testing.T) {
	const k = 6
	prog := mustParse(kTargetSrc(k))
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	pd, _ := prog.Global("p")
	base := solver.PCTrue.And(solver.BoolVar{Name: "c"}).And(solver.Lt{X: solver.IntVar{Name: "n"}, Y: solver.IntConst{Val: 5}})
	st := State{PC: base, Mem: NewMemory()}
	v := x.ReadCell(st, x.VarObj(pd), "")
	ref := refCases(v)
	if len(ref) != k+1 {
		t.Fatalf("pointer value has %d leaves, want %d targets and null: %v", len(ref), k+1, v)
	}
	if _, ok := ref[k].leaf.(VNull); !ok {
		t.Fatalf("last leaf is %v, want null", ref[k].leaf)
	}

	q0 := x.Engine.Snapshot().SolverQueries
	out := x.derefTargets(st, v, microc.Pos{Line: 9, Col: 3}, "p")
	if got := x.Engine.Snapshot().SolverQueries - q0; got != k+1 {
		t.Fatalf("dereference issued %d queries, want %d (null case + one per target)", got, k+1)
	}
	if !hasReport(x, NullDeref, "dereference of possibly-null pointer p") {
		t.Fatalf("null dereference not reported: %v", x.Reports)
	}
	if len(out) != k {
		t.Fatalf("%d surviving targets, want %d", len(out), k)
	}
	for i, lv := range out {
		pc := lv.st.PC
		if want := ref[i].leaf.(VObj).Obj; lv.obj != want {
			t.Fatalf("target %d is %s, want %s (tree order)", i, lv.obj.Name, want.Name)
		}
		if pc.Len() != base.Len()+i+1 {
			t.Fatalf("target %d: PC has %d conjuncts, want caller's %d + %d", i, pc.Len(), base.Len(), i+1)
		}
		if want := base.And(ref[i].g); !samePC(pc, want) {
			t.Fatalf("target %d: PC %s, want %s", i, pc, want)
		}
		if i > 0 && out[i].st.PC.Parent().Parent() != out[i-1].st.PC.Parent() {
			t.Fatalf("targets %d and %d do not share their common prefix node", i-1, i)
		}
	}
	if out[0].st.PC.Parent() != base {
		t.Fatal("first target does not extend the caller's PC node")
	}

	// The null guard handed out by the walk is the flat list's, so the
	// null query is the same formula.
	var nullG []string
	walkCases(base, v, isObj, func(leaf Value, g solver.Formula) {
		if _, ok := leaf.(VNull); ok {
			nullG = append(nullG, g.String())
		}
	})
	if len(nullG) != 1 || nullG[0] != ref[k].g.String() {
		t.Fatalf("null guard %v, want [%s]", nullG, ref[k].g)
	}
}

// TestWalkCasesMatchesFlatGuards pins the walk against extending the
// caller's PC by each leaf's whole guard, on trees whose guards repeat
// or contradict each other across levels and on a caller whose newest
// conjunct is the first guard.
func TestWalkCasesMatchesFlatGuards(t *testing.T) {
	a, b, c := solver.BoolVar{Name: "a"}, solver.BoolVar{Name: "b"}, solver.BoolVar{Name: "c"}
	xlt := solver.Lt{X: solver.IntVar{Name: "x"}, Y: solver.IntConst{Val: 3}}
	id := 0
	obj := func() Value {
		id++
		return VObj{Obj: &Object{ID: id, Name: fmt.Sprintf("o%d", id)}}
	}
	trees := []Value{
		// A repeat, and a ∧ ¬a.
		VITE{a, VITE{a, obj(), obj()}, obj()},
		// A repeat two levels down.
		VITE{a, VITE{b, VITE{a, obj(), obj()}, obj()}, VITE{b, obj(), VNull{}}},
		// A guard that splits into a repeat and a new literal.
		VITE{xlt, VITE{solver.NewAnd(b, xlt), obj(), obj()}, obj()},
		// The complement of half a guard.
		VITE{solver.NewAnd(a, c), VITE{solver.NewNot(c), obj(), VNull{}}, obj()},
		// Constant guards.
		VITE{solver.True, obj(), obj()},
		VITE{solver.False, obj(), VITE{a, VInt{T: solver.IntVar{Name: "i"}}, obj()}},
	}
	bases := []*solver.PC{nil, solver.PCTrue.And(c), solver.PCTrue.And(b).And(a)}
	for ti, tree := range trees {
		for bi, base := range bases {
			ref := refCases(tree)
			var want []refCase
			var others []string
			for _, rc := range ref {
				if isObj(rc.leaf) {
					want = append(want, rc)
				} else {
					others = append(others, rc.g.String())
				}
			}
			var gotOthers []string
			got := walkCases(base, tree, isObj, func(_ Value, g solver.Formula) {
				gotOthers = append(gotOthers, g.String())
			})
			if len(got) != len(want) {
				t.Fatalf("tree %d base %d: %d object leaves, want %d", ti, bi, len(got), len(want))
			}
			for i := range got {
				if w := base.And(want[i].g); !samePC(got[i].pc, w) {
					t.Fatalf("tree %d base %d leaf %d: PC %s (dead %v), want %s (dead %v)",
						ti, bi, i, got[i].pc, got[i].pc.Dead(), w, w.Dead())
				}
			}
			if strings.Join(gotOthers, "|") != strings.Join(others, "|") {
				t.Fatalf("tree %d base %d: other-leaf guards %v, want %v", ti, bi, gotOthers, others)
			}
		}
	}
}
