package solver

import (
	"math/big"

	"mix/internal/fault"
)

// This file is the single home of literal classification: the mapping
// from an assigned decision atom to its arithmetic content. Both
// search cores share it — the DPLL functions capture/theoryOK used to
// carry two diverging copies of the switch — and the CDCL core builds
// its incremental theory trail on top of it.

// negLin returns the negated linear form of an arithmetic atom,
// computed once and cached: ¬(l <= 0) is -l < 0 and ¬(l < 0) is
// -l <= 0, so the negation of either inequality kind reverses and
// re-strictifies the same -l.
func (a *atom) negLin() *lin {
	if a.negl == nil {
		neg := a.l.clone()
		neg.scale(ratNegOne())
		a.negl = neg
	}
	return a.negl
}

// theoryLits is a conjunction of arithmetic literals in the shape
// theoryConj consumes. Literals append in assignment order and retract
// in reverse (strictly LIFO), so each kind's slice is a stack aligned
// with the search trail.
type theoryLits struct {
	eqs    []*lin
	ineqs  []ineq
	diseqs []*lin
}

// add appends the arithmetic content of atom a assigned v. Boolean
// atoms are theory-free and contribute nothing.
func (t *theoryLits) add(a *atom, v bool) {
	switch a.kind {
	case atomBool:
		// Theory-free.
	case atomEq:
		if v {
			t.eqs = append(t.eqs, a.l)
		} else {
			t.diseqs = append(t.diseqs, a.l)
		}
	case atomLe:
		if v {
			t.ineqs = append(t.ineqs, ineq{a.l, false})
		} else {
			t.ineqs = append(t.ineqs, ineq{a.negLin(), true})
		}
	case atomLt:
		if v {
			t.ineqs = append(t.ineqs, ineq{a.l, true})
		} else {
			t.ineqs = append(t.ineqs, ineq{a.negLin(), false})
		}
	}
}

// drop retracts the literal add(a, v) appended last (LIFO).
func (t *theoryLits) drop(a *atom, v bool) {
	switch a.kind {
	case atomBool:
	case atomEq:
		if v {
			t.eqs = t.eqs[:len(t.eqs)-1]
		} else {
			t.diseqs = t.diseqs[:len(t.diseqs)-1]
		}
	default:
		t.ineqs = t.ineqs[:len(t.ineqs)-1]
	}
}

// consistent decides the conjunction over the rationals. theoryConj
// clones its inputs, so the collection is reusable afterwards. The
// check observes s's context (see theoryConj); its expiry is the
// classified fault the search loops' poll returns.
func (t *theoryLits) consistent(s *Solver) (bool, error) {
	ok, _, err := theoryConj(s.Ctx, t.eqs, t.ineqs, t.diseqs, false)
	if err != nil {
		return false, fault.FromContext("solver.search", "", err)
	}
	return ok, nil
}

// model extracts a rational witness for a consistent conjunction
// through the same elimination. Extraction is best-effort: the witness
// is nil when back-substitution meets a numeric corner or s's context
// is done first, and the caller's sat verdict stands either way.
func (t *theoryLits) model(s *Solver) map[string]*big.Rat {
	_, m, err := theoryConj(s.Ctx, t.eqs, t.ineqs, t.diseqs, true)
	if err != nil {
		return nil
	}
	return m
}

// thLit is one arithmetic literal on the CDCL theory trail, tagged
// with the Boolean trail position it entered at so backjumping can
// retract exactly the right suffix.
type thLit struct {
	a        *atom
	pos      bool
	trailPos int
}

// theoryTrail maintains the assigned arithmetic literal set
// incrementally: push on assignment, shrink on backjump, and a checked
// watermark so a propagation fixpoint that added no theory literals
// costs no theory call at all.
type theoryTrail struct {
	lits    []thLit
	set     theoryLits
	checked int // lits[:checked] are known consistent
}

func (t *theoryTrail) push(a *atom, pos bool, trailPos int) {
	t.lits = append(t.lits, thLit{a, pos, trailPos})
	t.set.add(a, pos)
}

// shrink retracts every literal that entered at or after Boolean trail
// position trailLen.
func (t *theoryTrail) shrink(trailLen int) {
	for len(t.lits) > 0 && t.lits[len(t.lits)-1].trailPos >= trailLen {
		last := t.lits[len(t.lits)-1]
		t.set.drop(last.a, last.pos)
		t.lits = t.lits[:len(t.lits)-1]
	}
	if t.checked > len(t.lits) {
		t.checked = len(t.lits)
	}
}

// explainLimit caps the greedy conflict-explanation minimization: past
// this many literals the quadratic retry loop costs more than the
// weaker blocking clause it buys, so the full set is used as-is.
const explainLimit = 24

// explain returns an inconsistent subset of the current literal set,
// greedily minimized (oldest literals dropped first, deterministic
// order) so the blocking clause prunes as much of the search space as
// possible. Precondition: the current set is inconsistent.
func (t *theoryTrail) explain(s *Solver) ([]thLit, error) {
	involved := append([]thLit(nil), t.lits...)
	if len(involved) > explainLimit {
		return involved, nil
	}
	for i := 0; i < len(involved); {
		var trial theoryLits
		for j, tl := range involved {
			if j != i {
				trial.add(tl.a, tl.pos)
			}
		}
		ok, err := trial.consistent(s)
		if err != nil {
			return nil, err
		}
		if !ok {
			involved = append(involved[:i], involved[i+1:]...)
		} else {
			i++
		}
	}
	return involved, nil
}
