package sym

import (
	"fmt"
	"strconv"

	"mix/internal/solver"
	"mix/internal/types"
)

// Translator lowers typed symbolic expressions into solver formulas
// and terms. Conditional expressions and ambiguous reads from write
// logs lower to guarded solver.Ite terms — structural, hence canonical
// across repeated translations of one value — which the solver itself
// replaces by fresh variables with defining clauses (solver.elimIte),
// so a translation carries no side constraints: the query about a
// value v is its formula alone.
//
// Pointers are modeled as integers. Distinct allocation sites yield
// distinct symbolic variables; the translator resolves reads against
// the write log, using syntactic address equality to take a write,
// alloc-freshness to skip one, and an ITE split when neither applies.
type Translator struct {
	allocIDs map[int]bool
}

// NewTranslator returns an empty translator. One translator should be
// shared across all values of a single solver query, so that the
// allocation sites it has seen in one value's memory count as distinct
// addresses in the others.
func NewTranslator() *Translator {
	return &Translator{allocIDs: map[int]bool{}}
}

// Formula lowers a bool-typed value to a solver formula.
func (t *Translator) Formula(v Val) (solver.Formula, error) {
	if v.IsZero() {
		return nil, fmt.Errorf("sym: translating zero value")
	}
	if !types.Equal(v.T, types.Bool) {
		return nil, fmt.Errorf("sym: %s is not bool-typed", v)
	}
	switch u := v.U.(type) {
	case BoolConst:
		return solver.BoolConst{Val: u.Val}, nil
	case SymVar:
		return solver.BoolVar{Name: "p" + strconv.Itoa(u.ID)}, nil
	case EqOp:
		if types.Equal(u.X.T, types.Bool) {
			fx, err := t.Formula(u.X)
			if err != nil {
				return nil, err
			}
			fy, err := t.Formula(u.Y)
			if err != nil {
				return nil, err
			}
			return solver.Iff{X: fx, Y: fy}, nil
		}
		tx, err := t.Term(u.X)
		if err != nil {
			return nil, err
		}
		ty, err := t.Term(u.Y)
		if err != nil {
			return nil, err
		}
		return solver.Eq{X: tx, Y: ty}, nil
	case LtOp:
		tx, err := t.Term(u.X)
		if err != nil {
			return nil, err
		}
		ty, err := t.Term(u.Y)
		if err != nil {
			return nil, err
		}
		return solver.Lt{X: tx, Y: ty}, nil
	case NotOp:
		fx, err := t.Formula(u.X)
		if err != nil {
			return nil, err
		}
		return solver.NewNot(fx), nil
	case AndOp:
		fx, err := t.Formula(u.X)
		if err != nil {
			return nil, err
		}
		fy, err := t.Formula(u.Y)
		if err != nil {
			return nil, err
		}
		return solver.NewAnd(fx, fy), nil
	case CondOp:
		g, err := t.Formula(u.G)
		if err != nil {
			return nil, err
		}
		fx, err := t.Formula(u.X)
		if err != nil {
			return nil, err
		}
		fy, err := t.Formula(u.Y)
		if err != nil {
			return nil, err
		}
		return solver.NewOr(solver.NewAnd(g, fx), solver.NewAnd(solver.NewNot(g), fy)), nil
	case MemRead:
		return t.readFormula(u.M, u.Ptr)
	}
	return nil, fmt.Errorf("sym: cannot translate %s to a formula", v)
}

// Term lowers an int- or ref-typed value to a solver term.
func (t *Translator) Term(v Val) (solver.Term, error) {
	if v.IsZero() {
		return nil, fmt.Errorf("sym: translating zero value")
	}
	switch u := v.U.(type) {
	case IntConst:
		return solver.IntConst{Val: u.Val}, nil
	case SymVar:
		return solver.IntVar{Name: "s" + strconv.Itoa(u.ID)}, nil
	case AddOp:
		tx, err := t.Term(u.X)
		if err != nil {
			return nil, err
		}
		ty, err := t.Term(u.Y)
		if err != nil {
			return nil, err
		}
		return solver.Add{X: tx, Y: ty}, nil
	case CondOp:
		g, err := t.Formula(u.G)
		if err != nil {
			return nil, err
		}
		tx, err := t.Term(u.X)
		if err != nil {
			return nil, err
		}
		ty, err := t.Term(u.Y)
		if err != nil {
			return nil, err
		}
		return t.ite(g, tx, ty), nil
	case MemRead:
		return t.readTerm(u.M, u.Ptr)
	}
	return nil, fmt.Errorf("sym: cannot translate %s to a term", v)
}

// ite builds a guarded term directly. The solver lowers any surviving
// Ite to a fresh variable with defining clauses itself (see
// solver.elimIte); emitting the structural term instead of a
// translator-local fresh variable keeps queries canonical — two
// translations of the same value produce the same formula — so the
// engine's memo table and counterexample cache fire across them.
func (t *Translator) ite(g solver.Formula, x, y solver.Term) solver.Term {
	return solver.NewIte(g, x, y)
}

// collectAllocs records the allocation addresses of a memory log so
// distinct allocations can be treated as disequal during read
// resolution.
func (t *Translator) collectAllocs(m Mem) {
	switch m := m.(type) {
	case Alloc:
		if sv, ok := m.Addr.U.(SymVar); ok {
			t.allocIDs[sv.ID] = true
		}
		t.collectAllocs(m.Base)
	case Update:
		t.collectAllocs(m.Base)
	case CondMem:
		t.collectAllocs(m.M1)
		t.collectAllocs(m.M2)
	}
}

// distinctAddrs reports whether a and b are certainly different
// locations: two different allocation variables ("an allocation always
// creates a new location distinct from the locations in the base
// unknown memory").
func (t *Translator) distinctAddrs(a, b Val) bool {
	sa, oka := a.U.(SymVar)
	sb, okb := b.U.(SymVar)
	return oka && okb && sa.ID != sb.ID && t.allocIDs[sa.ID] && t.allocIDs[sb.ID]
}

// readTerm resolves m[ptr] at integer/pointer type, walking the write
// log outermost-entry first.
func (t *Translator) readTerm(m Mem, ptr Val) (solver.Term, error) {
	t.collectAllocs(m)
	return t.readTermWalk(m, ptr)
}

func (t *Translator) readTermWalk(m Mem, ptr Val) (solver.Term, error) {
	switch m := m.(type) {
	case MemVar:
		p, err := t.Term(ptr)
		if err != nil {
			return nil, err
		}
		return solver.App{Fn: fmt.Sprintf("sel%d", m.ID), Args: []solver.Term{p}}, nil
	case Update:
		return t.readEntryTerm(m.Base, m.Addr, m.V, ptr)
	case Alloc:
		return t.readEntryTerm(m.Base, m.Addr, m.V, ptr)
	case CondMem:
		g, err := t.Formula(m.G)
		if err != nil {
			return nil, err
		}
		x, err := t.readTermWalk(m.M1, ptr)
		if err != nil {
			return nil, err
		}
		y, err := t.readTermWalk(m.M2, ptr)
		if err != nil {
			return nil, err
		}
		return t.ite(g, x, y), nil
	}
	return nil, fmt.Errorf("sym: unknown memory %T", m)
}

func (t *Translator) readEntryTerm(base Mem, addr, v, ptr Val) (solver.Term, error) {
	if ValEqual(addr, ptr) {
		return t.Term(v)
	}
	// Reads happen only after ⊢ m ok, so memory is type-segregated:
	// differently-annotated pointers cannot alias.
	if !types.Equal(addr.T, ptr.T) || t.distinctAddrs(addr, ptr) {
		return t.readTermWalk(base, ptr)
	}
	ta, err := t.Term(addr)
	if err != nil {
		return nil, err
	}
	tp, err := t.Term(ptr)
	if err != nil {
		return nil, err
	}
	tv, err := t.Term(v)
	if err != nil {
		return nil, err
	}
	rest, err := t.readTermWalk(base, ptr)
	if err != nil {
		return nil, err
	}
	return t.ite(solver.Eq{X: ta, Y: tp}, tv, rest), nil
}

// readFormula resolves m[ptr] at boolean type.
func (t *Translator) readFormula(m Mem, ptr Val) (solver.Formula, error) {
	t.collectAllocs(m)
	return t.readFormulaWalk(m, ptr)
}

func (t *Translator) readFormulaWalk(m Mem, ptr Val) (solver.Formula, error) {
	switch m := m.(type) {
	case MemVar:
		p, err := t.Term(ptr)
		if err != nil {
			return nil, err
		}
		// A boolean read from the arbitrary base memory: one boolean
		// variable per distinct (memory, address) spelling. Distinct
		// spellings of equal addresses get distinct variables, which
		// over-approximates satisfiability (conservative).
		return solver.BoolVar{Name: fmt.Sprintf("selb%d[%s]", m.ID, p.String())}, nil
	case Update:
		return t.readEntryFormula(m.Base, m.Addr, m.V, ptr)
	case Alloc:
		return t.readEntryFormula(m.Base, m.Addr, m.V, ptr)
	case CondMem:
		g, err := t.Formula(m.G)
		if err != nil {
			return nil, err
		}
		x, err := t.readFormulaWalk(m.M1, ptr)
		if err != nil {
			return nil, err
		}
		y, err := t.readFormulaWalk(m.M2, ptr)
		if err != nil {
			return nil, err
		}
		return solver.NewOr(solver.NewAnd(g, x), solver.NewAnd(solver.NewNot(g), y)), nil
	}
	return nil, fmt.Errorf("sym: unknown memory %T", m)
}

func (t *Translator) readEntryFormula(base Mem, addr, v, ptr Val) (solver.Formula, error) {
	if ValEqual(addr, ptr) {
		return t.Formula(v)
	}
	if !types.Equal(addr.T, ptr.T) || t.distinctAddrs(addr, ptr) {
		return t.readFormulaWalk(base, ptr)
	}
	ta, err := t.Term(addr)
	if err != nil {
		return nil, err
	}
	tp, err := t.Term(ptr)
	if err != nil {
		return nil, err
	}
	fv, err := t.Formula(v)
	if err != nil {
		return nil, err
	}
	rest, err := t.readFormulaWalk(base, ptr)
	if err != nil {
		return nil, err
	}
	eq := solver.Eq{X: ta, Y: tp}
	return solver.NewOr(solver.NewAnd(eq, fv), solver.NewAnd(solver.NewNot(eq), rest)), nil
}
