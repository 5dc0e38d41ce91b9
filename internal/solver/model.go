package solver

import (
	"fmt"
	"math/big"
)

// Model is a satisfying assignment: rational values for the canonical
// linear-form keys ("v:<name>" integer variables, "a:<app>" purified
// applications) and truth values for boolean variables. Variables
// absent from the model default to 0 / false; by construction of the
// NNF search that extension still satisfies the formula the model was
// extracted from.
type Model struct {
	Ints  map[string]*big.Rat
	Bools map[string]bool
}

// Eval evaluates f under the model (missing variables default to
// 0/false). This is what makes counterexample caching sound: a cached
// model is only trusted for a new query after Eval confirms it
// satisfies that query.
func (m *Model) Eval(f Formula) (bool, error) {
	switch f := f.(type) {
	case BoolConst:
		return f.Val, nil
	case BoolVar:
		return m.Bools[f.Name], nil
	case Not:
		v, err := m.Eval(f.X)
		return !v, err
	case And:
		x, err := m.Eval(f.X)
		if err != nil {
			return false, err
		}
		if !x {
			return false, nil
		}
		return m.Eval(f.Y)
	case Or:
		x, err := m.Eval(f.X)
		if err != nil {
			return false, err
		}
		if x {
			return true, nil
		}
		return m.Eval(f.Y)
	case Iff:
		x, err := m.Eval(f.X)
		if err != nil {
			return false, err
		}
		y, err := m.Eval(f.Y)
		return x == y, err
	case Eq:
		s, err := m.cmpSign(f.X, f.Y)
		return s == 0, err
	case Le:
		s, err := m.cmpSign(f.X, f.Y)
		return s <= 0, err
	case Lt:
		s, err := m.cmpSign(f.X, f.Y)
		return s < 0, err
	case nil:
		return false, fmt.Errorf("solver: nil formula")
	}
	return false, fmt.Errorf("solver: unknown formula %T", f)
}

// cmpSign returns sign(x - y) under the model. Guarded (Ite) terms are
// resolved first by evaluating their guards — the model decides which
// arm each ite denotes — so cached counterexamples stay usable against
// merged-state queries.
func (m *Model) cmpSign(x, y Term) (int, error) {
	var err error
	if termHasIte(x) {
		if x, err = m.resolveTerm(x); err != nil {
			return 0, err
		}
	}
	if termHasIte(y) {
		if y, err = m.resolveTerm(y); err != nil {
			return 0, err
		}
	}
	l, err := linSub(x, y)
	if err != nil {
		return 0, err
	}
	return evalLinExcept(l, "", m.Ints).Sign(), nil
}

// resolveTerm rewrites t with every Ite replaced by the arm its guard
// selects under the model.
func (m *Model) resolveTerm(t Term) (Term, error) {
	switch t := t.(type) {
	case Add:
		x, err := m.resolveTerm(t.X)
		if err != nil {
			return nil, err
		}
		y, err := m.resolveTerm(t.Y)
		if err != nil {
			return nil, err
		}
		return Add{x, y}, nil
	case Neg:
		x, err := m.resolveTerm(t.X)
		if err != nil {
			return nil, err
		}
		return Neg{x}, nil
	case Mul:
		x, err := m.resolveTerm(t.X)
		if err != nil {
			return nil, err
		}
		return Mul{K: t.K, X: x}, nil
	case App:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			r, err := m.resolveTerm(a)
			if err != nil {
				return nil, err
			}
			args[i] = r
		}
		return App{Fn: t.Fn, Args: args}, nil
	case Ite:
		g, err := m.Eval(t.G)
		if err != nil {
			return nil, err
		}
		if g {
			return m.resolveTerm(t.X)
		}
		return m.resolveTerm(t.Y)
	}
	return t, nil
}

// gaussStep records one Gaussian pivot: e still contains c*v; after
// every later variable is valued, v = -(e - c*v)/c.
type gaussStep struct {
	v string
	c *big.Rat
	e *lin
}

// fmStep records one Fourier–Motzkin elimination: the lower and upper
// bound rows for v, each still containing v (and possibly variables
// eliminated in later steps, which back-substitution values first).
type fmStep struct {
	v              string
	lowers, uppers []ineq
}

// witnessOf rebuilds a rational witness from the steps a sat
// elimination recorded, or returns nil on a numeric corner (the caller
// drops the witness; the sat verdict stands).
func witnessOf(gsteps []gaussStep, fsteps []fmStep) map[string]*big.Rat {
	// Back-substitute. FM steps first, newest-first: a step's bound rows
	// may mention variables eliminated in later steps, which are then
	// already valued; anything still unvalued reads as 0.
	model := map[string]*big.Rat{}
	for i := len(fsteps) - 1; i >= 0; i-- {
		st := fsteps[i]
		v, ok := pickWithin(st, model)
		if !ok {
			return nil // numeric inconsistency
		}
		model[st.v] = v
	}
	// Gauss pivots newest-first: each pivot equation mentions only later
	// pivots, FM variables, and free variables.
	for i := len(gsteps) - 1; i >= 0; i-- {
		st := gsteps[i]
		r := evalLinExcept(st.e, st.v, model)
		val := new(big.Rat).Neg(r)
		val.Quo(val, st.c)
		model[st.v] = val
	}
	return model
}

// evalLinExcept evaluates l under the partial model, skipping the v
// term (v == "" skips nothing: no key is empty); unvalued variables
// read as 0.
func evalLinExcept(l *lin, v string, model map[string]*big.Rat) *big.Rat {
	r := new(big.Rat).Set(l.k)
	for key, c := range l.coefs {
		if key == v {
			continue
		}
		if mv, ok := model[key]; ok {
			r.Add(r, new(big.Rat).Mul(c, mv))
		}
	}
	return r
}

// pickWithin chooses a value for st.v between its tightest lower and
// upper bounds under the partial model (rational semantics: any
// nonempty interval, open or closed, has a witness).
func pickWithin(st fmStep, model map[string]*big.Rat) (*big.Rat, bool) {
	var lo, hi *big.Rat
	var loStrict, hiStrict bool
	for _, in := range st.lowers {
		c := in.l.coefs[st.v] // negative: c*v + r <= 0  =>  v >= -r/c
		b := boundOf(in, st.v, c, model)
		if lo == nil || b.Cmp(lo) > 0 {
			lo, loStrict = b, in.strict
		} else if b.Cmp(lo) == 0 && in.strict {
			loStrict = true
		}
	}
	for _, in := range st.uppers {
		c := in.l.coefs[st.v] // positive: c*v + r <= 0  =>  v <= -r/c
		b := boundOf(in, st.v, c, model)
		if hi == nil || b.Cmp(hi) < 0 {
			hi, hiStrict = b, in.strict
		} else if b.Cmp(hi) == 0 && in.strict {
			hiStrict = true
		}
	}
	switch {
	case lo == nil && hi == nil:
		return new(big.Rat), true
	case hi == nil:
		if loStrict {
			return new(big.Rat).Add(lo, big.NewRat(1, 1)), true
		}
		return lo, true
	case lo == nil:
		if hiStrict {
			return new(big.Rat).Sub(hi, big.NewRat(1, 1)), true
		}
		return hi, true
	}
	switch lo.Cmp(hi) {
	case -1:
		mid := new(big.Rat).Add(lo, hi)
		mid.Mul(mid, big.NewRat(1, 2))
		return mid, true
	case 0:
		if loStrict || hiStrict {
			return nil, false
		}
		return lo, true
	}
	return nil, false
}

// boundOf computes -r/c for the row's residue r = eval(l - c*v).
func boundOf(in ineq, v string, c *big.Rat, model map[string]*big.Rat) *big.Rat {
	r := evalLinExcept(in.l, v, model)
	b := new(big.Rat).Neg(r)
	b.Quo(b, c)
	return b
}
