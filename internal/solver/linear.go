package solver

import (
	"context"
	"fmt"
	"math/big"
	"strings"
)

// lin is a linear combination of variables with rational coefficients
// plus a rational constant. Variable keys are canonical strings:
// "v:<name>" for integer variables and "a:<canonical app>" for purified
// uninterpreted-function applications.
type lin struct {
	coefs map[string]*big.Rat
	k     *big.Rat
}

func newLin() *lin {
	return &lin{coefs: map[string]*big.Rat{}, k: new(big.Rat)}
}

func linConst(v int64) *lin {
	l := newLin()
	l.k.SetInt64(v)
	return l
}

func linVar(key string) *lin {
	l := newLin()
	l.coefs[key] = big.NewRat(1, 1)
	return l
}

func (l *lin) clone() *lin {
	c := newLin()
	c.k.Set(l.k)
	for k, v := range l.coefs {
		c.coefs[k] = new(big.Rat).Set(v)
	}
	return c
}

// addScaled adds s*other into l in place.
func (l *lin) addScaled(other *lin, s *big.Rat) {
	l.k.Add(l.k, new(big.Rat).Mul(other.k, s))
	for k, v := range other.coefs {
		cur, ok := l.coefs[k]
		if !ok {
			cur = new(big.Rat)
			l.coefs[k] = cur
		}
		cur.Add(cur, new(big.Rat).Mul(v, s))
		if cur.Sign() == 0 {
			delete(l.coefs, k)
		}
	}
}

func (l *lin) scale(s *big.Rat) {
	l.k.Mul(l.k, s)
	for k, v := range l.coefs {
		v.Mul(v, s)
		if v.Sign() == 0 {
			delete(l.coefs, k)
		}
	}
}

func (l *lin) isConst() bool { return len(l.coefs) == 0 }

// canon returns a deterministic string for l, used both as an atom key
// and as the canonical form of App arguments.
func (l *lin) canon() string {
	var sb strings.Builder
	for _, k := range sortedKeys(l.coefs) {
		fmt.Fprintf(&sb, "%s*%s+", l.coefs[k].RatString(), k)
	}
	sb.WriteString(l.k.RatString())
	return sb.String()
}

// normalizeSign scales l so its leading (first sorted) coefficient is
// positive; valid only for equalities (both sides of =0 are symmetric).
func (l *lin) normalizeSign() {
	ks := sortedKeys(l.coefs)
	var lead *big.Rat
	if len(ks) > 0 {
		lead = l.coefs[ks[0]]
	} else {
		lead = l.k
	}
	if lead.Sign() < 0 {
		l.scale(big.NewRat(-1, 1))
	}
}

// linearize converts a Term into a linear combination, purifying App
// subterms into fresh canonical variables.
func linearize(t Term) (*lin, error) {
	switch t := t.(type) {
	case IntConst:
		return linConst(t.Val), nil
	case IntVar:
		return linVar("v:" + t.Name), nil
	case Add:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		y, err := linearize(t.Y)
		if err != nil {
			return nil, err
		}
		x.addScaled(y, big.NewRat(1, 1))
		return x, nil
	case Neg:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		x.scale(big.NewRat(-1, 1))
		return x, nil
	case Mul:
		x, err := linearize(t.X)
		if err != nil {
			return nil, err
		}
		x.scale(big.NewRat(t.K, 1))
		return x, nil
	case App:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			la, err := linearize(a)
			if err != nil {
				return nil, err
			}
			parts[i] = la.canon()
		}
		return linVar("a:" + t.Fn + "(" + strings.Join(parts, ",") + ")"), nil
	case nil:
		return nil, fmt.Errorf("solver: nil term")
	default:
		return nil, fmt.Errorf("solver: unknown term %T", t)
	}
}

// linSub computes lin(x) - lin(y).
func linSub(x, y Term) (*lin, error) {
	lx, err := linearize(x)
	if err != nil {
		return nil, err
	}
	ly, err := linearize(y)
	if err != nil {
		return nil, err
	}
	lx.addScaled(ly, big.NewRat(-1, 1))
	return lx, nil
}

// ineq is l <= 0, or l < 0 when strict.
type ineq struct {
	l      *lin
	strict bool
}

// dedupIneqs drops, in place, each row that repeats an earlier one
// exactly: same strictness, constant and coefficients. A repeat adds no
// constraint, but Fourier–Motzkin combines it with every opposite
// bound, so each round would multiply it. First occurrences keep their
// order, so the elimination order, the verdict and the witness are
// those of the rows with repeats. Rows are compared pairwise, which
// allocates nothing.
func dedupIneqs(ins []ineq) []ineq {
	out := ins[:0]
next:
	for _, in := range ins {
		for _, kept := range out {
			if kept.strict == in.strict && kept.l.equal(in.l) {
				continue next
			}
		}
		out = append(out, in)
	}
	return out
}

// equal reports whether l and m have the same constant and
// coefficients.
func (l *lin) equal(m *lin) bool {
	if len(l.coefs) != len(m.coefs) || l.k.Cmp(m.k) != 0 {
		return false
	}
	for k, c := range l.coefs {
		if d, ok := m.coefs[k]; !ok || c.Cmp(d) != 0 {
			return false
		}
	}
	return true
}

// ctxDone returns ctx's error once it is done, and nil before that or
// for a nil ctx.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// theoryConj decides the satisfiability (over the rationals) of a
// conjunction of equalities (each lin = 0), inequalities, and
// disequalities (each lin != 0). The case split makes one call cost up
// to 2^len(diseqs) eliminations, so ctx is observed at every split and
// every elimination round (per lower bound within a Fourier–Motzkin
// round): once it is done the check stops with ctx.Err().
//
// Fourier–Motzkin keeps one copy of each row (dedupIneqs): the CDCL
// trail can hold two atoms with the same arithmetic content (x ≤ y and
// ¬(y < x)), and one elimination round often derives a row twice.
//
// With witness set, the eliminations also record each Gaussian pivot
// and Fourier–Motzkin step, and a sat answer comes with a rational
// witness back-substituted from them (witnessOf). The witness is nil
// only when back-substitution meets a numeric corner; the sat verdict
// stands either way.
func theoryConj(ctx context.Context, eqs []*lin, ineqs []ineq, diseqs []*lin, witness bool) (bool, map[string]*big.Rat, error) {
	// Case-split disequalities: l != 0 becomes l < 0 or -l < 0.
	if len(diseqs) > 0 {
		if err := ctxDone(ctx); err != nil {
			return false, nil, err
		}
		d, rest := diseqs[0], diseqs[1:]
		lt := append(append([]ineq{}, ineqs...), ineq{d.clone(), true})
		if sat, m, err := theoryConj(ctx, eqs, lt, rest, witness); sat || err != nil {
			return sat, m, err
		}
		neg := d.clone()
		neg.scale(big.NewRat(-1, 1))
		gt := append(append([]ineq{}, ineqs...), ineq{neg, true})
		return theoryConj(ctx, eqs, gt, rest, witness)
	}

	// Copy so elimination does not alias the caller's slices.
	eqs2 := make([]*lin, len(eqs))
	for i, e := range eqs {
		eqs2[i] = e.clone()
	}
	ins := make([]ineq, len(ineqs))
	for i, in := range ineqs {
		ins[i] = ineq{in.l.clone(), in.strict}
	}

	// Gaussian elimination of equalities.
	var gsteps []gaussStep
	for len(eqs2) > 0 {
		if err := ctxDone(ctx); err != nil {
			return false, nil, err
		}
		e := eqs2[0]
		eqs2 = eqs2[1:]
		if e.isConst() {
			if e.k.Sign() != 0 {
				return false, nil, nil
			}
			continue
		}
		ks := sortedKeys(e.coefs)
		v := ks[0]
		c := e.coefs[v]
		if witness {
			gsteps = append(gsteps, gaussStep{v: v, c: c, e: e})
		}
		// v = -(e - c*v)/c ; substitute: for every other constraint f
		// with coefficient d on v, f := f - (d/c)*e.
		for _, f := range eqs2 {
			if d, ok := f.coefs[v]; ok {
				s := new(big.Rat).Quo(d, c)
				s.Neg(s)
				f.addScaled(e, s)
			}
		}
		for i := range ins {
			if d, ok := ins[i].l.coefs[v]; ok {
				s := new(big.Rat).Quo(d, c)
				s.Neg(s)
				ins[i].l.addScaled(e, s)
			}
		}
	}

	// Fourier–Motzkin elimination of inequalities.
	ins = dedupIneqs(ins)
	var fsteps []fmStep
	for {
		if err := ctxDone(ctx); err != nil {
			return false, nil, err
		}
		// Find a variable still present.
		var v string
		found := false
		for _, in := range ins {
			if len(in.l.coefs) > 0 {
				v = sortedKeys(in.l.coefs)[0]
				found = true
				break
			}
		}
		if !found {
			break
		}
		var lowers, uppers []ineq // lowers: coef<0 (v >= bound); uppers: coef>0
		var rest []ineq
		for _, in := range ins {
			c, ok := in.l.coefs[v]
			switch {
			case !ok:
				rest = append(rest, in)
			case c.Sign() > 0:
				uppers = append(uppers, in)
			default:
				lowers = append(lowers, in)
			}
		}
		if witness {
			fsteps = append(fsteps, fmStep{v: v, lowers: lowers, uppers: uppers})
		}
		for _, lo := range lowers {
			// A round combines every lower with every upper bound, so
			// one round can itself grow quadratically: observe ctx per
			// lower bound as well.
			if err := ctxDone(ctx); err != nil {
				return false, nil, err
			}
			for _, up := range uppers {
				cl := lo.l.coefs[v] // negative
				cu := up.l.coefs[v] // positive
				// Combine: cu*lo + (-cl)*up eliminates v.
				comb := lo.l.clone()
				comb.scale(cu)
				scaledUp := up.l.clone()
				negCl := new(big.Rat).Neg(cl)
				scaledUp.scale(negCl)
				comb.addScaled(scaledUp, big.NewRat(1, 1))
				delete(comb.coefs, v) // numeric residue, if any, is zero
				rest = append(rest, ineq{comb, lo.strict || up.strict})
			}
		}
		ins = dedupIneqs(rest)
	}

	for _, in := range ins {
		if !in.l.isConst() {
			continue
		}
		s := in.l.k.Sign()
		if s > 0 || (s == 0 && in.strict) {
			return false, nil, nil
		}
	}
	if !witness {
		return true, nil, nil
	}
	return true, witnessOf(gsteps, fsteps), nil
}
