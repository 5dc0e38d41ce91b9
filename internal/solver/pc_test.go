package solver

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// genGuard draws a branch-guard-shaped formula over x, y, p, q: a
// single-variable bound, a boolean literal, or a genFormula formula of
// depth 0 or 1, so runs mix the fast path's fragment with shapes it
// must give up on.
func genGuard(r *rand.Rand) Formula {
	switch r.Intn(3) {
	case 0:
		v := IntVar{[]string{"x", "y"}[r.Intn(2)]}
		c := IntConst{int64(r.Intn(5) - 2)}
		switch r.Intn(5) {
		case 0:
			return Eq{v, c}
		case 1:
			return NewNot(Eq{c, v})
		case 2:
			return Le{v, c}
		case 3:
			return Lt{c, v}
		default:
			return NewNot(Lt{v, c})
		}
	case 1:
		b := BoolVar{[]string{"p", "q"}[r.Intn(2)]}
		if r.Intn(2) == 0 {
			return NewNot(b)
		}
		return b
	}
	return genFormula(r, r.Intn(2))
}

// splitConj simplifies f and splits it into top-level conjuncts, the
// shape PC.Quick takes; ok=false when f simplifies to false.
func splitConj(f Formula, out []Formula) ([]Formula, bool) {
	switch f := Simplify(f).(type) {
	case BoolConst:
		return out, f.Val
	case And:
		var ok bool
		if out, ok = splitConj(f.X, out); !ok {
			return out, false
		}
		return splitConj(f.Y, out)
	default:
		return append(out, f), true
	}
}

// maxConst is the largest constant magnitude in f.
func maxConst(f Formula) int64 {
	var m int64
	var term func(t Term)
	term = func(t Term) {
		switch t := t.(type) {
		case IntConst:
			m = max(m, t.Val, -t.Val)
		case Add:
			term(t.X)
			term(t.Y)
		case Neg:
			term(t.X)
		case Mul:
			m = max(m, t.K, -t.K)
			term(t.X)
		}
	}
	var form func(f Formula)
	form = func(f Formula) {
		switch f := f.(type) {
		case Not:
			form(f.X)
		case And:
			form(f.X)
			form(f.Y)
		case Or:
			form(f.X)
			form(f.Y)
		case Iff:
			form(f.X)
			form(f.Y)
		case Eq:
			term(f.X)
			term(f.Y)
		case Le:
			term(f.X)
			term(f.Y)
		case Lt:
			term(f.X)
			term(f.Y)
		}
	}
	form(f)
	return m
}

// doubleConsts scales every integer constant of f by two.
func doubleConsts(f Formula) Formula {
	var term func(t Term) Term
	term = func(t Term) Term {
		switch t := t.(type) {
		case IntConst:
			return IntConst{2 * t.Val}
		case Add:
			return Add{term(t.X), term(t.Y)}
		case Neg:
			return Neg{term(t.X)}
		}
		return t // IntVar, Mul{K, IntVar}: homogeneous
	}
	var form func(f Formula) Formula
	form = func(f Formula) Formula {
		switch f := f.(type) {
		case Not:
			return Not{form(f.X)}
		case And:
			return And{form(f.X), form(f.Y)}
		case Or:
			return Or{form(f.X), form(f.Y)}
		case Iff:
			return Iff{form(f.X), form(f.Y)}
		case Eq:
			return Eq{term(f.X), term(f.Y)}
		case Le:
			return Le{term(f.X), term(f.Y)}
		case Lt:
			return Lt{term(f.X), term(f.Y)}
		}
		return f
	}
	return form(f)
}

// bruteSatHalf is bruteSat on the half-integer grid wide enough for
// f's constants: f's atoms are linear, so f holds at (x, y) iff f with
// doubled constants holds at (2x, 2y). Every nonempty conjunction of
// single-variable bounds and disequalities over integer constants of
// magnitude at most M has a point on that grid within [-M-1, M+1] —
// the fast path's rational answers are exact against it.
func bruteSatHalf(f Formula) bool {
	lim := 2 * (maxConst(f) + 1)
	g := doubleConsts(f)
	for xi := -lim; xi <= lim; xi++ {
		for yi := -lim; yi <= lim; yi++ {
			for _, pv := range [2]bool{false, true} {
				for _, qv := range [2]bool{false, true} {
					env := bruteEnv{
						ints:  map[string]int64{"x": xi, "y": yi},
						bools: map[string]bool{"p": pv, "q": qv},
					}
					if bruteEvalFormula(g, env) {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestPCQuickMatchesQuickConj: a path condition built conjunct by
// conjunct carries the fast path's state, and at every prefix, with
// random extras, the node's state plus the extras decides exactly what
// QuickConj decides on the flat conjunct list — and every decided
// answer agrees with the brute-force oracle. Prefixes are probed again
// after longer paths grew from them, so a state that leaked updates
// into its parent's would show.
func TestPCQuickMatchesQuickConj(t *testing.T) {
	r := rand.New(rand.NewSource(20100605))
	var sats, unsats, undecided int
	for trial := 0; trial < 300; trial++ {
		var pc *PC
		var prefixes []*PC
		for step := 0; step < 8; step++ {
			pc = pc.And(genGuard(r))
			prefixes = append(prefixes, pc)
			for probe := 0; probe < 3; probe++ {
				// Probe the newest node and, after it, earlier prefixes:
				// their states are shared with the nodes built since.
				pc := pc
				if probe > 0 {
					pc = prefixes[r.Intn(len(prefixes))]
				}
				var xs []Formula
				ok := true
				for i := r.Intn(3); i > 0 && ok; i-- {
					xs, ok = splitConj(genGuard(r), xs)
				}
				if !ok {
					continue // a literally false extra never reaches the fast path
				}
				flat := append(pc.Conjuncts(), xs...)
				sat, dec := pc.Quick(xs)
				wantSat, wantDec := QuickConj(flat)
				if dec != wantDec || sat != wantSat {
					t.Fatalf("PC %s + extras %v: Quick = (%v,%v), QuickConj = (%v,%v)", pc, xs, sat, dec, wantSat, wantDec)
				}
				if !dec {
					undecided++
					continue
				}
				if sat {
					sats++
				} else {
					unsats++
				}
				if oracle := bruteSatHalf(Conj(flat...)); sat != oracle {
					t.Fatalf("PC %s + extras %v: fast path says sat=%v, brute force %v", pc, xs, sat, oracle)
				}
			}
		}
	}
	t.Logf("%d sat, %d unsat, %d undecided queries", sats, unsats, undecided)
	if sats < 200 || unsats < 200 || undecided < 200 {
		t.Fatal("weak coverage: the run must exercise every kind of answer")
	}
}

// TestChainMatchesAnd: extending a path condition guard by guard with
// Chain yields exactly And of the guards' conjunction — same
// conjuncts, same deadness — including when guards repeat or
// contradict earlier ones; siblings share the prefix's nodes.
func TestChainMatchesAnd(t *testing.T) {
	r := rand.New(rand.NewSource(1976))
	for trial := 0; trial < 2000; trial++ {
		var base *PC
		for i := r.Intn(3); i > 0; i-- {
			base = base.And(genGuard(r))
		}
		c := base.Chain()
		var gs []Formula
		for i := 1 + r.Intn(5); i > 0; i-- {
			g := genGuard(r)
			gs = append(gs, g)
			c = c.And(g)
		}
		conj := True
		for i := len(gs) - 1; i >= 0; i-- {
			conj = NewAnd(gs[i], conj)
		}
		want := base.And(conj)
		got := c.PC()
		if got.Len() != want.Len() || got.Dead() != want.Dead() || got.String() != want.String() {
			t.Fatalf("base %s, guards %v:\n chain %s (len %d, dead %v)\n And   %s (len %d, dead %v)",
				base, gs, got, got.Len(), got.Dead(), want, want.Len(), want.Dead())
		}
	}
	p, q := BoolVar{"p"}, BoolVar{"q"}
	mid := PCTrue.And(BoolVar{"r"}).Chain().And(p)
	then, els := mid.And(q), mid.And(NewNot(q))
	if then.PC().Parent() != mid.PC() || els.PC().Parent() != mid.PC() {
		t.Fatal("sibling chain extensions do not share the prefix node")
	}
}

// TestPCSharedAcrossGoroutines: sibling paths on several workers read
// one path condition's nodes at once — the interval state and the
// support tokens a node publishes on its first Head call — and extend
// it concurrently. Run it under -race.
func TestPCSharedAcrossGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var pc *PC
	for i := 0; i < 16; i++ {
		pc = pc.And(genGuard(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := pc; q != nil; q = q.Parent() {
				f, sup := q.Head()
				if want := Support(f); !slices.Equal(sup, want) {
					t.Errorf("worker %d: support of %s = %v, want %v", w, f, sup, want)
				}
				extra := Lt{IntVar{"x"}, IntConst{int64(w)}}
				sat, dec := q.Quick([]Formula{extra})
				wantSat, wantDec := QuickConj(append(q.Conjuncts(), extra))
				if sat != wantSat || dec != wantDec {
					t.Errorf("worker %d: Quick on %s = (%v,%v), want (%v,%v)", w, q, sat, dec, wantSat, wantDec)
				}
				q.Chain().And(BoolVar{"q"}).And(extra)
			}
		}()
	}
	wg.Wait()
}

// TestQuickStateHolesNotShared: a disequality folded into one path's
// state, or into a query's scratch fold, must not leak into a sibling
// path's state through a shared holes array.
func TestQuickStateHolesNotShared(t *testing.T) {
	x := IntVar{"x"}
	var base *PC
	for c := int64(1); c <= 3; c++ {
		base = base.And(NewNot(Eq{x, IntConst{c}}))
	}
	b := base.And(NewNot(Eq{x, IntConst{4}}))
	c := base.And(NewNot(Eq{x, IntConst{5}}))
	base.Quick([]Formula{NewNot(Eq{x, IntConst{6}})})
	for _, tc := range []struct {
		pc   *PC
		hole int64
	}{{b, 4}, {c, 5}} {
		if sat, dec := tc.pc.Quick([]Formula{Eq{x, IntConst{tc.hole}}}); sat || !dec {
			t.Fatalf("%s ∧ x = %d: Quick = (%v,%v), want unsat", tc.pc, tc.hole, sat, dec)
		}
	}
}

// TestPCReassertedGuardKeepsNode: re-asserting the newest conjunct
// returns the existing node instead of growing the path condition.
func TestPCReassertedGuardKeepsNode(t *testing.T) {
	p := PCTrue.And(BoolVar{"p"})
	if again := p.And(BoolVar{"p"}); again != p {
		t.Fatal("a re-asserted guard must return the same node")
	}
	q := p.And(BoolVar{"q"})
	if q == p || q.Len() != 2 {
		t.Fatalf("a new guard must add a node: got %s (len %d)", q, q.Len())
	}
}
