package solver

import (
	"fmt"
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

// randomExtras draws up to two genGuard formulas as a query's extras,
// split into conjuncts; ok=false when one is literally false, which
// never reaches the fast path.
func randomExtras(r *rand.Rand) (xs []Formula, ok bool) {
	ok = true
	for i := r.Intn(3); i > 0 && ok; i-- {
		xs, ok = splitConj(genGuard(r), xs)
	}
	return xs, ok
}

// probeQuick decides pc ∧ xs with the fast path and fails the test
// unless the answer is QuickConj's on the flat conjunct list and, when
// decided, the brute-force oracle's.
func probeQuick(t *testing.T, pc *PC, xs []Formula) (sat, dec bool) {
	t.Helper()
	flat := append(pc.Conjuncts(), xs...)
	sat, dec = pc.Quick(xs)
	if wantSat, wantDec := QuickConj(flat); dec != wantDec || sat != wantSat {
		t.Fatalf("PC %s + extras %v: Quick = (%v,%v), QuickConj = (%v,%v)", pc, xs, sat, dec, wantSat, wantDec)
	}
	if !dec {
		return sat, dec
	}
	if oracle := bruteSatHalf(Conj(flat...)); sat != oracle {
		t.Fatalf("PC %s + extras %v: fast path says sat=%v, brute force %v", pc, xs, sat, oracle)
	}
	return sat, dec
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
				xs, ok := randomExtras(r)
				if !ok {
					continue
				}
				switch sat, dec := probeQuick(t, pc, xs); {
				case !dec:
					undecided++
				case sat:
					sats++
				default:
					unsats++
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

// TestPCSharedAcrossGoroutines: concurrent checks, such as the
// daemon's requests, can read one path condition's nodes at once (every
// path starts from PCTrue) — the interval state and the support tokens
// a node publishes on its first Head call — and extend it
// concurrently. Run it under -race.
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

// genLongGuard draws a guard over ints (and p when withBool) that
// holds at the hidden point at, except about one time in 25: a
// disequality from some other value, a bound at or beyond at's
// coordinate, or a boolean literal. So a path stays alive for dozens
// of conjuncts while each of its few variables' facts is rewritten
// again and again, and now and then one dies.
func genLongGuard(r *rand.Rand, ints []string, withBool bool, at map[string]int64) Formula {
	if withBool && r.Intn(6) == 0 {
		p := BoolVar{"p"}
		if (r.Intn(25) == 0) != (at["p"] == 0) {
			return NewNot(p)
		}
		return p
	}
	name := ints[r.Intn(len(ints))]
	v, a := IntVar{name}, at[name]
	if r.Intn(25) == 0 {
		a += int64(1 + r.Intn(3)) // the guard fails at the hidden point
	}
	d := int64(r.Intn(6))
	switch r.Intn(6) {
	case 0:
		return Le{v, IntConst{a + d}}
	case 1:
		return Lt{IntConst{a - d - 1}, v}
	case 2:
		return NewNot(Lt{v, IntConst{a - d}})
	default:
		c := a
		for c == a {
			c = int64(r.Intn(15) - 7)
		}
		return NewNot(Eq{v, IntConst{c}})
	}
}

// longestShadow is the largest number of cells one name has on s's
// chain: how many times the fold rewrote one variable's fact.
func longestShadow(s quickState) int {
	n := map[string]int{}
	best := 0
	for c := s.facts; c != nil; c = c.parent {
		n[c.name]++
		best = max(best, n[c.name])
	}
	return best
}

// TestPCQuickLongPaths: paths of up to 40 conjuncts over two or three
// variables, grown as a tree so sibling paths share their prefix, with
// every variable's fact rewritten many times. Each probe of a random
// node with random extras must decide what QuickConj decides on the
// flat conjunct list and agree with the brute-force oracle. A lookup
// that returned an older cell for a name, or a node that saw a
// sibling's cells, would answer with a stale or foreign fact.
func TestPCQuickLongPaths(t *testing.T) {
	r := rand.New(rand.NewSource(19650419))
	var sats, unsats, deepShadows int
	for trial := 0; trial < 60; trial++ {
		ints := []string{"x", "y"}[:1+r.Intn(2)]
		withBool := len(ints) == 1 || r.Intn(2) == 0
		at := map[string]int64{"x": int64(r.Intn(5) - 2), "y": int64(r.Intn(5) - 2), "p": int64(r.Intn(2))}
		nodes := []*PC{nil}
		for len(nodes) < 80 {
			// Extend the newest node mostly, an older one sometimes:
			// the tree grows long branches with siblings along them.
			from := nodes[len(nodes)-1]
			if r.Intn(4) == 0 {
				from = nodes[r.Intn(len(nodes))]
			}
			if from.Len() >= 40 {
				from = nodes[r.Intn(len(nodes))]
				if from.Len() >= 40 {
					continue
				}
			}
			pc := from.And(genLongGuard(r, ints, withBool, at))
			nodes = append(nodes, pc)
			if longestShadow(pc.state()) >= 10 {
				deepShadows++
			}
			xs, ok := randomExtras(r)
			if !ok {
				continue
			}
			switch sat, dec := probeQuick(t, nodes[1+r.Intn(len(nodes)-1)], xs); {
			case dec && sat:
				sats++
			case dec:
				unsats++
			}
		}
	}
	t.Logf("%d sat, %d unsat, %d nodes with a fact rewritten 10+ times", sats, unsats, deepShadows)
	if sats < 300 || unsats < 300 || deepShadows < 300 {
		t.Fatal("weak coverage: the run must decide both ways on paths whose facts are rewritten many times")
	}
}

// TestChainAndAllocs: extending a guard chain by one literal allocates
// for the literal alone, however many facts the path already holds —
// the chain's cell, the PC node, and the one changed fact with its
// cell. A persistent map of the facts copied each trie node on the
// fact's path, slots and all, for every guard: 8 allocations here. A
// negated literal costs the same: Simplify hands back the boxed ¬pt it
// was given instead of boxing a copy.
func TestChainAndAllocs(t *testing.T) {
	var pc *PC
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			pc = pc.And(BoolVar{fmt.Sprintf("b%d", i)})
		} else {
			pc = pc.And(Lt{IntVar{fmt.Sprintf("x%d", i)}, IntConst{int64(i)}})
		}
	}
	cells := 0
	for c := pc.state().facts; c != nil; c = c.parent {
		cells++
	}
	if cells != 20 {
		t.Fatalf("the PC holds %d facts, want 20", cells)
	}
	for _, g := range []Formula{BoolVar{"pt"}, Not{BoolVar{"pt"}}} {
		if n := testing.AllocsPerRun(100, func() { pc.Chain().And(g) }); n > 4 {
			t.Fatalf("Chain.And(%s) on a 20-fact PC: %v allocations, want at most 4", g, n)
		}
	}
}
