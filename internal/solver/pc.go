package solver

import "sync/atomic"

// PC is an incremental path condition: an immutable cons list of
// already-simplified conjuncts whose tail is shared with the parent
// path. Extending a path condition at a fork is O(size of the new
// guard) — the prefix is never copied — and both fork children alias
// the parent's list. nil is the empty (true) path condition, so the
// zero value is ready to use.
//
// Each node carries the interval fast path's state for its whole
// prefix (interval.go), which lets a query decide its quick case by
// folding only its new guard on top. The state is built once, when the
// node is, and never changes, so sibling paths read it concurrently
// without locks. Each node also caches the independence-support tokens
// of its conjunct, which lets the engine slice a query into independent
// components without re-walking formulas on every solver call; only
// queries the fast path cannot decide are sliced, so the tokens are
// computed on the first Head call and published atomically.
type PC struct {
	parent  *PC
	f       Formula
	support atomic.Pointer[[]string]
	n       int
	dead    bool
	quick   quickState
}

// PCTrue is the empty path condition. (Any nil *PC behaves the same.)
var PCTrue *PC

// Len reports the number of conjuncts.
func (p *PC) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Dead reports whether the path condition contains a literal false —
// an infeasible path that needs no solver to reject.
func (p *PC) Dead() bool {
	if p == nil {
		return false
	}
	return p.dead
}

// And returns p ∧ f as a new path condition sharing p as its tail. The
// guard is simplified and split into top-level conjuncts, one node
// each, so downstream slicing sees the finest stable granularity.
func (p *PC) And(f Formula) *PC {
	return p.and(Simplify(f))
}

func (p *PC) and(f Formula) *PC {
	switch f := f.(type) {
	case BoolConst:
		if f.Val {
			return p
		}
		if p.Dead() {
			return p
		}
		return &PC{parent: p, f: False, n: p.Len() + 1, dead: true, quick: p.state().with(False)}
	case And:
		return p.and(f.X).and(f.Y)
	}
	if p != nil && formulaEq(p.f, f) {
		return p // re-asserted guard (e.g. a loop condition), keep the node
	}
	return &PC{parent: p, f: f, n: p.Len() + 1, dead: p.Dead(), quick: p.state().with(f)}
}

func (p *PC) state() quickState {
	if p == nil {
		return quickState{}
	}
	return p.quick
}

// Quick decides p ∧ fs with the interval fast path: p's cached state
// plus a fold over fs. The cost is that of fs alone, whatever p's
// length; the answer is QuickConj's on p's conjuncts followed by fs.
func (p *PC) Quick(fs []Formula) (sat, decided bool) {
	return p.state().decide(fs)
}

// Head returns the newest conjunct and its support tokens.
func (p *PC) Head() (Formula, []string) {
	if sup := p.support.Load(); sup != nil {
		return p.f, *sup
	}
	sup := Support(p.f)
	p.support.Store(&sup)
	return p.f, sup
}

// Suffix returns the conjuncts added to p after base, oldest-first,
// and whether base is a prefix of p (by node identity — extension
// never copies nodes, so ancestry is pointer equality). State merging
// uses it to rebuild each arm's branch guard relative to the fork
// point.
func (p *PC) Suffix(base *PC) ([]Formula, bool) {
	var rev []Formula
	for q := p; q != base; q = q.parent {
		if q == nil {
			return nil, false
		}
		rev = append(rev, q.f)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// Parent returns the path condition without its newest conjunct.
func (p *PC) Parent() *PC { return p.parent }

// Conjuncts returns the conjuncts oldest-first.
func (p *PC) Conjuncts() []Formula {
	out := make([]Formula, p.Len())
	for q := p; q != nil; q = q.parent {
		out[q.n-1] = q.f
	}
	return out
}

// Formula folds the path condition back into a single Formula (for
// callers outside the engine's sliced pipeline).
func (p *PC) Formula() Formula {
	if p == nil {
		return True
	}
	return Conj(p.Conjuncts()...)
}

func (p *PC) String() string { return p.Formula().String() }

// Chain extends a path condition guard by guard down one branch of a
// guard tree, such as the ite targets of a pointer. Extending p's chain
// by g1, …, gn yields exactly p.And(g1 ∧ … ∧ gn): the guards are
// simplified as one conjunction, so a conjunct repeated from an
// earlier guard is dropped and one complementing an earlier guard
// makes the path dead. But each step simplifies only its own guard and
// adds only its own nodes, so sibling branches share the nodes of
// their common prefix: a tree with k leaves costs O(k) nodes, where
// one And per leaf would build k chains of up to k conjuncts each.
type Chain struct {
	base, pc *PC
	kept     *leafCell // conjuncts added since base, newest first
	killed   bool      // the guards contradict; pc is base ∧ false
}

type leafCell struct {
	f    Formula
	next *leafCell
}

// Chain starts a guard chain at p.
func (p *PC) Chain() Chain { return Chain{base: p, pc: p} }

// PC returns the path condition at the end of the chain.
func (c Chain) PC() *PC { return c.pc }

// And returns the chain extended by guard g. It applies Simplify's
// conjunction rule leaf by leaf: true is dropped, false or a literal
// complementing an earlier one kills the chain, a repeat is dropped.
// Simplify compares FormulaKeys; on simplified formulas, which carry
// no double negation anywhere, syntactic equality is the same
// relation and allocates nothing. A guard that simplifies to one leaf,
// as a dereference walk's literals do, goes to the rule directly.
func (c Chain) And(g Formula) Chain {
	if c.killed {
		return c
	}
	g = Simplify(g)
	if _, ok := g.(And); !ok {
		return c.andLeaf(g)
	}
	var leaves []Formula
	collectLeaves(g, true, &leaves)
	for _, l := range leaves {
		if c = c.andLeaf(l); c.killed {
			break
		}
	}
	return c
}

// andLeaf applies the conjunction rule to one simplified leaf.
func (c Chain) andLeaf(l Formula) Chain {
	if b, ok := l.(BoolConst); ok {
		if b.Val {
			return c
		}
		return c.kill()
	}
	for q := c.kept; q != nil; q = q.next {
		if formulaEq(q.f, l) {
			return c
		}
		if Complementary(q.f, l) {
			return c.kill()
		}
	}
	c.kept = &leafCell{f: l, next: c.kept}
	c.pc = c.pc.and(l)
	return c
}

func (c Chain) kill() Chain {
	c.killed, c.pc = true, c.base.and(False)
	return c
}

// Complementary reports whether a and b are a formula and its
// negation, syntactically.
func Complementary(a, b Formula) bool {
	if n, ok := a.(Not); ok && formulaEq(n.X, b) {
		return true
	}
	n, ok := b.(Not)
	return ok && formulaEq(n.X, a)
}
