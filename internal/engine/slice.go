package engine

import (
	"sync"

	"mix/internal/solver"
)

// conjunct is one unit of a sliced query: a simplified formula and
// its independence-support tokens.
type conjunct struct {
	f       solver.Formula
	support []string
}

// splitExtras simplifies a query's extra formulas and splits them into
// top-level conjuncts. It reports ok=false when a conjunct is
// literally false (the query is trivially unsat).
func splitExtras(extras []solver.Formula) (out []solver.Formula, ok bool) {
	for _, x := range extras {
		if !appendSimplified(&out, solver.Simplify(x)) {
			return nil, false
		}
	}
	return out, true
}

// appendSimplified splits a simplified formula into top-level
// conjuncts; false means a conjunct is constant false.
func appendSimplified(out *[]solver.Formula, f solver.Formula) bool {
	switch f := f.(type) {
	case solver.BoolConst:
		return f.Val
	case solver.And:
		return appendSimplified(out, f.X) && appendSimplified(out, f.Y)
	}
	*out = append(*out, f)
	return true
}

// sliceConjuncts lays a query — a path condition plus its split
// extras — out as conjuncts, oldest first, so component order (and
// thus solve order) matches sequential accumulation order.
func sliceConjuncts(pc *solver.PC, xs []solver.Formula) []conjunct {
	out := make([]conjunct, pc.Len(), pc.Len()+len(xs))
	i := pc.Len()
	for q := pc; q != nil; q = q.Parent() {
		i--
		f, sup := q.Head()
		out[i] = conjunct{f: f, support: sup}
	}
	for _, x := range xs {
		out = append(out, conjunct{f: x, support: solver.Support(x)})
	}
	return out
}

// components groups conjuncts into independence classes: two conjuncts
// sharing any support token can constrain each other and must be
// solved together; conjuncts with disjoint support are satisfiable
// independently (LRA variables are disjoint, booleans are disjoint,
// and uninterpreted functions are merged at symbol granularity so
// congruence cannot cross a component boundary). Components are
// returned ordered by their earliest conjunct, which keeps solve order
// — and therefore every observable verdict sequence — deterministic.
func components(cs []conjunct) [][]int {
	parent := make([]int, len(cs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // root at the smallest index
		}
	}
	owner := map[string]int{}
	for i, c := range cs {
		for _, tok := range c.support {
			if j, ok := owner[tok]; ok {
				union(i, j)
			} else {
				owner[tok] = i
			}
		}
	}
	groups := map[int][]int{}
	var roots []int
	for i := range cs {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	// roots were appended in increasing first-conjunct order already
	// (find roots at the smallest member index).
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// cexMaxConjuncts / cexMaxTokens gate the counterexample cache to
// small components. This is a determinism guard, not just a cost one:
// a cache hit short-circuits the solver, so it must only fire where a
// fresh solve is guaranteed to terminate inside its resource budget
// with the same verdict — which components this small always do.
// Without the gate, a hit on a budget-busting component would turn a
// deterministic "unknown" into a schedule-dependent "sat".
const (
	cexMaxConjuncts = 8
	cexMaxTokens    = 16
)

// cexCache is a bounded ring of recent satisfying models. A model
// proving one branch guard satisfiable frequently satisfies the next
// dozen guards on sibling paths verbatim; Eval-checking a candidate
// model is far cheaper than a search, and a model is only trusted
// for a query after Eval confirms it satisfies that exact query, so
// hits are sound by construction.
type cexCache struct {
	mu     sync.Mutex
	models []*solver.Model
	next   int
}

func newCexCache(size int) *cexCache {
	return &cexCache{models: make([]*solver.Model, 0, size)}
}

// lookup returns a cached model satisfying f, if any.
func (c *cexCache) lookup(f solver.Formula) *solver.Model {
	c.mu.Lock()
	snapshot := make([]*solver.Model, len(c.models))
	copy(snapshot, c.models)
	start := c.next
	c.mu.Unlock()
	// Probe newest-first: recent models reflect the current path region.
	for i := 0; i < len(snapshot); i++ {
		idx := start - 1 - i
		for idx < 0 {
			idx += len(snapshot)
		}
		m := snapshot[idx]
		if ok, err := m.Eval(f); err == nil && ok {
			return m
		}
	}
	return nil
}

func (c *cexCache) add(m *solver.Model) {
	if m == nil {
		return
	}
	c.mu.Lock()
	if len(c.models) < cap(c.models) {
		c.models = append(c.models, m)
		c.next = len(c.models) % cap(c.models)
	} else if cap(c.models) > 0 {
		c.models[c.next] = m
		c.next = (c.next + 1) % cap(c.models)
	}
	c.mu.Unlock()
}
