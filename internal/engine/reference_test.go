package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"mix/internal/solver"
)

// The pool-reference property: every answer the solver pool gives for
// a path condition plus extras equals the chronological DPLL
// reference's answer (solver.NewReference) on the flat conjunction of
// the raw guards, whatever the pipeline decided it with — the interval
// fast path on the node's cached state, independence slicing, the
// memo table, a cached counterexample or a fresh search. The pool is
// the only way the analyses ask the solver anything, so this is the
// argument that its optimizations change no verdict.

// chooser draws the choices that shape a query tree: a seeded source in
// TestPoolMatchesReference, the input's bytes in the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte and chooses 0 once the bytes
// run out, which stops every tree from growing.
type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// refQuery is one pool query and the raw guards it stands for.
type refQuery struct {
	pc     *solver.PC
	raw    []solver.Formula // every guard conjoined into pc, unsimplified
	extras []solver.Formula
	want   bool // the reference's verdict on raw ∧ extras
}

// queryGen builds path-condition trees over the atoms the executors
// send. Two clusters of integer variables keep components apart:
// x, y, z (relational atoms, disequalities) and u, v (which also feed
// the App and Ite terms). Uninterpreted f applied to a constant
// carries no variable, so two such atoms share only the symbol's
// support token.
type queryGen struct {
	c chooser
}

var (
	clusterX = []solver.Term{solver.IntVar{Name: "x"}, solver.IntVar{Name: "y"}, solver.IntVar{Name: "z"}}
	clusterU = []solver.Term{solver.IntVar{Name: "u"}, solver.IntVar{Name: "v"}}
)

func (g *queryGen) pick(ts []solver.Term) solver.Term { return ts[g.c.Intn(len(ts))] }
func (g *queryGen) k() solver.Term                    { return solver.IntConst{Val: int64(g.c.Intn(5) - 2)} }
func (g *queryGen) cluster() []solver.Term {
	if g.c.Intn(2) == 0 {
		return clusterX
	}
	return clusterU
}

// app is an uninterpreted application over u, v or a constant.
func (g *queryGen) app() solver.Term {
	arg := g.pick(append([]solver.Term{solver.IntConst{Val: 0}, solver.IntConst{Val: 1}}, clusterU...))
	return solver.App{Fn: "f", Args: []solver.Term{arg}}
}

// atom draws one executor-shaped constraint.
func (g *queryGen) atom(depth int) solver.Formula {
	switch g.c.Intn(9) {
	case 0: // interval guard: one variable against a constant
		v := g.pick(g.cluster())
		switch g.c.Intn(3) {
		case 0:
			return solver.Lt{X: v, Y: g.k()}
		case 1:
			return solver.Le{X: g.k(), Y: v}
		}
		return solver.Eq{X: v, Y: g.k()}
	case 1: // relational atom within a cluster
		cl := g.cluster()
		a, b := g.pick(cl), g.pick(cl)
		if g.c.Intn(2) == 0 {
			return solver.Lt{X: a, Y: b}
		}
		return solver.Le{X: solver.Add{X: a, Y: g.k()}, Y: b}
	case 2: // boolean variable
		return solver.BoolVar{Name: fmt.Sprintf("b%d", g.c.Intn(3))}
	case 3: // pointer variable: a points-to choice
		return solver.BoolVar{Name: fmt.Sprintf("pt%d", g.c.Intn(2))}
	case 4: // App term
		if g.c.Intn(2) == 0 {
			return solver.Eq{X: g.app(), Y: g.k()}
		}
		return solver.Lt{X: g.app(), Y: g.app()}
	case 5: // Ite term, as a merged memory cell reads
		ite := solver.NewIte(solver.BoolVar{Name: fmt.Sprintf("b%d", g.c.Intn(3))}, g.pick(clusterU), g.k())
		return solver.Lt{X: ite, Y: g.k()}
	case 6: // disequality
		cl := g.cluster()
		if g.c.Intn(2) == 0 {
			return solver.Neq(g.pick(cl), g.k())
		}
		return solver.Neq(g.pick(cl), g.pick(cl))
	case 7: // a merged guard: the disjunction of two arms
		if depth < 1 {
			return solver.NewOr(g.atom(depth+1), g.atom(depth+1))
		}
	}
	return solver.NewNot(solver.BoolVar{Name: fmt.Sprintf("b%d", g.c.Intn(3))})
}

// grow explores a tree below pc the way an executor does: each node
// queries pc plus up to two extras, then forks into a guard and its
// negation, extending the path either with PC.And or, for a run of
// guards as a dereference walk sends them, with Chain.And.
func (g *queryGen) grow(pc *solver.PC, raw []solver.Formula, depth int, out *[]refQuery) {
	q := refQuery{pc: pc, raw: raw}
	for n := g.c.Intn(3); n > 0; n-- {
		q.extras = append(q.extras, g.atom(0))
	}
	*out = append(*out, q)
	if depth == 4 || g.c.Intn(4) == 0 {
		return
	}
	guard := g.atom(0)
	for _, arm := range []solver.Formula{guard, solver.NewNot(guard)} {
		if g.c.Intn(2) == 0 {
			g.grow(pc.And(arm), append(raw[:len(raw):len(raw)], arm), depth+1, out)
			continue
		}
		ch := pc.Chain().And(arm)
		r := append(raw[:len(raw):len(raw)], arm)
		for n := g.c.Intn(3); n > 0; n-- {
			next := g.atom(0)
			ch = ch.And(next)
			r = append(r, next)
		}
		g.grow(ch.PC(), r, depth+1, out)
	}
}

// referenceQueries draws one tree and decides each of its queries on a
// fresh reference solver.
func referenceQueries(t testing.TB, c chooser) []refQuery {
	var qs []refQuery
	(&queryGen{c: c}).grow(solver.PCTrue, nil, 0, &qs)
	for i := range qs {
		flat := solver.Conj(append(qs[i].raw[:len(qs[i].raw):len(qs[i].raw)], qs[i].extras...)...)
		want, err := solver.NewReference().Sat(flat)
		if err != nil {
			t.Fatalf("reference on %v: %v", flat, err)
		}
		qs[i].want = want
	}
	return qs
}

// poolStages counts the queries in which each pipeline stage fired,
// and the unsatisfiable ones.
type poolStages struct {
	quick, split, memo, cex, unsat int
}

// askPool sends qs through a new engine on cache, in order or
// reversed, and fails on the first answer that differs from the
// reference's.
func askPool(t testing.TB, cache *Cache, qs []refQuery, reversed bool, st *poolStages) {
	e := New(Options{Cache: cache})
	defer e.Close()
	for i := range qs {
		q := qs[i]
		if reversed {
			q = qs[len(qs)-1-i]
		}
		before := e.Snapshot()
		got, err := e.SatPC(q.pc, q.extras...)
		if err != nil {
			t.Fatalf("pool on %v ∧ %v: %v", q.pc, q.extras, err)
		}
		if got != q.want {
			t.Fatalf("pool says %v, reference %v, on\n  raw guards %v\n  extras %v\n  pc %v",
				got, q.want, q.raw, q.extras, q.pc)
		}
		if !got {
			st.unsat++
		}
		after := e.Snapshot()
		dq, ds := after.QuickDecided-before.QuickDecided, after.Slices-before.Slices
		if dq > 0 {
			st.quick++
		}
		// A query that reaches slicing decides each component once,
		// by the interval path or past it: two decisions, two components.
		if dq+ds >= 2 {
			st.split++
		}
		if after.MemoHits > before.MemoHits {
			st.memo++
		}
		if after.CexHits > before.CexHits {
			st.cex++
		}
	}
}

// TestPoolMatchesReference holds the pool to the reference on 150
// seeded trees through one shared Cache, each tree asked forward on
// one engine and backward on a second, as mixd's requests share it.
// Every stage must have decided some query, so none of them is left
// unchecked.
func TestPoolMatchesReference(t *testing.T) {
	cache := NewCache(CacheOptions{})
	var st poolStages
	queries := 0
	for seed := int64(1); seed <= 150; seed++ {
		qs := referenceQueries(t, rand.New(rand.NewSource(seed)))
		askPool(t, cache, qs, false, &st)
		askPool(t, cache, qs, true, &st)
		queries += 2 * len(qs)
	}
	t.Logf("%d queries, %d unsat; stages fired in: quick %d, split %d, memo %d, cex %d",
		queries, st.unsat, st.quick, st.split, st.memo, st.cex)
	if st.unsat == 0 || st.unsat == queries {
		t.Fatalf("%d of %d queries unsat: the trees decide nothing", st.unsat, queries)
	}
	if st.quick == 0 || st.split == 0 || st.memo == 0 || st.cex == 0 {
		t.Fatalf("a pipeline stage never fired: %+v", st)
	}
}

// FuzzPoolMatchesReference is the same property with the input's
// bytes choosing the tree and the extras. Each input gets its own
// Cache, so a failure reproduces from its bytes alone.
//
//	go test -run '^$' -fuzz FuzzPoolMatchesReference -fuzztime 10s ./internal/engine/
func FuzzPoolMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		qs := referenceQueries(t, &byteChooser{data: data})
		cache := NewCache(CacheOptions{})
		var st poolStages
		askPool(t, cache, qs, false, &st)
		askPool(t, cache, qs, true, &st)
	})
}
