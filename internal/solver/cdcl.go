package solver

import (
	"fmt"
	"sort"
)

// This file is the conflict-driven search half of the CDCL core; the
// clausal representation and encoder live in cnf.go, the incremental
// theory trail in theory.go. One cdcl value persists per Solver across
// queries: atom interning, the ite-lowering table, the Plaisted–
// Greenbaum definitions, and every learned clause are retained, so a
// query's cost is proportional to its new conjuncts — the incremental-
// assumption contract the engine's forked path conditions rely on.
//
// Soundness of retention: definition clauses are conservative
// extensions (all definition variables false satisfies them), theory
// blocking clauses are tautologies of the arithmetic, and learned
// clauses are resolvents of the two — the permanent database is
// therefore satisfiable in every query, only the per-query assumption
// literals carry content, and nothing learned under one assumption set
// can leak unsoundness into another.

// constVar is variable 0, pinned true at level 0 forever; the
// constant-formula literal without special cases.
const constVar = 0

// defaultMaxLearned bounds the learned-clause database when
// Solver.MaxLearned is 0.
const defaultMaxLearned = 10000

// restartBase scales the Luby restart sequence, in conflicts.
const restartBase = 100

// cdcl is the persistent CDCL state of one Solver.
type cdcl struct {
	s *Solver

	// Variables. atoms[v] is nil for definition variables; deps[v]
	// holds a definition's child literals for closure walks.
	atoms []*atom
	varOf map[*atom]int
	deps  [][]int

	// Encoding front end, persistent so identical conjuncts and ites
	// re-encode to identical variables across queries.
	table  *atomTable
	lw     *iteLower
	nodeVs map[nodeKey]int
	roots  map[string]*root
	// rawRoots short-circuits rootFor before simplification: keyed by
	// the raw formula's canonical text, it maps every previously seen
	// conjunct straight to its root without paying Simplify again.
	// keyBuf is the serialization scratch for the probe.
	rawRoots map[string]*root
	keyBuf   []byte
	conjBuf  []Formula // per-query conjunct-splitting scratch

	// Clause database.
	clauses []*cclause
	learnts []*cclause
	watches [][]*cclause
	nextID  uint64

	// Assignment trail.
	assigns  []int8
	level    []int32
	reason   []*cclause
	trail    []int
	trailLim []int
	qhead    int

	// Decision order (VSIDS with deterministic tie-breaks).
	activity []float64
	varInc   float64
	claInc   float64
	heap     varHeap
	polarity []bool

	seen []byte // analyze scratch, one byte per variable

	// Per-query relevance: relevant[v] == epoch marks v as belonging to
	// the current query's root closures. Decisions are restricted to
	// relevant variables, so stale encodings from earlier queries cost
	// nothing.
	relevant []uint32
	epoch    uint32

	th theoryTrail

	// unsatPerm poisons the instance if the permanent database ever
	// derives a level-0 conflict. The conservative-extension argument
	// above says this cannot happen, so it is a bug trap: queries on a
	// poisoned instance degrade to "unknown" instead of returning a
	// wrong verdict.
	unsatPerm bool
}

func newCDCL(s *Solver) *cdcl {
	d := &cdcl{
		s:        s,
		varOf:    map[*atom]int{},
		table:    newAtomTable(),
		lw:       &iteLower{vars: map[string]IntVar{}, defsByKey: map[string][2]Formula{}},
		nodeVs:   map[nodeKey]int{},
		roots:    map[string]*root{},
		rawRoots: map[string]*root{},
		varInc:   1,
		claInc:   1,
	}
	d.heap.act = &d.activity
	v := d.newVar(nil) // constVar
	d.uncheckedEnqueue(mkLit(v, true), nil)
	d.qhead = 1 // nothing watches ⊤
	return d
}

func (d *cdcl) decisionLevel() int { return len(d.trailLim) }

func (d *cdcl) newDecisionLevel() { d.trailLim = append(d.trailLim, len(d.trail)) }

// uncheckedEnqueue records literal p as true, with its implying clause
// (nil for decisions, assumptions, and level-0 facts), and pushes any
// arithmetic content onto the theory trail.
func (d *cdcl) uncheckedEnqueue(p int, from *cclause) {
	v := litVar(p)
	if litPos(p) {
		d.assigns[v] = 1
	} else {
		d.assigns[v] = -1
	}
	d.level[v] = int32(d.decisionLevel())
	d.reason[v] = from
	if a := d.atoms[v]; a != nil && a.kind != atomBool {
		d.th.push(a, litPos(p), len(d.trail))
	}
	d.trail = append(d.trail, p)
}

// cancelUntil backtracks to decision level lvl, saving phases and
// returning relevant variables to the decision heap.
func (d *cdcl) cancelUntil(lvl int) {
	if d.decisionLevel() <= lvl {
		return
	}
	limit := d.trailLim[lvl]
	for i := len(d.trail) - 1; i >= limit; i-- {
		p := d.trail[i]
		v := litVar(p)
		d.polarity[v] = litPos(p)
		d.assigns[v] = 0
		d.reason[v] = nil
		if d.relevant[v] == d.epoch {
			d.heap.push(v)
		}
	}
	d.trail = d.trail[:limit]
	d.trailLim = d.trailLim[:lvl]
	d.qhead = limit
	d.th.shrink(limit)
}

// propagate runs two-watched-literal unit propagation to fixpoint,
// returning the conflicting clause or nil.
func (d *cdcl) propagate() *cclause {
	for d.qhead < len(d.trail) {
		p := d.trail[d.qhead]
		d.qhead++
		d.s.Stats.Propagations++
		fl := litNeg(p) // the literal that just became false
		ws := d.watches[fl]
		out := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if c.lits[0] == fl {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if d.litValue(first) == 1 {
				out = append(out, c)
				continue
			}
			moved := false
			for j := 2; j < len(c.lits); j++ {
				if d.litValue(c.lits[j]) != -1 {
					c.lits[1], c.lits[j] = c.lits[j], c.lits[1]
					d.watches[c.lits[1]] = append(d.watches[c.lits[1]], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			out = append(out, c)
			if d.litValue(first) == -1 {
				// Conflict: keep the unvisited suffix watched and stop.
				out = append(out, ws[i+1:]...)
				d.watches[fl] = out
				d.qhead = len(d.trail)
				return c
			}
			d.uncheckedEnqueue(first, c)
		}
		d.watches[fl] = out
	}
	return nil
}

// varBump increases a variable's activity (with the standard rescale)
// and restores its heap position.
func (d *cdcl) varBump(v int) {
	d.activity[v] += d.varInc
	if d.activity[v] > 1e100 {
		for i := range d.activity {
			d.activity[i] *= 1e-100
		}
		d.varInc *= 1e-100
	}
	d.heap.fix(v)
}

func (d *cdcl) varDecay() { d.varInc *= 1 / 0.95 }

func (d *cdcl) claBump(c *cclause) {
	if !c.learnt {
		return
	}
	c.act += d.claInc
	if c.act > 1e20 {
		for _, l := range d.learnts {
			l.act *= 1e-20
		}
		d.claInc *= 1e-20
	}
}

func (d *cdcl) claDecay() { d.claInc *= 1 / 0.999 }

// analyze derives the 1-UIP learned clause from a conflict: resolve
// the conflicting clause backwards along the trail's reasons until
// exactly one literal of the current decision level remains. Returns
// the learned clause (asserting literal first) and the backjump level
// (the second-highest level in the clause). Precondition: the conflict
// involves the current decision level, which is > 0.
func (d *cdcl) analyze(confl *cclause) ([]int, int) {
	learnt := []int{0} // slot 0 becomes the asserting literal
	pathC := 0
	p := -1
	idx := len(d.trail) - 1
	for {
		d.claBump(confl)
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := litVar(q)
			if d.seen[v] == 0 && d.level[v] > 0 {
				d.seen[v] = 1
				d.varBump(v)
				if int(d.level[v]) >= d.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for d.seen[litVar(d.trail[idx])] == 0 {
			idx--
		}
		p = d.trail[idx]
		v := litVar(p)
		d.seen[v] = 0
		idx--
		pathC--
		if pathC <= 0 {
			break
		}
		confl = d.reason[v]
	}
	learnt[0] = litNeg(p)

	bt := 0
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if d.level[litVar(learnt[i])] > d.level[litVar(learnt[mi])] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
		bt = int(d.level[litVar(learnt[1])])
	}
	for _, q := range learnt {
		d.seen[litVar(q)] = 0
	}
	return learnt, bt
}

// record installs a learned clause after the backjump and asserts its
// first literal.
func (d *cdcl) record(learnt []int) {
	d.s.Stats.LearnedClauses++
	if len(learnt) == 1 {
		d.uncheckedEnqueue(learnt[0], nil)
		return
	}
	c := &cclause{lits: learnt, learnt: true, id: d.nextID}
	d.nextID++
	d.learnts = append(d.learnts, c)
	d.attach(c)
	d.claBump(c)
	d.uncheckedEnqueue(learnt[0], c)
}

// locked reports whether c is the reason of its asserting literal's
// assignment (such clauses must survive database reduction).
func (d *cdcl) locked(c *cclause) bool {
	v := litVar(c.lits[0])
	return d.assigns[v] != 0 && d.reason[v] == c
}

// maxLearned is the learned-clause cap (Solver.MaxLearned, defaulted).
func (d *cdcl) maxLearned() int {
	if d.s.MaxLearned > 0 {
		return d.s.MaxLearned
	}
	return defaultMaxLearned
}

// reduceDB forgets roughly half of the learned clauses, lowest
// activity first (creation order as the deterministic tie-break),
// keeping binary and locked clauses.
func (d *cdcl) reduceDB() {
	byAct := append([]*cclause(nil), d.learnts...)
	sort.Slice(byAct, func(i, j int) bool {
		if byAct[i].act != byAct[j].act {
			return byAct[i].act < byAct[j].act
		}
		return byAct[i].id < byAct[j].id
	})
	drop := map[*cclause]bool{}
	for _, c := range byAct[:len(byAct)/2] {
		if len(c.lits) > 2 && !d.locked(c) {
			drop[c] = true
		}
	}
	kept := d.learnts[:0]
	for _, c := range d.learnts {
		if drop[c] {
			d.detach(c)
			d.s.Stats.ForgottenClauses++
		} else {
			kept = append(kept, c)
		}
	}
	d.learnts = kept
}

// luby is the Luby restart sequence (1,1,2,1,1,2,4,...), i >= 1.
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// theoryConfl checks the theory trail above its consistency watermark
// and renders an inconsistency as a conflicting (blocking) clause: the
// disjunction of the involved literals' negations, a tautology of the
// arithmetic. Returns nil when consistent, and the classified fault
// when the solver's context expires inside the check.
func (d *cdcl) theoryConfl() (*cclause, error) {
	if d.th.checked == len(d.th.lits) {
		return nil, nil
	}
	d.s.Stats.TheoryChecks++
	ok, err := d.th.set.consistent(d.s)
	if err != nil {
		return nil, err
	}
	if ok {
		d.th.checked = len(d.th.lits)
		return nil, nil
	}
	d.s.Stats.TheoryConflicts++
	involved, err := d.th.explain(d.s)
	if err != nil {
		return nil, err
	}
	lits := make([]int, len(involved))
	for i, tl := range involved {
		lits[i] = litNeg(mkLit(d.varOf[tl.a], tl.pos))
	}
	// Not attached: the 1-UIP clause analyze derives from it blocks the
	// assignment path, and the consistency watermark prevents re-checks.
	return &cclause{lits: lits, learnt: true, id: d.nextID}, nil
}

// maxLevelOf returns the highest decision level among c's literals.
func (d *cdcl) maxLevelOf(c *cclause) int {
	max := 0
	for _, l := range c.lits {
		if lv := int(d.level[litVar(l)]); lv > max {
			max = lv
		}
	}
	return max
}

// flattenConj appends the leaves of f's top-level ∧-spine to out.
// Asserting the leaves as separate assumption roots is equivalent to
// asserting the conjunction, and it is what makes monolithic queries
// incremental: each leaf is registry-keyed on its own.
func flattenConj(f Formula, out []Formula) []Formula {
	if a, ok := f.(And); ok {
		out = flattenConj(a.X, out)
		return flattenConj(a.Y, out)
	}
	return append(out, f)
}

// solve decides the conjunction of fs under the retained database.
func (d *cdcl) solve(fs []Formula, wantModel bool) (bool, *Model, error) {
	if d.unsatPerm {
		return false, nil, ErrResource{"internal: cclause database poisoned"}
	}
	d.cancelUntil(0)
	// Split every query formula along its top-level conjunction spine:
	// clients that hand in one monolithic path condition per query
	// (Sat(pc1 ∧ ... ∧ pcn)) still share root encodings for the long
	// common prefix with their previous queries, exactly as if they had
	// passed SatAssuming the conjuncts one by one.
	d.conjBuf = d.conjBuf[:0]
	for _, f := range fs {
		d.conjBuf = flattenConj(f, d.conjBuf)
	}
	rs := make([]*root, 0, len(d.conjBuf))
	for _, f := range d.conjBuf {
		r, err := d.rootFor(f)
		if err != nil {
			return false, nil, err
		}
		if d.unsatPerm {
			return false, nil, ErrResource{"internal: cclause database poisoned"}
		}
		rs = append(rs, r)
	}

	// Per-query accounting: mark every root-closure variable relevant
	// and count the distinct atoms, mirroring the DPLL per-query
	// MaxAtoms bound.
	d.epoch++
	natoms := 0
	for _, r := range rs {
		for _, v := range r.vars {
			if d.relevant[v] != d.epoch {
				d.relevant[v] = d.epoch
				if d.atoms[v] != nil {
					natoms++
				}
			}
		}
	}
	if natoms > d.s.MaxAtoms {
		return false, nil, ErrResource{fmt.Sprintf("query has %d atoms (max %d)", natoms, d.s.MaxAtoms)}
	}
	d.s.Stats.Atoms += natoms

	// Rebuild the decision heap from this query's unassigned relevant
	// variables (clearing any stale content from an aborted query).
	d.heap.clear()
	for _, r := range rs {
		for _, v := range r.vars {
			if d.assigns[v] == 0 {
				d.heap.push(v)
			}
		}
	}

	assumps := make([]int, len(rs))
	for i, r := range rs {
		assumps[i] = r.lit
	}
	return d.search(assumps, wantModel)
}

// search is the CDCL main loop: propagate to fixpoint, check the
// theory, resolve conflicts by 1-UIP learning and backjumping, assert
// assumptions as successive decision levels, then branch on the most
// active relevant variable. The assumption levels re-assert
// themselves after restarts and deep backjumps because they are
// re-walked whenever the decision level drops below len(assumps).
func (d *cdcl) search(assumps []int, wantModel bool) (bool, *Model, error) {
	budget := d.s.MaxDecisions
	conflicts := 0
	restartRun := 1
	restartLim := restartBase * luby(restartRun)
	polls := 0
	for {
		confl := d.propagate()
		if confl == nil {
			var err error
			if confl, err = d.theoryConfl(); err != nil {
				return false, nil, err
			}
		}
		if confl != nil {
			d.s.Stats.Conflicts++
			conflicts++
			polls++
			if polls&31 == 0 {
				if err := d.s.poll(); err != nil {
					return false, nil, err
				}
			}
			// A theory conflict may involve only literals below the
			// current decision level (explain can drop the newest); fall
			// back to the highest involved level before resolving.
			if ml := d.maxLevelOf(confl); ml < d.decisionLevel() {
				d.cancelUntil(ml)
			}
			if d.decisionLevel() == 0 {
				d.unsatPerm = true
				return false, nil, ErrResource{"internal: conflict at decision level 0"}
			}
			learnt, bt := d.analyze(confl)
			d.cancelUntil(bt)
			d.record(learnt)
			d.varDecay()
			d.claDecay()
			if len(d.learnts) > d.maxLearned() {
				d.reduceDB()
			}
			if conflicts >= restartLim {
				d.s.Stats.Restarts++
				conflicts = 0
				restartRun++
				restartLim = restartBase * luby(restartRun)
				d.cancelUntil(0)
			}
			continue
		}
		if lvl := d.decisionLevel(); lvl < len(assumps) {
			p := assumps[lvl]
			switch d.litValue(p) {
			case 1:
				d.newDecisionLevel() // already true: dummy level
			case -1:
				// The database under the earlier assumptions refutes
				// this one: unsat under assumptions.
				return false, nil, nil
			default:
				d.newDecisionLevel()
				d.uncheckedEnqueue(p, nil)
			}
			continue
		}
		v := d.pickBranchVar()
		if v < 0 {
			// Every relevant variable is assigned, every clause over
			// them satisfied, and the theory trail consistent: sat.
			var m *Model
			if wantModel {
				m = d.captureModel()
			}
			return true, m, nil
		}
		if budget <= 0 {
			return false, nil, ErrResource{"decision budget exhausted"}
		}
		budget--
		d.s.Stats.Decisions++
		polls++
		if polls&31 == 0 {
			if err := d.s.poll(); err != nil {
				return false, nil, err
			}
		}
		d.newDecisionLevel()
		d.uncheckedEnqueue(mkLit(v, d.polarity[v]), nil)
	}
}

// pickBranchVar pops decision candidates until an unassigned one
// surfaces; -1 when none remain.
func (d *cdcl) pickBranchVar() int {
	for len(d.heap.data) > 0 {
		v := d.heap.pop()
		if d.assigns[v] == 0 {
			return v
		}
	}
	return -1
}

// captureModel extracts a witness from the final trail: a rational
// model of the theory trail plus the boolean atoms in assignment
// order. Best-effort, exactly like the DPLL capture — a nil model
// never weakens the sat verdict.
func (d *cdcl) captureModel() *Model {
	ints := d.th.set.model(d.s)
	if ints == nil {
		return nil
	}
	m := &Model{Ints: ints, Bools: map[string]bool{}}
	for _, p := range d.trail {
		v := litVar(p)
		if a := d.atoms[v]; a != nil && a.kind == atomBool {
			m.Bools[a.name] = litPos(p)
		}
	}
	return m
}
