package solver

import (
	"fmt"
	"sort"
)

// This file is the clausal half of the CDCL core (cdcl.go): literal
// encoding, the clause/watch-list representation, and the one-sided
// Tseitin (Plaisted–Greenbaum) translation from the NNF front end into
// the persistent clause database.
//
// A literal packs a variable index and a sign into one int: v<<1 for
// the positive literal, v<<1|1 for the negation. Variable 0 is the
// constant ⊤ (assigned true at level 0 forever), so constant formulas
// encode without special cases.

func mkLit(v int, pos bool) int {
	l := v << 1
	if !pos {
		l |= 1
	}
	return l
}

func litVar(l int) int  { return l >> 1 }
func litNeg(l int) int  { return l ^ 1 }
func litPos(l int) bool { return l&1 == 0 }

// cclause ("CDCL clause"; the simplifier owns the name clause) is one
// disjunction in the database. lits[0] and lits[1] are
// the two watched literals; propagation maintains the invariant that a
// watch only goes false when the clause is satisfied, unit, or
// conflicting. id is the creation sequence number — the deterministic
// tie-break everywhere activities collide.
type cclause struct {
	lits   []int
	learnt bool
	act    float64
	id     uint64
}

// root is one encoded assumption formula: the literal that asserts it
// and the closure of encoding variables it reaches (atoms and aux),
// which drives per-query relevance marking and the MaxAtoms account.
type root struct {
	lit     int
	vars    []int
	atoms   int
	trivial bool // constant formula; vars is empty
}

// nodeKey identifies an internal NNF connective by operator and child
// literals, so structurally shared subtrees share one definition
// variable across every query of the solver's lifetime.
type nodeKey struct {
	op   byte // '&' or '|'
	x, y int
}

// newVar allocates a fresh variable; a is nil for definition (aux)
// variables.
func (d *cdcl) newVar(a *atom) int {
	v := len(d.assigns)
	d.assigns = append(d.assigns, 0)
	d.level = append(d.level, 0)
	d.reason = append(d.reason, nil)
	d.atoms = append(d.atoms, a)
	d.deps = append(d.deps, nil)
	d.activity = append(d.activity, 0)
	d.polarity = append(d.polarity, false)
	d.relevant = append(d.relevant, 0)
	d.seen = append(d.seen, 0)
	d.watches = append(d.watches, nil, nil)
	d.heap.pos = append(d.heap.pos, -1)
	return v
}

// varFor interns the decision variable of an atom.
func (d *cdcl) varFor(a *atom) int {
	if v, ok := d.varOf[a]; ok {
		return v
	}
	v := d.newVar(a)
	d.varOf[a] = v
	return v
}

// litValue evaluates a literal under the current assignment:
// +1 true, -1 false, 0 unassigned.
func (d *cdcl) litValue(l int) int8 {
	v := d.assigns[litVar(l)]
	if !litPos(l) {
		return -v
	}
	return v
}

// encodeNode translates an NNF node to its defining literal,
// emitting permanent definition clauses for connectives not seen
// before. NNF nodes occur only positively under the front end (negation
// sits on literals), so the one-sided Plaisted–Greenbaum implications
// (¬v ∨ children) suffice: they are conservative extensions — setting
// every definition variable false satisfies them all — which is what
// makes the clause database permanently satisfiable and assumption
// literals safe to retract.
func (d *cdcl) encodeNode(n node) int {
	switch t := n.(type) {
	case nConst:
		return mkLit(constVar, t.val)
	case nLit:
		return mkLit(d.varFor(t.a), t.pos)
	case nAnd:
		x := d.encodeNode(t.x)
		y := d.encodeNode(t.y)
		k := nodeKey{'&', x, y}
		if v, ok := d.nodeVs[k]; ok {
			return mkLit(v, true)
		}
		v := d.newVar(nil)
		d.nodeVs[k] = v
		d.deps[v] = []int{x, y}
		d.addPerm([]int{mkLit(v, false), x})
		d.addPerm([]int{mkLit(v, false), y})
		return mkLit(v, true)
	case nOr:
		x := d.encodeNode(t.x)
		y := d.encodeNode(t.y)
		k := nodeKey{'|', x, y}
		if v, ok := d.nodeVs[k]; ok {
			return mkLit(v, true)
		}
		v := d.newVar(nil)
		d.nodeVs[k] = v
		d.deps[v] = []int{x, y}
		d.addPerm([]int{mkLit(v, false), x, y})
		return mkLit(v, true)
	}
	panic(fmt.Sprintf("solver: unknown NNF node %T", n))
}

// addPerm inserts a permanent clause. Called only at decision level 0
// (queries encode their roots before asserting assumptions), so
// level-0-true literals satisfy the clause forever and level-0-false
// literals can be stripped.
func (d *cdcl) addPerm(lits []int) {
	out := make([]int, 0, len(lits))
	for _, l := range lits {
		switch d.litValue(l) {
		case 1:
			return // satisfied forever
		case -1:
			continue // false forever
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == litNeg(l) {
				return // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		// Cannot happen for the conservative encodings this core emits;
		// defensive poisoning keeps a bug from becoming a wrong verdict.
		d.unsatPerm = true
	case 1:
		d.uncheckedEnqueue(out[0], nil)
	default:
		c := &cclause{lits: out, id: d.nextID}
		d.nextID++
		d.clauses = append(d.clauses, c)
		d.attach(c)
	}
}

// attach registers c on the watch lists of its first two literals.
func (d *cdcl) attach(c *cclause) {
	d.watches[c.lits[0]] = append(d.watches[c.lits[0]], c)
	d.watches[c.lits[1]] = append(d.watches[c.lits[1]], c)
}

// detach removes c from both watch lists.
func (d *cdcl) detach(c *cclause) {
	for _, l := range c.lits[:2] {
		ws := d.watches[l]
		for i, w := range ws {
			if w == c {
				d.watches[l] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
}

// rootFor encodes one assumption formula, memoized by canonical text
// for the solver's lifetime: the engine's forked path conditions
// re-assert long shared prefixes, and a registry hit makes each old
// conjunct cost one map lookup instead of a re-encoding.
func (d *cdcl) rootFor(f Formula) (*root, error) {
	// Malformed inputs (nil subformulas or subterms) must surface as
	// errors before the formula is serialized as a registry key: the
	// key walker would silently tag them, the NNF conversion errors.
	if err := checkFormula(f); err != nil {
		return nil, err
	}
	// First-chance lookup on the raw formula: re-asserted conjuncts
	// (the common case — every forked path condition repeats its whole
	// prefix) skip Simplify entirely, which otherwise dominates the
	// per-query cost on workloads made of thousands of tiny queries.
	// The key is serialized into a reusable scratch so a hit allocates
	// nothing (the compiler elides the string conversion in the probe).
	d.keyBuf = appendFormulaKey(d.keyBuf[:0], f)
	if r, ok := d.rawRoots[string(d.keyBuf)]; ok {
		return r, nil
	}
	rawKey := string(d.keyBuf)
	f = Simplify(f)
	key := FormulaKey(f)
	if r, ok := d.roots[key]; ok {
		d.rawRoots[rawKey] = r
		return r, nil
	}
	g := f
	if formulaHasIte(f) {
		// Lower guarded terms against the persistent table (identical
		// ites share one "$ite<n>" variable across all queries) and fold
		// the definitions this formula depends on into its own root: the
		// definitions must hold exactly when the formula is asserted,
		// and shared definition encodings dedupe through nodeVs anyway.
		d.lw.used = map[string]bool{}
		g = d.lw.formula(f)
		keys := make([]string, 0, len(d.lw.used))
		for k := range d.lw.used {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		conj := make([]Formula, 0, 2*len(keys)+1)
		conj = append(conj, g)
		for _, k := range keys {
			defs := d.lw.defsByKey[k]
			conj = append(conj, defs[0], defs[1])
		}
		d.lw.used = nil
		g = Conj(conj...)
	}
	n, err := toNNF(g, true, d.table)
	if err != nil {
		return nil, err
	}
	lit := d.encodeNode(n)
	r := &root{lit: lit}
	if litVar(lit) == constVar {
		r.trivial = true
	} else {
		r.vars, r.atoms = d.closure(lit)
	}
	d.roots[key] = r
	d.rawRoots[rawKey] = r
	return r, nil
}

// closure collects the encoding variables reachable from l through
// definition dependencies, plus the count of atom variables among
// them.
func (d *cdcl) closure(l int) ([]int, int) {
	var vars []int
	natoms := 0
	seen := map[int]bool{}
	var visit func(int)
	visit = func(l int) {
		v := litVar(l)
		if v == constVar || seen[v] {
			return
		}
		seen[v] = true
		vars = append(vars, v)
		if d.atoms[v] != nil {
			natoms++
		}
		for _, c := range d.deps[v] {
			visit(c)
		}
	}
	visit(l)
	return vars, natoms
}

// varHeap is a max-heap of variables ordered by activity descending,
// with the variable index ascending as the deterministic tie-break —
// the "no randomness" half of the VSIDS contract.
type varHeap struct {
	data []int
	pos  []int // var -> index in data, -1 when absent
	act  *[]float64
}

func (h *varHeap) less(a, b int) bool {
	aa, ab := (*h.act)[a], (*h.act)[b]
	if aa != ab {
		return aa > ab
	}
	return a < b
}

func (h *varHeap) clear() {
	for _, v := range h.data {
		h.pos[v] = -1
	}
	h.data = h.data[:0]
}

func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data) - 1)
}

func (h *varHeap) pop() int {
	v := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0)
	}
	return v
}

// fix restores the heap property after v's activity increased.
func (h *varHeap) fix(v int) {
	if i := h.pos[v]; i >= 0 {
		h.up(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.data[p]) {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = i
		i = p
	}
	h.data[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int) {
	v := h.data[i]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.data[c+1], h.data[c]) {
			c++
		}
		if !h.less(h.data[c], v) {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = i
		i = c
	}
	h.data[i] = v
	h.pos[v] = i
}

// checkFormula rejects structurally malformed formulas — nil
// subformulas, nil subterms, or foreign implementations — with the
// same error shapes the NNF conversion produces, so the CDCL path
// fails like the DPLL path instead of panicking inside String.
func checkFormula(f Formula) error {
	switch f := f.(type) {
	case BoolConst, BoolVar:
		return nil
	case Not:
		return checkFormula(f.X)
	case And:
		if err := checkFormula(f.X); err != nil {
			return err
		}
		return checkFormula(f.Y)
	case Or:
		if err := checkFormula(f.X); err != nil {
			return err
		}
		return checkFormula(f.Y)
	case Iff:
		if err := checkFormula(f.X); err != nil {
			return err
		}
		return checkFormula(f.Y)
	case Eq:
		if err := checkTerm(f.X); err != nil {
			return err
		}
		return checkTerm(f.Y)
	case Le:
		if err := checkTerm(f.X); err != nil {
			return err
		}
		return checkTerm(f.Y)
	case Lt:
		if err := checkTerm(f.X); err != nil {
			return err
		}
		return checkTerm(f.Y)
	case nil:
		return fmt.Errorf("solver: nil formula")
	default:
		return fmt.Errorf("solver: unknown formula %T", f)
	}
}

func checkTerm(t Term) error {
	switch t := t.(type) {
	case IntConst, IntVar:
		return nil
	case Add:
		if err := checkTerm(t.X); err != nil {
			return err
		}
		return checkTerm(t.Y)
	case Neg:
		return checkTerm(t.X)
	case Mul:
		return checkTerm(t.X)
	case App:
		for _, a := range t.Args {
			if err := checkTerm(a); err != nil {
				return err
			}
		}
		return nil
	case Ite:
		if err := checkFormula(t.G); err != nil {
			return err
		}
		if err := checkTerm(t.X); err != nil {
			return err
		}
		return checkTerm(t.Y)
	case nil:
		return fmt.Errorf("solver: nil term")
	default:
		return fmt.Errorf("solver: unknown term %T", t)
	}
}
