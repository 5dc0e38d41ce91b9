package solver

// This file implements the interval fast path: a constant-time-per-
// conjunct decision procedure for conjunctions whose conjuncts are
// boolean literals or single-variable bounds (x ⋈ c). Branch guards
// produced by symbolic execution are overwhelmingly of this shape, so
// most feasibility queries never reach the search core at all.
//
// The procedure is a left fold over the conjuncts. Its state keeps the
// per-variable facts on a parent chain that a conjunct extends only
// when it changes a fact, so every PC node carries the state of its
// whole prefix for the price of one cell (pc.go), and a query folds
// only its new guard on top of it (PC.Quick). QuickConj is the same
// fold started from the empty state.

// iv is a rational interval with open/closed ends plus punched-out
// points (from disequalities). Bounds are int64 because guards compare
// against IntConst; over the dense rationals an interval is empty iff
// lo > hi or lo == hi with either end open.
type iv struct {
	hasLo, hasHi   bool
	lo, hi         int64
	loOpen, hiOpen bool
	holes          []int64
}

// boundLo tightens the lower bound and reports whether it changed.
func (v *iv) boundLo(c int64, open bool) bool {
	if !v.hasLo || c > v.lo || (c == v.lo && open && !v.loOpen) {
		v.hasLo, v.lo, v.loOpen = true, c, open
		return true
	}
	return false
}

// boundHi tightens the upper bound and reports whether it changed.
func (v *iv) boundHi(c int64, open bool) bool {
	if !v.hasHi || c < v.hi || (c == v.hi && open && !v.hiOpen) {
		v.hasHi, v.hi, v.hiOpen = true, c, open
		return true
	}
	return false
}

// punch adds a hole at c and reports whether it was new. The holes
// slice may be shared with the fact this one was copied from, so it is
// never appended to in place.
func (v *iv) punch(c int64) bool {
	for _, h := range v.holes {
		if h == c {
			return false
		}
	}
	v.holes = append(v.holes[:len(v.holes):len(v.holes)], c)
	return true
}

func (v *iv) empty() bool {
	if !v.hasLo || !v.hasHi {
		return false
	}
	if v.lo > v.hi {
		return true
	}
	if v.lo == v.hi {
		if v.loOpen || v.hiOpen {
			return true
		}
		// Point interval: dead iff the point is punched out.
		for _, h := range v.holes {
			if h == v.lo {
				return true
			}
		}
	}
	return false
}

// fact is what the fast path knows about one variable name: its value
// as a boolean variable and its interval as an integer variable (the
// two namespaces are independent). A fact is immutable once it is on a
// chain; updates copy it.
type fact struct {
	hasBool, val bool
	iv
}

// quickState is the fold's state after a sequence of conjuncts. The
// zero value is the empty state.
type quickState struct {
	facts  *factCell // newest first; the first cell for a name is its fact
	opaque bool      // some conjunct lies outside the recognized fragment
	unsat  bool      // the recognized conjuncts contradict each other
}

// factCell is one changed fact. Cells are immutable and shared: a PC
// node's chain is its parent's with the cells of its own conjunct
// prepended, so sibling paths share their common prefix's cells, and
// an older cell for the same name is shadowed, never rewritten.
type factCell struct {
	name   string
	f      *fact
	parent *factCell
}

// with returns the state extended by conjunct f, for a PC node.
func (s quickState) with(f Formula) quickState {
	if s.unsat {
		return s
	}
	w := folder{quickState: s, keep: true}
	if !w.add(f, true) {
		w.unsat = true
	}
	return w.quickState
}

// decide folds fs on top of s without keeping the result. decided=false
// means some conjunct has a shape the fast path does not recognize AND
// no recognized subset is already contradictory — the caller must fall
// back to the full solver. When decided, sat is exact for rational
// semantics: every recognized conjunct constrains a single variable,
// so per-variable intervals are a complete decision procedure for the
// recognized fragment, and a contradiction within the recognized
// subset refutes the whole conjunction.
func (s quickState) decide(fs []Formula) (sat, decided bool) {
	w := folder{quickState: s}
	for _, f := range fs {
		if w.unsat {
			break
		}
		if !w.add(f, true) {
			w.unsat = true
		}
	}
	switch {
	case w.unsat:
		return false, true
	case w.opaque:
		return false, false
	}
	return true, true
}

// QuickConj tries to decide the conjunction of fs with per-variable
// interval reasoning; see quickState.decide for the meaning of the
// answer.
func QuickConj(fs []Formula) (sat, decided bool) {
	return quickState{}.decide(fs)
}

// folder extends a quickState conjunct by conjunct. A kept fold (a PC
// node's state) prepends updated facts to the chain; a throwaway fold
// (a query's extras) writes them to a scratch list consulted first, so
// deciding a query never extends the chain.
type folder struct {
	quickState
	keep    bool
	scratch []namedFact
}

type namedFact struct {
	name string
	f    *fact
}

// get returns name's current fact, nil if there is none. The fact is
// shared: callers copy it before changing it.
func (w *folder) get(name string) *fact {
	for i := len(w.scratch) - 1; i >= 0; i-- {
		if w.scratch[i].name == name {
			return w.scratch[i].f
		}
	}
	for c := w.facts; c != nil; c = c.parent {
		if c.name == name {
			return c.f
		}
	}
	return nil
}

// fact returns a copy of name's current fact (zero if there is none).
func (w *folder) fact(name string) fact {
	if f := w.get(name); f != nil {
		return *f
	}
	return fact{}
}

func (w *folder) put(name string, f *fact) {
	if w.keep {
		w.facts = &factCell{name: name, f: f, parent: w.facts}
		return
	}
	w.scratch = append(w.scratch, namedFact{name, f})
}

// add folds f (negated when !pos) into the state; false means a
// recognized contradiction.
func (w *folder) add(f Formula, pos bool) bool {
	switch f := f.(type) {
	case BoolConst:
		return f.Val == pos
	case BoolVar:
		old := w.get(f.Name)
		if old != nil && old.hasBool {
			return old.val == pos
		}
		v := fact{hasBool: true, val: pos}
		if old != nil {
			v.iv = old.iv
		}
		w.put(f.Name, &v)
		return true
	case Not:
		return w.add(f.X, !pos)
	case And:
		if pos {
			return w.add(f.X, true) && w.add(f.Y, true)
		}
	case Eq:
		if name, c, ok := varConst(f.X, f.Y); ok {
			v := w.fact(name)
			var changed bool
			if pos {
				lo := v.boundLo(c, false)
				hi := v.boundHi(c, false)
				changed = lo || hi
			} else {
				changed = v.punch(c)
			}
			return w.settle(name, v, changed)
		}
	case Le:
		if name, c, flip, ok := varConstDir(f.X, f.Y); ok {
			v := w.fact(name)
			var changed bool
			switch {
			case pos && !flip: // x <= c
				changed = v.boundHi(c, false)
			case pos && flip: // c <= x
				changed = v.boundLo(c, false)
			case !pos && !flip: // !(x <= c): x > c
				changed = v.boundLo(c, true)
			default: // !(c <= x): x < c
				changed = v.boundHi(c, true)
			}
			return w.settle(name, v, changed)
		}
	case Lt:
		if name, c, flip, ok := varConstDir(f.X, f.Y); ok {
			v := w.fact(name)
			var changed bool
			switch {
			case pos && !flip: // x < c
				changed = v.boundHi(c, true)
			case pos && flip: // c < x
				changed = v.boundLo(c, true)
			case !pos && !flip: // !(x < c): x >= c
				changed = v.boundLo(c, false)
			default: // !(c < x): x <= c
				changed = v.boundHi(c, false)
			}
			return w.settle(name, v, changed)
		}
	}
	w.opaque = true
	return true // unrecognized: no contradiction evidence
}

// settle stores an edited interval fact when it changed and reports
// whether it is still satisfiable.
func (w *folder) settle(name string, v fact, changed bool) bool {
	if v.empty() {
		return false
	}
	if changed {
		nf := v
		w.put(name, &nf)
	}
	return true
}

// varConst matches (IntVar, IntConst) in either order.
func varConst(x, y Term) (name string, c int64, ok bool) {
	if v, okv := x.(IntVar); okv {
		if k, okc := y.(IntConst); okc {
			return v.Name, k.Val, true
		}
	}
	if v, okv := y.(IntVar); okv {
		if k, okc := x.(IntConst); okc {
			return v.Name, k.Val, true
		}
	}
	return "", 0, false
}

// varConstDir matches an ordered comparison operand pair; flip=true
// means the constant is on the left (c ⋈ x).
func varConstDir(x, y Term) (name string, c int64, flip, ok bool) {
	if v, okv := x.(IntVar); okv {
		if k, okc := y.(IntConst); okc {
			return v.Name, k.Val, false, true
		}
	}
	if k, okc := x.(IntConst); okc {
		if v, okv := y.(IntVar); okv {
			return v.Name, k.Val, true, true
		}
	}
	return "", 0, false, false
}
