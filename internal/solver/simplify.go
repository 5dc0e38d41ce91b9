package solver

import (
	"fmt"
	"strconv"
	"strings"
)

// Simplify returns a formula equivalent to f with constants folded and
// common redundancies canonicalized away:
//
//   - double negation: !!x → x (via NewNot)
//   - constant folding through And/Or/Not/Iff and the comparisons
//   - x - x → 0 and other arithmetic identities (SimplifyTerm)
//   - comparisons of syntactically equal terms: t = t → true,
//     t <= t → true, t < t → false
//   - duplicate and complementary conjuncts/disjuncts: x ∧ x → x,
//     x ∧ ¬x → false, x ∨ ¬x → true
//
// A forking symbolic block sends no exhaustiveness query at all (its
// leaves cover its guard by construction); a deferring or concolic
// block sends the flat ¬(g1 ∨ … ∨ gn), and on a deferred guard x ∨ ¬x
// rarely meets itself here, so that query usually goes on to search.
//
// Simplify never errors: formulas it cannot improve (including nil or
// unknown variants) come back unchanged, and the solver's own
// conversion reports those.
func Simplify(f Formula) Formula {
	switch f := f.(type) {
	case nil, BoolConst, BoolVar:
		return f
	case Not:
		if _, ok := f.X.(BoolVar); ok {
			break // ¬b is simple: return the input itself, not a copy
		}
		return NewNot(Simplify(f.X))
	case And:
		return simplifyAnd(f)
	case Or:
		return simplifyOr(f)
	case Iff:
		x, y := Simplify(f.X), Simplify(f.Y)
		if bx, ok := x.(BoolConst); ok {
			if bx.Val {
				return y
			}
			return NewNot(y)
		}
		if by, ok := y.(BoolConst); ok {
			if by.Val {
				return x
			}
			return NewNot(x)
		}
		if formulaEq(x, y) {
			return True
		}
		return Iff{x, y}
	case Eq:
		x, y := SimplifyTerm(f.X), SimplifyTerm(f.Y)
		if cx, ok := x.(IntConst); ok {
			if cy, ok := y.(IntConst); ok {
				return BoolConst{cx.Val == cy.Val}
			}
		}
		if termEq(x, y) {
			return True
		}
		return Eq{x, y}
	case Le:
		x, y := SimplifyTerm(f.X), SimplifyTerm(f.Y)
		if cx, ok := x.(IntConst); ok {
			if cy, ok := y.(IntConst); ok {
				return BoolConst{cx.Val <= cy.Val}
			}
		}
		if termEq(x, y) {
			return True
		}
		return Le{x, y}
	case Lt:
		x, y := SimplifyTerm(f.X), SimplifyTerm(f.Y)
		if cx, ok := x.(IntConst); ok {
			if cy, ok := y.(IntConst); ok {
				return BoolConst{cx.Val < cy.Val}
			}
		}
		if termEq(x, y) {
			return False
		}
		return Lt{x, y}
	}
	return f
}

// flattenInto collects the leaves of a same-op (And or Or) spine
// without re-simplifying interior spine nodes; each non-spine leaf is
// simplified exactly once, and leaves that simplify back into the
// spine op are flattened in turn.
func flattenInto(f Formula, isAnd bool, out *[]Formula) {
	switch f := f.(type) {
	case And:
		if isAnd {
			flattenInto(f.X, isAnd, out)
			flattenInto(f.Y, isAnd, out)
			return
		}
	case Or:
		if !isAnd {
			flattenInto(f.X, isAnd, out)
			flattenInto(f.Y, isAnd, out)
			return
		}
	}
	s := Simplify(f)
	switch s := s.(type) {
	case And:
		if isAnd {
			collectLeaves(s, isAnd, out)
			return
		}
	case Or:
		if !isAnd {
			collectLeaves(s, isAnd, out)
			return
		}
	}
	*out = append(*out, s)
}

// collectLeaves gathers the already-simplified leaves of a spine.
func collectLeaves(f Formula, isAnd bool, out *[]Formula) {
	switch f := f.(type) {
	case And:
		if isAnd {
			collectLeaves(f.X, isAnd, out)
			collectLeaves(f.Y, isAnd, out)
			return
		}
	case Or:
		if !isAnd {
			collectLeaves(f.X, isAnd, out)
			collectLeaves(f.Y, isAnd, out)
			return
		}
	}
	*out = append(*out, f)
}

func simplifyAnd(f And) Formula {
	var leaves []Formula
	flattenInto(f.X, true, &leaves)
	flattenInto(f.Y, true, &leaves)
	seen := make(map[string]bool, len(leaves))
	kept := leaves[:0]
	for _, l := range leaves {
		if c, ok := l.(BoolConst); ok {
			if !c.Val {
				return False
			}
			continue
		}
		k := FormulaKey(l)
		if seen[k] {
			continue
		}
		if seen[negKey(k)] {
			return False // x ∧ ¬x
		}
		seen[k] = true
		kept = append(kept, l)
	}
	return Conj(kept...)
}

func simplifyOr(f Or) Formula {
	var leaves []Formula
	flattenInto(f.X, false, &leaves)
	flattenInto(f.Y, false, &leaves)
	seen := make(map[string]bool, len(leaves))
	kept := leaves[:0]
	for _, l := range leaves {
		if c, ok := l.(BoolConst); ok {
			if c.Val {
				return True
			}
			continue
		}
		k := FormulaKey(l)
		if seen[k] {
			continue
		}
		if seen[negKey(k)] {
			return True // x ∨ ¬x
		}
		seen[k] = true
		kept = append(kept, l)
	}
	return Disj(kept...)
}

func sortStrings(s []string) {
	// Insertion sort: supports are small, so this beats sort.Strings'
	// interface overhead.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// negKey gives the key of a formula's negation: "!"+k, with double
// negation folded at the key level.
func negKey(k string) string {
	if strings.HasPrefix(k, "!") {
		return k[1:]
	}
	return "!" + k
}

// SimplifyTerm folds constants and arithmetic identities: x+0 → x,
// 0*x → 0, 1*x → x, −(−x) → x, and x − x → 0.
func SimplifyTerm(t Term) Term {
	switch t := t.(type) {
	case nil, IntConst, IntVar:
		return t
	case Add:
		x, y := SimplifyTerm(t.X), SimplifyTerm(t.Y)
		cx, okx := x.(IntConst)
		cy, oky := y.(IntConst)
		if okx && oky {
			if sum, ok := addInt64(cx.Val, cy.Val); ok {
				return IntConst{sum}
			}
		}
		if okx && cx.Val == 0 {
			return y
		}
		if oky && cy.Val == 0 {
			return x
		}
		// x - x → 0 in both orientations.
		if ny, ok := y.(Neg); ok && termEq(x, ny.X) {
			return IntConst{0}
		}
		if nx, ok := x.(Neg); ok && termEq(nx.X, y) {
			return IntConst{0}
		}
		return Add{x, y}
	case Neg:
		x := SimplifyTerm(t.X)
		if c, ok := x.(IntConst); ok && c.Val != minInt64 {
			return IntConst{-c.Val}
		}
		if n, ok := x.(Neg); ok {
			return n.X
		}
		return Neg{x}
	case Mul:
		x := SimplifyTerm(t.X)
		if t.K == 0 {
			return IntConst{0}
		}
		if t.K == 1 {
			return x
		}
		if c, ok := x.(IntConst); ok {
			if p, ok := mulInt64(t.K, c.Val); ok {
				return IntConst{p}
			}
		}
		return Mul{K: t.K, X: x}
	case App:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = SimplifyTerm(a)
		}
		return App{Fn: t.Fn, Args: args}
	case Ite:
		// NewIte re-folds after the children simplify: a guard that
		// folded to a constant selects its arm, and arms that became
		// syntactically equal collapse — this is what turns a
		// merged-but-equal cell back into a plain value.
		return NewIte(Simplify(t.G), SimplifyTerm(t.X), SimplifyTerm(t.Y))
	}
	return t
}

const minInt64 = -1 << 63

func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// TermEq reports syntactic equality of terms. Exported for clients
// that collapse merged-but-equal state cells back to plain values.
func TermEq(a, b Term) bool { return termEq(a, b) }

// FormulaEq reports syntactic equality of formulas.
func FormulaEq(a, b Formula) bool { return formulaEq(a, b) }

// termEq is syntactic equality of terms. (Plain == is unusable: App
// holds a slice, and comparing interfaces that contain it panics.)
func termEq(a, b Term) bool {
	switch a := a.(type) {
	case IntConst:
		bb, ok := b.(IntConst)
		return ok && a.Val == bb.Val
	case IntVar:
		bb, ok := b.(IntVar)
		return ok && a.Name == bb.Name
	case Add:
		bb, ok := b.(Add)
		return ok && termEq(a.X, bb.X) && termEq(a.Y, bb.Y)
	case Neg:
		bb, ok := b.(Neg)
		return ok && termEq(a.X, bb.X)
	case Mul:
		bb, ok := b.(Mul)
		return ok && a.K == bb.K && termEq(a.X, bb.X)
	case App:
		bb, ok := b.(App)
		if !ok || a.Fn != bb.Fn || len(a.Args) != len(bb.Args) {
			return false
		}
		for i := range a.Args {
			if !termEq(a.Args[i], bb.Args[i]) {
				return false
			}
		}
		return true
	case Ite:
		bb, ok := b.(Ite)
		return ok && formulaEq(a.G, bb.G) && termEq(a.X, bb.X) && termEq(a.Y, bb.Y)
	}
	return false
}

// formulaEq is syntactic equality of formulas.
func formulaEq(a, b Formula) bool {
	switch a := a.(type) {
	case BoolConst:
		bb, ok := b.(BoolConst)
		return ok && a.Val == bb.Val
	case BoolVar:
		bb, ok := b.(BoolVar)
		return ok && a.Name == bb.Name
	case Not:
		bb, ok := b.(Not)
		return ok && formulaEq(a.X, bb.X)
	case And:
		bb, ok := b.(And)
		return ok && formulaEq(a.X, bb.X) && formulaEq(a.Y, bb.Y)
	case Or:
		bb, ok := b.(Or)
		return ok && formulaEq(a.X, bb.X) && formulaEq(a.Y, bb.Y)
	case Iff:
		bb, ok := b.(Iff)
		return ok && formulaEq(a.X, bb.X) && formulaEq(a.Y, bb.Y)
	case Eq:
		bb, ok := b.(Eq)
		return ok && termEq(a.X, bb.X) && termEq(a.Y, bb.Y)
	case Le:
		bb, ok := b.(Le)
		return ok && termEq(a.X, bb.X) && termEq(a.Y, bb.Y)
	case Lt:
		bb, ok := b.(Lt)
		return ok && termEq(a.X, bb.X) && termEq(a.Y, bb.Y)
	}
	return false
}

// FormulaKey renders an injective canonical string for f: distinct
// structures yield distinct keys (names are length-prefixed so no
// name can forge a delimiter). Negation is normalized so that
// key(¬x) == "!"+key(x), and an ite with a negated guard keys as its
// swapped positive form. The engine's memo and disk tier, Simplify and
// the CDCL root registry all key formulas by it.
func FormulaKey(f Formula) string {
	return string(appendFormulaKey(nil, f))
}

// appendFormulaKey is the allocation-free form of FormulaKey: it
// appends the key to b and returns the extended slice, so hot paths
// can serialize into a reusable scratch buffer and probe a map with
// the no-copy string(b) conversion the compiler elides.
func appendFormulaKey(b []byte, f Formula) []byte {
	switch f := f.(type) {
	case BoolConst:
		if f.Val {
			b = append(b, 'T')
		} else {
			b = append(b, 'F')
		}
	case BoolVar:
		b = append(b, 'b')
		b = strconv.AppendInt(b, int64(len(f.Name)), 10)
		b = append(b, ':')
		b = append(b, f.Name...)
	case Not:
		// Normalize nested negation at the key level.
		if inner, ok := f.X.(Not); ok {
			return appendFormulaKey(b, inner.X)
		}
		b = append(b, '!')
		b = appendFormulaKey(b, f.X)
	case And:
		b = append(b, "&("...)
		b = appendFormulaKey(b, f.X)
		b = append(b, ',')
		b = appendFormulaKey(b, f.Y)
		b = append(b, ')')
	case Or:
		b = append(b, "|("...)
		b = appendFormulaKey(b, f.X)
		b = append(b, ',')
		b = appendFormulaKey(b, f.Y)
		b = append(b, ')')
	case Iff:
		b = append(b, "~("...)
		b = appendFormulaKey(b, f.X)
		b = append(b, ',')
		b = appendFormulaKey(b, f.Y)
		b = append(b, ')')
	case Eq:
		b = append(b, "=("...)
		b = appendTermKey(b, f.X)
		b = append(b, ',')
		b = appendTermKey(b, f.Y)
		b = append(b, ')')
	case Le:
		b = append(b, "<=("...)
		b = appendTermKey(b, f.X)
		b = append(b, ',')
		b = appendTermKey(b, f.Y)
		b = append(b, ')')
	case Lt:
		b = append(b, "<("...)
		b = appendTermKey(b, f.X)
		b = append(b, ',')
		b = appendTermKey(b, f.Y)
		b = append(b, ')')
	default:
		b = fmt.Appendf(b, "?%T", f)
	}
	return b
}

func appendTermKey(b []byte, t Term) []byte {
	switch t := t.(type) {
	case IntConst:
		b = append(b, 'c')
		b = strconv.AppendInt(b, t.Val, 10)
	case IntVar:
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(len(t.Name)), 10)
		b = append(b, ':')
		b = append(b, t.Name...)
	case Add:
		b = append(b, "+("...)
		b = appendTermKey(b, t.X)
		b = append(b, ',')
		b = appendTermKey(b, t.Y)
		b = append(b, ')')
	case Neg:
		b = append(b, '-')
		b = appendTermKey(b, t.X)
	case Mul:
		b = append(b, '*')
		b = strconv.AppendInt(b, t.K, 10)
		b = appendTermKey(b, t.X)
	case App:
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(len(t.Fn)), 10)
		b = append(b, ':')
		b = append(b, t.Fn...)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTermKey(b, a)
		}
		b = append(b, ')')
	case Ite:
		// ite(¬g, a, b) and ite(g, b, a) denote one function, so a
		// negated guard is written as its swapped positive form: NewIte
		// builds that form, and this covers ites built by hand (the
		// summary codec's).
		g, x, y := t.G, t.X, t.Y
		for n, ok := g.(Not); ok; n, ok = g.(Not) {
			g, x, y = n.X, y, x
		}
		b = append(b, "I("...)
		b = appendFormulaKey(b, g)
		b = append(b, ',')
		b = appendTermKey(b, x)
		b = append(b, ',')
		b = appendTermKey(b, y)
		b = append(b, ')')
	default:
		b = fmt.Appendf(b, "?%T", t)
	}
	return b
}

// Support returns the sorted independence tokens of f: "b:" boolean
// variables, "v:" integer variables, and "fn:" uninterpreted function
// symbols. Two formulas sharing no token cannot constrain each other,
// which is the soundness condition behind constraint-independence
// slicing. (Function applications are merged at symbol granularity:
// congruence can link any two applications of one symbol.)
func Support(f Formula) []string {
	set := map[string]bool{}
	supportFormula(f, set)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sortStrings(out)
	return out
}

func supportFormula(f Formula, set map[string]bool) {
	switch f := f.(type) {
	case BoolVar:
		set["b:"+f.Name] = true
	case Not:
		supportFormula(f.X, set)
	case And:
		supportFormula(f.X, set)
		supportFormula(f.Y, set)
	case Or:
		supportFormula(f.X, set)
		supportFormula(f.Y, set)
	case Iff:
		supportFormula(f.X, set)
		supportFormula(f.Y, set)
	case Eq:
		supportTerm(f.X, set)
		supportTerm(f.Y, set)
	case Le:
		supportTerm(f.X, set)
		supportTerm(f.Y, set)
	case Lt:
		supportTerm(f.X, set)
		supportTerm(f.Y, set)
	}
}

func supportTerm(t Term, set map[string]bool) {
	switch t := t.(type) {
	case IntVar:
		set["v:"+t.Name] = true
	case Add:
		supportTerm(t.X, set)
		supportTerm(t.Y, set)
	case Neg:
		supportTerm(t.X, set)
	case Mul:
		supportTerm(t.X, set)
	case App:
		set["fn:"+t.Fn] = true
		for _, a := range t.Args {
			supportTerm(a, set)
		}
	case Ite:
		supportFormula(t.G, set)
		supportTerm(t.X, set)
		supportTerm(t.Y, set)
	}
}
