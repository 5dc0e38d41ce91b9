// Package pointer implements an Andersen-style, inclusion-based,
// context-insensitive, field-based may points-to analysis for MicroC.
// It stands in for CIL's built-in pointer analysis in the paper's
// MIXY prototype: MIXY uses it to restore aliasing relationships when
// switching from symbolic to typed blocks, to lazily initialize
// symbolic memory, and to resolve calls through function pointers
// (Section 4.2).
//
// Being context-insensitive and field-based, it conflates call sites
// and struct instances exactly like the analysis the paper complains
// about in Section 4.6 — reproducing those limitations is part of the
// reproduction.
package pointer

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mix/internal/microc"
)

// LocKind classifies abstract locations.
type LocKind int

const (
	// VarLoc is a named variable (global, local, or parameter).
	VarLoc LocKind = iota
	// FieldLoc is a struct field, conflated per (struct, field).
	FieldLoc
	// MallocLoc is a heap allocation site.
	MallocLoc
	// FuncLoc is a function (for function pointers).
	FuncLoc
	// retLoc is the return-value pseudo-variable of a function.
	retLoc
	// tempLoc is an analysis-internal temporary.
	tempLoc
)

// Loc is an abstract memory location.
type Loc struct {
	Kind   LocKind
	Var    *microc.VarDecl // VarLoc
	Struct string          // FieldLoc
	Field  string          // FieldLoc
	Site   int             // MallocLoc
	Func   *microc.FuncDef // FuncLoc, retLoc
	id     int
}

func (l Loc) String() string {
	switch l.Kind {
	case VarLoc:
		if l.Var.Owner != "" {
			return l.Var.Owner + "::" + l.Var.Name
		}
		return l.Var.Name
	case FieldLoc:
		return "struct " + l.Struct + "." + l.Field
	case MallocLoc:
		return fmt.Sprintf("malloc#%d", l.Site)
	case FuncLoc:
		return "&" + l.Func.Name
	case retLoc:
		return l.Func.Name + "::<ret>"
	}
	return fmt.Sprintf("tmp%d", l.id)
}

// Analysis holds solved points-to results.
type Analysis struct {
	// mu makes the query API safe for concurrent use. Queries mutate
	// the tables: node interning is lazy, so lookups for
	// never-generated entities add nodes, and ptsOf fills sorted on
	// first use.
	mu    sync.Mutex
	prog  *microc.Program
	locs  []Loc
	byKey map[string]int

	pts   []map[int]bool
	succs []map[int]bool // copy edges
	loads []map[int]bool // dst ⊇ *n
	strs  []map[int]bool // *n ⊇ src

	// sorted memoizes ptsOf per node solved by Analyze; a nil entry is
	// not yet computed. Solved sets never change afterwards, and a node
	// interned later has an empty set.
	sorted [][]Loc

	// indirect call sites discovered during constraint generation.
	indirect []indirectCall
	// resolved direct + indirect call targets per call node.
	callTargets map[*microc.Call][]*microc.FuncDef
	// exprNode memoizes the node of resolved expressions.
	exprNode  map[microc.Expr]int
	tempCount int
}

type indirectCall struct {
	call *microc.Call
	fun  int
	args []int
	res  int
}

// Analyze runs the analysis to fixpoint over the whole program.
func Analyze(prog *microc.Program) *Analysis {
	a := &Analysis{
		prog:        prog,
		byKey:       map[string]int{},
		callTargets: map[*microc.Call][]*microc.FuncDef{},
		exprNode:    map[microc.Expr]int{},
	}
	a.generate()
	a.solve()
	// Indirect calls may reveal new argument/return flows; iterate
	// until the set of resolved targets stabilizes.
	for a.bindIndirect() {
		a.solve()
	}
	a.sorted = make([][]Loc, len(a.locs))
	return a
}

// node interning ------------------------------------------------------

func (a *Analysis) intern(key string, mk func(id int) Loc) int {
	if id, ok := a.byKey[key]; ok {
		return id
	}
	id := len(a.locs)
	a.byKey[key] = id
	a.locs = append(a.locs, mk(id))
	a.pts = append(a.pts, map[int]bool{})
	a.succs = append(a.succs, map[int]bool{})
	a.loads = append(a.loads, map[int]bool{})
	a.strs = append(a.strs, map[int]bool{})
	return id
}

func (a *Analysis) varNode(d *microc.VarDecl) int {
	return a.intern(fmt.Sprintf("v:%p", d), func(id int) Loc {
		return Loc{Kind: VarLoc, Var: d, id: id}
	})
}

func (a *Analysis) fieldNode(structName, field string) int {
	return a.intern("f:"+structName+"."+field, func(id int) Loc {
		return Loc{Kind: FieldLoc, Struct: structName, Field: field, id: id}
	})
}

func (a *Analysis) mallocNode(site int) int {
	return a.intern(fmt.Sprintf("m:%d", site), func(id int) Loc {
		return Loc{Kind: MallocLoc, Site: site, id: id}
	})
}

func (a *Analysis) funcNode(f *microc.FuncDef) int {
	return a.intern("fn:"+f.Name, func(id int) Loc {
		return Loc{Kind: FuncLoc, Func: f, id: id}
	})
}

func (a *Analysis) retNode(f *microc.FuncDef) int {
	return a.intern("r:"+f.Name, func(id int) Loc {
		return Loc{Kind: retLoc, Func: f, id: id}
	})
}

func (a *Analysis) tempNode() int {
	a.tempCount++
	return a.intern(fmt.Sprintf("t:%d", a.tempCount), func(id int) Loc {
		return Loc{Kind: tempLoc, id: id}
	})
}

// constraint primitives ------------------------------------------------

func (a *Analysis) addrOf(dst, loc int) { a.pts[dst][loc] = true }
func (a *Analysis) copyEdge(src, dst int) {
	if src >= 0 && dst >= 0 && src != dst {
		a.succs[src][dst] = true
	}
}
func (a *Analysis) load(src, dst int) { // dst ⊇ *src
	if src >= 0 && dst >= 0 {
		a.loads[src][dst] = true
	}
}
func (a *Analysis) store(dst, src int) { // *dst ⊇ src
	if src >= 0 && dst >= 0 {
		a.strs[dst][src] = true
	}
}

// constraint generation ------------------------------------------------

func (a *Analysis) generate() {
	for _, g := range a.prog.Globals {
		if g.Init != nil {
			n := a.rvalue(g.Init)
			a.copyEdge(n, a.varNode(g))
		} else {
			a.varNode(g)
		}
	}
	for _, f := range a.prog.Funcs {
		for _, p := range f.Params {
			a.varNode(p)
		}
		if f.Body != nil {
			a.stmt(f, f.Body)
		}
	}
}

func (a *Analysis) stmt(fn *microc.FuncDef, s microc.Stmt) {
	switch s := s.(type) {
	case *microc.BlockStmt:
		for _, inner := range s.Stmts {
			a.stmt(fn, inner)
		}
	case *microc.DeclStmt:
		n := a.varNode(s.Decl)
		if s.Decl.Init != nil {
			a.copyEdge(a.rvalue(s.Decl.Init), n)
		}
	case *microc.ExprStmt:
		a.rvalue(s.X)
	case *microc.IfStmt:
		a.rvalue(s.Cond)
		a.stmt(fn, s.Then)
		if s.Else != nil {
			a.stmt(fn, s.Else)
		}
	case *microc.WhileStmt:
		a.rvalue(s.Cond)
		a.stmt(fn, s.Body)
	case *microc.ReturnStmt:
		if s.X != nil {
			a.copyEdge(a.rvalue(s.X), a.retNode(fn))
		}
	}
}

// rvalue generates constraints for e and returns the node holding its
// value, or -1 for non-pointer values.
func (a *Analysis) rvalue(e microc.Expr) int {
	switch e := e.(type) {
	case *microc.IntLit, *microc.NullLit:
		return -1
	case *microc.VarRef:
		switch ref := e.Ref.(type) {
		case *microc.VarDecl:
			return a.varNode(ref)
		case *microc.FuncDef:
			t := a.tempNode()
			a.addrOf(t, a.funcNode(ref))
			return t
		}
		return -1
	case *microc.Unary:
		switch e.Op {
		case microc.OpDeref:
			src := a.rvalue(e.X)
			if src < 0 {
				return -1
			}
			t := a.tempNode()
			a.load(src, t)
			a.exprNode[e] = t
			return t
		case microc.OpAddr:
			// &*p is p.
			if u, ok := e.X.(*microc.Unary); ok && u.Op == microc.OpDeref {
				return a.rvalue(u.X)
			}
			t := a.tempNode()
			for _, l := range a.lvalueNodes(e.X) {
				a.addrOf(t, l)
			}
			return t
		default:
			a.rvalue(e.X)
			return -1
		}
	case *microc.Binary:
		a.rvalue(e.X)
		a.rvalue(e.Y)
		return -1
	case *microc.Assign:
		rhs := a.rvalue(e.RHS)
		a.assignTo(e.LHS, rhs)
		return rhs
	case *microc.Field:
		base := a.rvalue(e.X)
		_ = base
		if sn, fld, ok := fieldOf(e); ok {
			t := a.tempNode()
			a.copyEdge(a.fieldNode(sn, fld), t)
			return t
		}
		return -1
	case *microc.Malloc:
		t := a.tempNode()
		a.addrOf(t, a.mallocNode(e.Site))
		return t
	case *microc.Cast:
		return a.rvalue(e.X)
	case *microc.Call:
		return a.call(e)
	}
	return -1
}

// assignTo generates constraints for lhs = (node rhs).
func (a *Analysis) assignTo(lhs microc.Expr, rhs int) {
	switch lhs := lhs.(type) {
	case *microc.VarRef:
		if d, ok := lhs.Ref.(*microc.VarDecl); ok {
			a.copyEdge(rhs, a.varNode(d))
		}
	case *microc.Unary:
		if lhs.Op == microc.OpDeref {
			dst := a.rvalue(lhs.X)
			a.store(dst, rhs)
		}
	case *microc.Field:
		a.rvalue(lhs.X)
		if sn, fld, ok := fieldOf(lhs); ok {
			a.copyEdge(rhs, a.fieldNode(sn, fld))
		}
	case *microc.Cast:
		a.assignTo(lhs.X, rhs)
	}
}

// lvalueNodes returns the constraint nodes denoting the locations of a
// non-deref lvalue (for address-of).
func (a *Analysis) lvalueNodes(e microc.Expr) []int {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			return []int{a.varNode(d)}
		}
	case *microc.Field:
		a.rvalue(e.X)
		if sn, fld, ok := fieldOf(e); ok {
			return []int{a.fieldNode(sn, fld)}
		}
	case *microc.Cast:
		return a.lvalueNodes(e.X)
	}
	return nil
}

// fieldOf extracts the struct name and field of a Field expression.
func fieldOf(e *microc.Field) (string, string, bool) {
	xt := e.X.StaticType()
	if e.Arrow {
		if pt, ok := xt.(microc.PtrType); ok {
			if st, ok := pt.Elem.(microc.StructType); ok {
				return st.Name, e.Name, true
			}
		}
		return "", "", false
	}
	if st, ok := xt.(microc.StructType); ok {
		return st.Name, e.Name, true
	}
	return "", "", false
}

// call generates constraints for a call and returns its result node.
func (a *Analysis) call(e *microc.Call) int {
	// Direct call?
	if vr, ok := e.Fun.(*microc.VarRef); ok {
		if f, isFunc := vr.Ref.(*microc.FuncDef); isFunc {
			a.callTargets[e] = []*microc.FuncDef{f}
			return a.bindCall(e, f)
		}
	}
	// Indirect: evaluate the function expression (unwrapping (*f)).
	funExpr := e.Fun
	if u, ok := funExpr.(*microc.Unary); ok && u.Op == microc.OpDeref {
		funExpr = u.X
	}
	fun := a.rvalue(funExpr)
	args := make([]int, len(e.Args))
	for i, arg := range e.Args {
		args[i] = a.rvalue(arg)
	}
	res := a.tempNode()
	a.indirect = append(a.indirect, indirectCall{call: e, fun: fun, args: args, res: res})
	a.exprNode[e] = res
	return res
}

// bindCall wires arguments and return value for a resolved callee.
func (a *Analysis) bindCall(e *microc.Call, f *microc.FuncDef) int {
	for i, arg := range e.Args {
		n := a.rvalue(arg)
		if i < len(f.Params) {
			a.copyEdge(n, a.varNode(f.Params[i]))
		}
	}
	t := a.tempNode()
	if f.Body != nil {
		a.copyEdge(a.retNode(f), t)
	}
	a.exprNode[e] = t
	return t
}

// bindIndirect resolves indirect calls against current points-to sets;
// reports whether any new binding was added.
func (a *Analysis) bindIndirect() bool {
	changed := false
	for _, ic := range a.indirect {
		if ic.fun < 0 {
			continue
		}
		for l := range a.pts[ic.fun] {
			loc := a.locs[l]
			if loc.Kind != FuncLoc {
				continue
			}
			f := loc.Func
			already := false
			for _, t := range a.callTargets[ic.call] {
				if t == f {
					already = true
				}
			}
			if already {
				continue
			}
			changed = true
			a.callTargets[ic.call] = append(a.callTargets[ic.call], f)
			for i, arg := range ic.args {
				if i < len(f.Params) {
					a.copyEdge(arg, a.varNode(f.Params[i]))
				}
			}
			if f.Body != nil {
				a.copyEdge(a.retNode(f), ic.res)
			}
		}
	}
	return changed
}

// solve runs the inclusion-constraint worklist to fixpoint.
func (a *Analysis) solve() {
	work := make([]int, 0, len(a.locs))
	for n := range a.locs {
		if len(a.pts[n]) > 0 {
			work = append(work, n)
		}
	}
	inWork := map[int]bool{}
	for _, n := range work {
		inWork[n] = true
	}
	push := func(n int) {
		if !inWork[n] {
			inWork[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n] = false
		// Process complex constraints against pts(n).
		for l := range a.pts[n] {
			for dst := range a.loads[n] {
				if !a.succs[l][dst] {
					a.succs[l][dst] = true
					push(l)
				}
			}
			for src := range a.strs[n] {
				if !a.succs[src][l] {
					a.succs[src][l] = true
					push(src)
				}
			}
		}
		// Propagate along copy edges.
		for dst := range a.succs[n] {
			grew := false
			for l := range a.pts[n] {
				if !a.pts[dst][l] {
					a.pts[dst][l] = true
					grew = true
				}
			}
			if grew {
				push(dst)
			}
		}
	}
}

// queries ---------------------------------------------------------------

// pointable reports whether a location can be a points-to target.
func pointable(l Loc) bool {
	switch l.Kind {
	case VarLoc, FieldLoc, MallocLoc, FuncLoc:
		return true
	}
	return false
}

// ptsOf returns node n's pointable targets sorted by node id. The
// list is memoized and shared: callers must not modify it. Its
// capacity is capped, so appending to it copies.
func (a *Analysis) ptsOf(n int) []Loc {
	if n < 0 || n >= len(a.sorted) {
		return nil // no node, or one interned after Analyze: an empty set
	}
	if out := a.sorted[n]; out != nil {
		return out
	}
	out := []Loc{} // non-nil: marks n computed even when empty
	for l := range a.pts[n] {
		if pointable(a.locs[l]) {
			out = append(out, a.locs[l])
		}
	}
	slices.SortFunc(out, func(x, y Loc) int { return cmp.Compare(x.id, y.id) })
	out = out[:len(out):len(out)]
	a.sorted[n] = out
	return out
}

// PointsToVar returns the abstract locations a declared variable may
// point to. The list is shared: callers must not modify it.
func (a *Analysis) PointsToVar(d *microc.VarDecl) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d.Kind == microc.FieldVar {
		return a.ptsOf(a.fieldNode(d.Owner, d.Name))
	}
	return a.ptsOf(a.varNode(d))
}

// PointsToField returns the abstract locations a struct field may
// point to. The list is shared: callers must not modify it.
func (a *Analysis) PointsToField(structName, field string) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ptsOf(a.fieldNode(structName, field))
}

// PointsToLoc returns the points-to set of an abstract location
// (chasing one level of indirection). The list is shared: callers
// must not modify it.
func (a *Analysis) PointsToLoc(l Loc) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ptsOf(l.id)
}

// CallTargets returns the possible callees of a call expression.
func (a *Analysis) CallTargets(e *microc.Call) []*microc.FuncDef {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.callTargets[e]
}

// LValueLocs returns the abstract locations an lvalue expression may
// denote. The list may be shared: callers must not modify it.
func (a *Analysis) LValueLocs(e microc.Expr) []Loc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lvalueLocs(e)
}

func (a *Analysis) lvalueLocs(e microc.Expr) []Loc {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			n := a.varNode(d)
			return []Loc{a.locs[n]}
		}
	case *microc.Unary:
		if e.Op == microc.OpDeref {
			if n, ok := a.exprOrVar(e.X); ok {
				return a.ptsOf(n)
			}
		}
	case *microc.Field:
		if sn, fld, ok := fieldOf(e); ok {
			n := a.fieldNode(sn, fld)
			return []Loc{a.locs[n]}
		}
	case *microc.Cast:
		return a.lvalueLocs(e.X)
	}
	return nil
}

// exprOrVar finds the constraint node of a (previously generated)
// expression.
func (a *Analysis) exprOrVar(e microc.Expr) (int, bool) {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			return a.varNode(d), true
		}
	case *microc.Cast:
		return a.exprOrVar(e.X)
	case *microc.Field:
		if sn, fld, ok := fieldOf(e); ok {
			return a.fieldNode(sn, fld), true
		}
	}
	if n, ok := a.exprNode[e]; ok {
		return n, true
	}
	return -1, false
}
