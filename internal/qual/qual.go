// Package qual implements MIXY's flow-insensitive null/nonnull type
// qualifier inference — a reimplementation, for MicroC, of the
// CilQual system the paper builds on (Foster et al. 2006, Section 4).
//
// Every pointer level of every declared variable, parameter, field,
// and function return gets a qualifier variable. Uses of NULL
// introduce null sources; `nonnull` annotations introduce sinks.
// Assignments generate directed flow edges at the outermost pointer
// level and unification at deeper levels; calls bind arguments to
// parameters context-insensitively. Solving is reachability: a warning
// is issued for every nonnull sink reachable from a null source, with
// the witness path recorded.
//
// The inference is deliberately monotone: MIXY's fixed-point loop
// (Section 4.1) adds constraints discovered by symbolic blocks and
// re-solves; starting from optimistic assumptions (nothing is null)
// and only ever adding nullness makes the loop a least fixed point.
package qual

import (
	"fmt"
	"sort"

	"mix/internal/microc"
)

// QVar is a qualifier variable (one pointer level of one position).
type QVar struct {
	ID   int
	Desc string
	// Annotated nullness from the source, if any.
	Anno microc.Qual
}

func (q *QVar) String() string { return fmt.Sprintf("q%d(%s)", q.ID, q.Desc) }

// QType mirrors a MicroC type with a qualifier variable at each
// pointer level. Ptr is nil for non-pointer types.
type QType struct {
	Ptr  *QVar
	Elem *QType
}

// Warning reports a null value flowing to a nonnull position.
type Warning struct {
	Sink   *QVar
	Source *QVar
	// Reason describes the null source (e.g. "NULL at 3:12" or
	// "implicit zero initialization of g").
	Reason string
	// Path is the witness chain of qualifier variables from source to
	// sink.
	Path []*QVar
}

func (w Warning) String() string {
	s := fmt.Sprintf("null value may reach nonnull position %s", w.Sink.Desc)
	if len(w.Path) > 1 {
		s += " via"
		for _, q := range w.Path {
			s += " " + q.Desc + ";"
		}
	}
	if w.Reason != "" {
		s += " (source: " + w.Reason + ")"
	}
	return s
}

// edge is a directed flow edge with provenance.
type edge struct {
	to    int
	unify bool // unification edges propagate both ways (kept directed twice)
}

// Inference is the constraint system. Construct with New; add
// functions; Solve.
type Inference struct {
	Prog *microc.Program

	vars  []*QVar
	succs [][]edge

	// declared positions
	varQ     map[*microc.VarDecl]*QType
	retQ     map[*microc.FuncDef]*QType
	siteQ    map[int]*QType // malloc site cell contents
	analyzed map[*microc.FuncDef]bool

	// null sources: var id → reason description.
	nullSrc map[int]string
	// nonnull sinks: var id → reason.
	sinks map[int]string

	// solved state
	nullReach map[int]int // reached var id → predecessor var id (or -1)
	solved    bool
}

// New builds an empty inference for prog, declaring qualifier
// variables for all globals, struct fields, and function signatures.
func New(prog *microc.Program) *Inference {
	inf := &Inference{
		Prog:     prog,
		varQ:     map[*microc.VarDecl]*QType{},
		retQ:     map[*microc.FuncDef]*QType{},
		siteQ:    map[int]*QType{},
		analyzed: map[*microc.FuncDef]bool{},
		nullSrc:  map[int]string{},
		sinks:    map[int]string{},
	}
	for _, g := range prog.Globals {
		inf.declQ(g)
	}
	for _, s := range prog.Structs {
		for _, f := range s.Fields {
			inf.declQ(f)
		}
	}
	for _, f := range prog.Funcs {
		for _, p := range f.Params {
			inf.declQ(p)
		}
		inf.retQ[f] = inf.newQType(f.Ret, f.Name+"::<ret>")
	}
	for _, g := range prog.Globals {
		if g.Init != nil {
			inf.subtype(inf.expr(g.Init), inf.declQ(g))
		}
	}
	return inf
}

// AddImplicitNullGlobals marks every uninitialized pointer global as a
// null source, reflecting C's zero initialization. The paper's MIXY
// tracks only explicit NULL uses, so this is off by default; the
// differential soundness oracle (internal/cgen) turns it on because
// the concrete semantics really does start those globals at null.
func (inf *Inference) AddImplicitNullGlobals() {
	for _, g := range inf.Prog.Globals {
		if g.Init != nil {
			continue
		}
		if q := inf.declQ(g).Ptr; q != nil && q.Anno != microc.QNonNull {
			if _, ok := inf.nullSrc[q.ID]; !ok {
				inf.nullSrc[q.ID] = "implicit zero initialization of " + g.Name
				inf.solved = false
			}
		}
	}
}

func (inf *Inference) fresh(desc string, anno microc.Qual) *QVar {
	q := &QVar{ID: len(inf.vars), Desc: desc, Anno: anno}
	inf.vars = append(inf.vars, q)
	inf.succs = append(inf.succs, nil)
	switch anno {
	case microc.QNull:
		inf.nullSrc[q.ID] = "null annotation on " + desc
	case microc.QNonNull:
		inf.sinks[q.ID] = "nonnull annotation on " + desc
	}
	return q
}

// newQType builds a QType skeleton for ty, honoring annotations.
func (inf *Inference) newQType(ty microc.Type, desc string) *QType {
	switch ty := ty.(type) {
	case microc.PtrType:
		elem := inf.newQType(ty.Elem, "*"+desc)
		return &QType{Ptr: inf.fresh(desc, ty.Qual), Elem: elem}
	case microc.FnPtrType:
		return &QType{Ptr: inf.fresh(desc, microc.QNone)}
	default:
		return &QType{}
	}
}

func (inf *Inference) declQ(d *microc.VarDecl) *QType {
	if q, ok := inf.varQ[d]; ok {
		return q
	}
	desc := d.Name
	if d.Owner != "" {
		desc = d.Owner + "::" + d.Name
	}
	q := inf.newQType(d.Type, desc)
	inf.varQ[d] = q
	return q
}

// VarQ returns the qualified type of a declaration.
func (inf *Inference) VarQ(d *microc.VarDecl) *QType { return inf.declQ(d) }

// RetQ returns the qualified return type of a function.
func (inf *Inference) RetQ(f *microc.FuncDef) *QType { return inf.retQ[f] }

// SiteQ returns the qualified type of a malloc site's cell.
func (inf *Inference) SiteQ(site int, elem microc.Type) *QType {
	if q, ok := inf.siteQ[site]; ok {
		return q
	}
	q := inf.newQType(elem, fmt.Sprintf("malloc#%d", site))
	inf.siteQ[site] = q
	return q
}

// flow adds a directed edge: nullness of src flows into dst.
func (inf *Inference) flow(src, dst *QVar) {
	if src == nil || dst == nil || src == dst {
		return
	}
	inf.succs[src.ID] = append(inf.succs[src.ID], edge{to: dst.ID})
	inf.solved = false
}

// Unify forces two qualifier variables equal (flow both ways).
func (inf *Inference) Unify(a, b *QVar) {
	if a == nil || b == nil || a == b {
		return
	}
	inf.succs[a.ID] = append(inf.succs[a.ID], edge{to: b.ID, unify: true})
	inf.succs[b.ID] = append(inf.succs[b.ID], edge{to: a.ID, unify: true})
	inf.solved = false
}

// unifyDeep unifies all pointer levels of two qualified types.
func (inf *Inference) unifyDeep(a, b *QType) {
	for a != nil && b != nil {
		inf.Unify(a.Ptr, b.Ptr)
		a, b = a.Elem, b.Elem
	}
}

// subtype makes a usable where b is expected: outer level flows, inner
// levels unify (standard pointer invariance).
func (inf *Inference) subtype(a, b *QType) {
	if a == nil || b == nil {
		return
	}
	inf.flow(a.Ptr, b.Ptr)
	inf.unifyDeep(a.Elem, b.Elem)
}

// ConstrainNull marks q as possibly null (used by MIXY when a symbolic
// block's result may be null). Reports whether this is new
// information, which drives the fixed-point loop.
func (inf *Inference) ConstrainNull(q *QVar, reason string) bool {
	if q == nil {
		return false
	}
	if _, ok := inf.nullSrc[q.ID]; ok {
		return false
	}
	inf.nullSrc[q.ID] = reason
	inf.solved = false
	return true
}

// AddFunction generates constraints for a function body (idempotent).
func (inf *Inference) AddFunction(f *microc.FuncDef) {
	if inf.analyzed[f] || f.Body == nil {
		return
	}
	inf.analyzed[f] = true
	inf.stmt(f, f.Body)
}

func (inf *Inference) stmt(fn *microc.FuncDef, s microc.Stmt) {
	switch s := s.(type) {
	case *microc.BlockStmt:
		for _, inner := range s.Stmts {
			inf.stmt(fn, inner)
		}
	case *microc.DeclStmt:
		q := inf.declQ(s.Decl)
		if s.Decl.Init != nil {
			iq := inf.expr(s.Decl.Init)
			inf.subtype(iq, q)
		}
	case *microc.ExprStmt:
		inf.expr(s.X)
	case *microc.IfStmt:
		inf.expr(s.Cond)
		inf.stmt(fn, s.Then)
		if s.Else != nil {
			inf.stmt(fn, s.Else)
		}
	case *microc.WhileStmt:
		inf.expr(s.Cond)
		inf.stmt(fn, s.Body)
	case *microc.ReturnStmt:
		if s.X != nil {
			inf.subtype(inf.expr(s.X), inf.retQ[fn])
		}
	}
}

// expr generates constraints and returns the qualified type of e.
func (inf *Inference) expr(e microc.Expr) *QType {
	switch e := e.(type) {
	case *microc.IntLit:
		return &QType{}
	case *microc.NullLit:
		q := inf.fresh(fmt.Sprintf("NULL@%s", e.ExprPos()), microc.QNone)
		inf.nullSrc[q.ID] = fmt.Sprintf("NULL at %s", e.ExprPos())
		inf.solved = false
		return &QType{Ptr: q, Elem: &QType{}}
	case *microc.VarRef:
		switch ref := e.Ref.(type) {
		case *microc.VarDecl:
			return inf.declQ(ref)
		case *microc.FuncDef:
			// A function name used as a value: a nonnull fnptr.
			return &QType{Ptr: inf.fresh("&"+ref.Name, microc.QNone)}
		}
		return &QType{}
	case *microc.Unary:
		xq := inf.expr(e.X)
		switch e.Op {
		case microc.OpDeref:
			if xq.Elem != nil {
				return xq.Elem
			}
			return &QType{}
		case microc.OpAddr:
			// &x is never null; its element is x's qualified type.
			return &QType{Ptr: inf.fresh(fmt.Sprintf("&@%s", e.ExprPos()), microc.QNone), Elem: xq}
		default:
			return &QType{}
		}
	case *microc.Binary:
		inf.expr(e.X)
		inf.expr(e.Y)
		return &QType{}
	case *microc.Assign:
		rq := inf.expr(e.RHS)
		lq := inf.expr(e.LHS)
		inf.subtype(rq, lq)
		return lq
	case *microc.Call:
		return inf.call(e)
	case *microc.Field:
		inf.expr(e.X)
		if sn, fld, ok := fieldQOf(e); ok {
			if sd, found := inf.Prog.Struct(sn); found {
				if fd, found := sd.Field(fld); found {
					return inf.declQ(fd)
				}
			}
		}
		return &QType{}
	case *microc.Malloc:
		// malloc yields a non-null pointer to a fresh cell.
		return &QType{
			Ptr:  inf.fresh(fmt.Sprintf("malloc@%s", e.ExprPos()), microc.QNone),
			Elem: inf.SiteQ(e.Site, e.ElemType),
		}
	case *microc.Cast:
		// Casts are qualifier-transparent at the top level.
		xq := inf.expr(e.X)
		return xq
	}
	return &QType{}
}

func fieldQOf(e *microc.Field) (string, string, bool) {
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

// call binds arguments to parameters and returns the result type.
// Context-insensitive: all call sites share the callee's variables.
func (inf *Inference) call(e *microc.Call) *QType {
	var callee *microc.FuncDef
	if vr, ok := e.Fun.(*microc.VarRef); ok {
		if f, isFunc := vr.Ref.(*microc.FuncDef); isFunc {
			callee = f
		}
	}
	if callee == nil {
		// Indirect call: arguments still evaluated; result unknown.
		for _, a := range e.Args {
			inf.expr(a)
		}
		return &QType{}
	}
	for i, a := range e.Args {
		aq := inf.expr(a)
		if i < len(callee.Params) {
			inf.subtype(aq, inf.declQ(callee.Params[i]))
		}
	}
	return inf.retQ[callee]
}

// reach brings the union reachability behind IsNull and QualOf up to
// date: one BFS from every null source, rerun only when a constraint
// was added since the last one (the solved flag).
func (inf *Inference) reach() {
	if inf.solved {
		return
	}
	inf.nullReach = map[int]int{}
	var queue []int
	for id := range inf.nullSrc {
		inf.nullReach[id] = -1
		queue = append(queue, id)
	}
	sort.Ints(queue) // determinism
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ed := range inf.succs[n] {
			if _, seen := inf.nullReach[ed.to]; !seen {
				inf.nullReach[ed.to] = n
				queue = append(queue, ed.to)
			}
		}
	}
	inf.solved = true
}

// Solve propagates nullness and returns warnings — one per
// (null source, nonnull sink) flow, with a witness path (the paper's
// "imprecise qualifier flows"). Only Solve builds the per-source
// witness searches; IsNull and QualOf read the cached reachability.
func (inf *Inference) Solve() []Warning {
	var srcIDs []int
	for id := range inf.nullSrc {
		srcIDs = append(srcIDs, id)
	}
	sort.Ints(srcIDs)
	var sinkIDs []int
	for id := range inf.sinks {
		sinkIDs = append(sinkIDs, id)
	}
	sort.Ints(sinkIDs)

	var out []Warning
	for _, src := range srcIDs {
		// Per-source BFS with predecessors for witness paths.
		pred := map[int]int{src: -1}
		queue := []int{src}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, ed := range inf.succs[n] {
				if _, seen := pred[ed.to]; !seen {
					pred[ed.to] = n
					queue = append(queue, ed.to)
				}
			}
		}
		for _, sink := range sinkIDs {
			if _, reached := pred[sink]; !reached {
				continue
			}
			w := Warning{Sink: inf.vars[sink], Source: inf.vars[src], Reason: inf.nullSrc[src]}
			for cur := sink; cur != -1; cur = pred[cur] {
				w.Path = append([]*QVar{inf.vars[cur]}, w.Path...)
			}
			out = append(out, w)
		}
	}
	return out
}

// IsNull reports whether q may be null in the current solution
// (propagating first if constraints were added since).
func (inf *Inference) IsNull(q *QVar) bool {
	if q == nil {
		return false
	}
	inf.reach()
	_, reached := inf.nullReach[q.ID]
	return reached
}

// QualOf returns the solved qualifier of q: null if reachable from a
// null source, otherwise nonnull (the optimistic assumption of
// Section 4.1).
func (inf *Inference) QualOf(q *QVar) microc.Qual {
	if q == nil {
		return microc.QNone
	}
	if q.Anno == microc.QNonNull {
		return microc.QNonNull
	}
	if inf.IsNull(q) {
		return microc.QNull
	}
	return microc.QNonNull
}
