package symexec

import (
	"fmt"

	"mix/internal/microc"
	"mix/internal/solver"
)

// boolValue reifies a condition formula as the integer 1/0.
func boolValue(f solver.Formula) Value {
	return mkITE(f, VInt{T: solver.IntConst{Val: 1}}, VInt{T: solver.IntConst{Val: 0}})
}

// evalExpr evaluates e, forking as needed.
func (x *Executor) evalExpr(st State, e microc.Expr, depth int) ([]evalOut, error) {
	switch e := e.(type) {
	case *microc.IntLit:
		return []evalOut{{st: st, v: VInt{T: solver.IntConst{Val: e.Val}}}}, nil

	case *microc.NullLit:
		return []evalOut{{st: st, v: VNull{}}}, nil

	case *microc.VarRef:
		switch ref := e.Ref.(type) {
		case *microc.VarDecl:
			obj := x.VarObj(ref)
			return []evalOut{{st: st, v: x.ReadCell(st, obj, "")}}, nil
		case *microc.FuncDef:
			return []evalOut{{st: st, v: VFunc{F: ref}}}, nil
		}
		return nil, fmt.Errorf("symexec: unresolved name %s", e.Name)

	case *microc.Unary:
		switch e.Op {
		case microc.OpDeref:
			outs, err := x.evalExpr(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []evalOut
			for _, o := range outs {
				lvs := x.derefTargets(o.st, o.v, e.ExprPos(), e.X.String())
				for _, lv := range lvs {
					result = append(result, evalOut{st: lv.st, v: x.ReadCell(lv.st, lv.obj, lv.field)})
				}
			}
			return result, nil
		case microc.OpAddr:
			lvs, err := x.evalLV(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []evalOut
			for _, lv := range lvs {
				result = append(result, evalOut{st: lv.st, v: VObj{Obj: lv.obj, Field: lv.field}})
			}
			return result, nil
		case microc.OpNot:
			conds, err := x.evalCond(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []evalOut
			for _, c := range conds {
				result = append(result, evalOut{st: c.st, v: boolValue(solver.NewNot(c.f))})
			}
			return result, nil
		case microc.OpNeg:
			outs, err := x.evalExpr(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []evalOut
			for _, o := range outs {
				t, ok := intOf(o.v)
				if !ok {
					x.report(o.st, Imprecision, e.ExprPos(), "negation of non-integer %s", o.v)
					result = append(result, evalOut{st: o.st, v: x.FreshInt("neg")})
					continue
				}
				result = append(result, evalOut{st: o.st, v: VInt{T: solver.Neg{X: t}}})
			}
			return result, nil
		}

	case *microc.Binary:
		switch e.Op {
		case microc.OpAdd, microc.OpSub:
			return x.evalArith(st, e, depth)
		default:
			conds, err := x.evalCond(st, e, depth)
			if err != nil {
				return nil, err
			}
			var result []evalOut
			for _, c := range conds {
				result = append(result, evalOut{st: c.st, v: boolValue(c.f)})
			}
			return result, nil
		}

	case *microc.Assign:
		outs, err := x.evalExpr(st, e.RHS, depth)
		if err != nil {
			return nil, err
		}
		var result []evalOut
		for _, o := range outs {
			lvs, err := x.evalLV(o.st, e.LHS, depth)
			if err != nil {
				return nil, err
			}
			for _, lv := range lvs {
				lv.st.Mem.Write(lv.obj, lv.field, o.v)
				result = append(result, evalOut{st: lv.st, v: o.v})
			}
		}
		return result, nil

	case *microc.Call:
		return x.evalCall(st, e, depth)

	case *microc.Field:
		lvs, err := x.evalLV(st, e, depth)
		if err != nil {
			return nil, err
		}
		var result []evalOut
		for _, lv := range lvs {
			result = append(result, evalOut{st: lv.st, v: x.ReadCell(lv.st, lv.obj, lv.field)})
		}
		return result, nil

	case *microc.Malloc:
		// Each execution of a malloc site yields a fresh object (the
		// symbolic executor is context-sensitive here, unlike the
		// pointer analysis).
		id := x.freshID()
		obj := &Object{
			ID:   id,
			Name: fmt.Sprintf("malloc#%d.%d", e.Site, id),
			Type: e.ElemType,
			Site: e.Site,
		}
		return []evalOut{{st: st, v: VObj{Obj: obj}}}, nil

	case *microc.Cast:
		return x.evalExpr(st, e.X, depth)
	}
	return nil, fmt.Errorf("symexec: cannot evaluate %T", e)
}

func (x *Executor) evalArith(st State, e *microc.Binary, depth int) ([]evalOut, error) {
	xs, err := x.evalExpr(st, e.X, depth)
	if err != nil {
		return nil, err
	}
	var result []evalOut
	for _, xo := range xs {
		ys, err := x.evalExpr(xo.st, e.Y, depth)
		if err != nil {
			return nil, err
		}
		for _, yo := range ys {
			tx, okx := intOf(xo.v)
			ty, oky := intOf(yo.v)
			if !okx || !oky {
				x.report(yo.st, Imprecision, e.ExprPos(), "arithmetic on non-integer values")
				result = append(result, evalOut{st: yo.st, v: x.FreshInt("arith")})
				continue
			}
			var t solver.Term
			if e.Op == microc.OpAdd {
				t = solver.Add{X: tx, Y: ty}
			} else {
				t = solver.Sub(tx, ty)
			}
			result = append(result, evalOut{st: yo.st, v: VInt{T: t}})
		}
	}
	return result, nil
}

// evalCall resolves and executes a call expression.
func (x *Executor) evalCall(st State, e *microc.Call, depth int) ([]evalOut, error) {
	// Direct call?
	if vr, ok := e.Fun.(*microc.VarRef); ok {
		if f, isFunc := vr.Ref.(*microc.FuncDef); isFunc {
			return x.evalCallTo(st, e, f, depth)
		}
	}
	// Indirect: evaluate the function expression, unwrapping (*f).
	funExpr := e.Fun
	if u, ok := funExpr.(*microc.Unary); ok && u.Op == microc.OpDeref {
		funExpr = u.X
	}
	fouts, err := x.evalExpr(st, funExpr, depth)
	if err != nil {
		return nil, err
	}
	var result []evalOut
	for _, fo := range fouts {
		resolved := false
		for _, c := range walkCases(fo.st.PC, fo.v, isFunc, nil) {
			if !x.feasible(fo.st, c.pc) {
				continue
			}
			resolved = true
			cst := fo.st.Clone()
			cst.PC = c.pc
			outs, err := x.evalCallTo(cst, e, c.leaf.(VFunc).F, depth)
			if err != nil {
				return nil, err
			}
			result = append(result, outs...)
		}
		if !resolved {
			// The paper's executor cannot call symbolic function
			// pointers; Case 4 wraps such calls in typed blocks.
			x.report(fo.st, UnsupportedFnPtr, e.ExprPos(), "call through symbolic function pointer %s", funExpr)
			result = append(result, evalOut{st: fo.st, v: VVoid{}})
		}
	}
	return result, nil
}

func (x *Executor) evalCallTo(st State, e *microc.Call, f *microc.FuncDef, depth int) ([]evalOut, error) {
	args := make([]Value, len(e.Args))
	states := []evalOut{{st: st, v: nil}}
	for i, argExpr := range e.Args {
		var next []evalOut
		for _, s := range states {
			outs, err := x.evalExpr(s.st, argExpr, depth)
			if err != nil {
				return nil, err
			}
			next = append(next, outs...)
		}
		if len(next) != 1 {
			// Multiple paths through an argument: execute the call on
			// each path with that path's argument value.
			var result []evalOut
			for _, s := range next {
				argsCopy := make([]Value, len(e.Args))
				copy(argsCopy, args)
				argsCopy[i] = s.v
				rest, err := x.evalCallRest(s.st, e, f, argsCopy, i+1, depth)
				if err != nil {
					return nil, err
				}
				result = append(result, rest...)
			}
			return result, nil
		}
		args[i] = next[0].v
		states = []evalOut{{st: next[0].st}}
	}
	return x.callFunction(states[0].st, f, args, depth, e.ExprPos())
}

// evalCallRest finishes evaluating arguments from index i onward, then
// performs the call.
func (x *Executor) evalCallRest(st State, e *microc.Call, f *microc.FuncDef, args []Value, i int, depth int) ([]evalOut, error) {
	if i >= len(e.Args) {
		return x.callFunction(st, f, args, depth, e.ExprPos())
	}
	outs, err := x.evalExpr(st, e.Args[i], depth)
	if err != nil {
		return nil, err
	}
	var result []evalOut
	for _, o := range outs {
		argsCopy := make([]Value, len(args))
		copy(argsCopy, args)
		argsCopy[i] = o.v
		rest, err := x.evalCallRest(o.st, e, f, argsCopy, i+1, depth)
		if err != nil {
			return nil, err
		}
		result = append(result, rest...)
	}
	return result, nil
}

// evalCond evaluates e as a branch condition formula.
func (x *Executor) evalCond(st State, e microc.Expr, depth int) ([]condOut, error) {
	switch e := e.(type) {
	case *microc.IntLit:
		return []condOut{{st: st, f: solver.BoolConst{Val: e.Val != 0}}}, nil
	case *microc.Unary:
		if e.Op == microc.OpNot {
			inner, err := x.evalCond(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			out := make([]condOut, len(inner))
			for i, c := range inner {
				out[i] = condOut{st: c.st, f: solver.NewNot(c.f)}
			}
			return out, nil
		}
	case *microc.Binary:
		switch e.Op {
		case microc.OpAnd, microc.OpOr:
			xs, err := x.evalCond(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var out []condOut
			for _, xc := range xs {
				ys, err := x.evalCond(xc.st, e.Y, depth)
				if err != nil {
					return nil, err
				}
				for _, yc := range ys {
					var f solver.Formula
					if e.Op == microc.OpAnd {
						f = solver.NewAnd(xc.f, yc.f)
					} else {
						f = solver.NewOr(xc.f, yc.f)
					}
					out = append(out, condOut{st: yc.st, f: f})
				}
			}
			return out, nil
		case microc.OpEq, microc.OpNe, microc.OpLt, microc.OpGt, microc.OpLe, microc.OpGe:
			xs, err := x.evalExpr(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var out []condOut
			for _, xo := range xs {
				ys, err := x.evalExpr(xo.st, e.Y, depth)
				if err != nil {
					return nil, err
				}
				for _, yo := range ys {
					f, err := x.compareFormula(yo.st, e, xo.v, yo.v)
					if err != nil {
						return nil, err
					}
					out = append(out, condOut{st: yo.st, f: f})
				}
			}
			return out, nil
		}
	}
	// Fallback: truthiness of the value.
	outs, err := x.evalExpr(st, e, depth)
	if err != nil {
		return nil, err
	}
	result := make([]condOut, len(outs))
	for i, o := range outs {
		result[i] = condOut{st: o.st, f: x.truthy(o.st, o.v, e.ExprPos())}
	}
	return result, nil
}

// truthy is the condition under which a value is "true" in C.
func (x *Executor) truthy(st State, v Value, pos microc.Pos) solver.Formula {
	if t, ok := intOf(v); ok {
		return solver.Neq(t, solver.IntConst{Val: 0})
	}
	switch v.(type) {
	case VObj, VFunc, VNull, VITE:
		return solver.NewNot(nullFormula(v))
	case VUnknown:
		return x.FreshBool("truthy")
	}
	x.report(st, Imprecision, pos, "condition on unmodeled value %s", v)
	return x.FreshBool("truthy")
}

// compareFormula builds the formula for a comparison of two values.
func (x *Executor) compareFormula(st State, e *microc.Binary, a, b Value) (solver.Formula, error) {
	ta, okA := intOf(a)
	tb, okB := intOf(b)
	switch e.Op {
	case microc.OpEq, microc.OpNe:
		var f solver.Formula
		if okA && okB {
			f = solver.Eq{X: ta, Y: tb}
		} else {
			f = eqFormula(a, b)
		}
		if e.Op == microc.OpNe {
			f = solver.NewNot(f)
		}
		return f, nil
	default:
		if !okA || !okB {
			x.report(st, Imprecision, e.ExprPos(), "ordering comparison on non-integers")
			return x.FreshBool("cmp"), nil
		}
		switch e.Op {
		case microc.OpLt:
			return solver.Lt{X: ta, Y: tb}, nil
		case microc.OpGt:
			return solver.Gt(ta, tb), nil
		case microc.OpLe:
			return solver.Le{X: ta, Y: tb}, nil
		case microc.OpGe:
			return solver.Ge(ta, tb), nil
		}
	}
	return nil, fmt.Errorf("symexec: bad comparison %v", e.Op)
}

// evalLV resolves an lvalue to object cells.
func (x *Executor) evalLV(st State, e microc.Expr, depth int) ([]lvOut, error) {
	switch e := e.(type) {
	case *microc.VarRef:
		if d, ok := e.Ref.(*microc.VarDecl); ok {
			return []lvOut{{st: st, obj: x.VarObj(d)}}, nil
		}
		return nil, fmt.Errorf("symexec: %s is not an lvalue", e.Name)
	case *microc.Unary:
		if e.Op == microc.OpDeref {
			outs, err := x.evalExpr(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []lvOut
			for _, o := range outs {
				result = append(result, x.derefTargets(o.st, o.v, e.ExprPos(), e.X.String())...)
			}
			return result, nil
		}
	case *microc.Field:
		if e.Arrow {
			outs, err := x.evalExpr(st, e.X, depth)
			if err != nil {
				return nil, err
			}
			var result []lvOut
			for _, o := range outs {
				for _, lv := range x.derefTargets(o.st, o.v, e.ExprPos(), e.X.String()) {
					result = append(result, lvOut{st: lv.st, obj: lv.obj, field: e.Name})
				}
			}
			return result, nil
		}
		inner, err := x.evalLV(st, e.X, depth)
		if err != nil {
			return nil, err
		}
		result := make([]lvOut, len(inner))
		for i, lv := range inner {
			result[i] = lvOut{st: lv.st, obj: lv.obj, field: e.Name}
		}
		return result, nil
	case *microc.Cast:
		return x.evalLV(st, e.X, depth)
	}
	return nil, fmt.Errorf("symexec: %T is not an lvalue", e)
}

// ptrCase is one wanted leaf of a conditional value and the path
// condition under which the value takes it.
type ptrCase struct {
	pc   *solver.PC
	leaf Value
}

func isObj(v Value) bool  { _, ok := v.(VObj); return ok }
func isFunc(v Value) bool { _, ok := v.(VFunc); return ok }

// walkCases visits the leaves of a VITE tree in order, then-branch
// first. It returns the leaves satisfying want, each with pc extended
// by the guards on its path. The walk adds one guard per level
// (solver.Chain), so sibling leaves share the nodes of their common
// prefix and a k-leaf tree builds O(k) nodes; each path condition is
// exactly pc.And of its guards' conjunction. Every other leaf goes to
// other (when non-nil) with that conjunction itself, g1 ∧ (g2 ∧ (… ∧
// true)), in the same visit order.
func walkCases(pc *solver.PC, v Value, want func(Value) bool, other func(leaf Value, guard solver.Formula)) []ptrCase {
	var out []ptrCase
	var guards []solver.Formula // the guards from the root to the current node
	// step extends c by g on the way into child, unless child is a
	// leaf nobody wants a path condition for.
	step := func(c solver.Chain, g solver.Formula, child Value) solver.Chain {
		if _, ok := child.(VITE); ok || want(child) {
			return c.And(g)
		}
		return c
	}
	var walk func(v Value, c solver.Chain)
	walk = func(v Value, c solver.Chain) {
		if ite, ok := v.(VITE); ok {
			neg := solver.NewNot(ite.G)
			guards = append(guards, ite.G)
			walk(ite.X, step(c, ite.G, ite.X))
			guards[len(guards)-1] = neg
			walk(ite.Y, step(c, neg, ite.Y))
			guards = guards[:len(guards)-1]
			return
		}
		if want(v) {
			out = append(out, ptrCase{pc: c.PC(), leaf: v})
			return
		}
		if other != nil {
			g := solver.True
			for i := len(guards) - 1; i >= 0; i-- {
				g = solver.NewAnd(guards[i], g)
			}
			other(v, g)
		}
	}
	walk(v, pc.Chain())
	return out
}

// derefTargets resolves a pointer value to object cells, reporting a
// null dereference when the null case is feasible. The returned states
// carry the per-target path conditions. It walks the pointer's VITE
// tree once (walkCases) and issues the null query first, then one
// query per object target in tree order.
func (x *Executor) derefTargets(st State, v Value, pos microc.Pos, what string) []lvOut {
	nullG := solver.False
	objCases := walkCases(st.PC, v, isObj, func(leaf Value, g solver.Formula) {
		switch leaf := leaf.(type) {
		case VNull:
			nullG = solver.NewOr(nullG, g)
		case VInt:
			nullG = solver.NewOr(nullG, solver.NewAnd(g, solver.Eq{X: leaf.T, Y: solver.IntConst{Val: 0}}))
			x.report(st, Imprecision, pos, "dereference of integer value %s", what)
		default:
			x.report(st, Imprecision, pos, "dereference of unmodeled value %s", what)
		}
	})
	if x.feasible(st, st.PC, nullG) {
		x.report(st, NullDeref, pos, "dereference of possibly-null pointer %s", what)
	}
	var out []lvOut
	survivors := 0
	for _, c := range objCases {
		if !x.feasible(st, c.pc) {
			continue
		}
		survivors++
		cst := st
		if survivors > 1 {
			cst = st.Clone()
		}
		cst.PC = c.pc
		obj := c.leaf.(VObj)
		field := obj.Field
		out = append(out, lvOut{st: cst, obj: obj.Obj, field: field})
	}
	return out
}
