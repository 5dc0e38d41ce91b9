package symexec

import (
	"fmt"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/solver"
)

// flowOutcome is the result of executing a statement along one path.
type flowOutcome struct {
	st       State
	returned bool
	ret      Value
}

// evalOut is the result of evaluating an expression along one path.
type evalOut struct {
	st State
	v  Value
}

// condOut is a condition evaluated to a formula along one path.
type condOut struct {
	st State
	f  solver.Formula
}

// lvOut is a resolved lvalue (an object cell) along one path.
type lvOut struct {
	st    State
	obj   *Object
	field string
}

// Run executes the entry function from an arbitrary context: globals
// get their static initializers, parameters are lazily initialized.
func (x *Executor) Run(entry string) ([]Outcome, error) {
	f, ok := x.Prog.Func(entry)
	if !ok {
		return nil, fmt.Errorf("symexec: no function %s", entry)
	}
	st := State{PC: solver.PCTrue, Mem: NewMemory()}
	var err error
	st, err = x.InitGlobals(st)
	if err != nil {
		return nil, err
	}
	return x.RunFunc(f, st, nil)
}

// InitGlobals executes global initializers in st.
func (x *Executor) InitGlobals(st State) (State, error) {
	for _, g := range x.Prog.Globals {
		if g.Init == nil {
			continue
		}
		outs, err := x.evalExpr(st, g.Init, 0)
		if err != nil {
			return st, err
		}
		if len(outs) != 1 {
			return st, fmt.Errorf("symexec: global initializer of %s forked", g.Name)
		}
		st = outs[0].st
		st.Mem.Write(x.VarObj(g), "", outs[0].v)
	}
	return st, nil
}

// RunFunc executes f from state st with the given arguments (nil args
// leave parameters to lazy initialization).
func (x *Executor) RunFunc(f *microc.FuncDef, st State, args []Value) ([]Outcome, error) {
	if st.span == nil {
		// One trace root per analyzed function; callers create roots in
		// deterministic (program) order, so root numbering is stable.
		st.span = x.Engine.Tracer().Root(f.Name)
	}
	outs, err := x.protectedCall(st, f, args)
	if err != nil {
		return nil, err
	}
	result := make([]Outcome, len(outs))
	for i, o := range outs {
		result[i] = Outcome{St: o.st, Ret: o.v}
	}
	x.mu.Lock()
	x.Stats.Paths += len(result)
	x.mu.Unlock()
	x.Engine.AddPaths(len(result))
	return result, nil
}

// protectedCall is the RunFunc root with a panic boundary: a panic on
// the root path (stolen branches have their own boundary in the
// engine) becomes a worker-panic degradation with an empty outcome
// set, never a crash of the batch run.
func (x *Executor) protectedCall(st State, f *microc.FuncDef, args []Value) (outs []evalOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			x.degrade(st, fault.FromPanic("symexec.run", r), f.Pos)
			outs, err = nil, nil
		}
	}()
	return x.callFunction(st, f, args, 0, f.Pos)
}

// clearFrame removes stale cells of f's parameters and locals (objects
// are conflated across invocations; a fresh call must not observe the
// previous invocation's locals).
func (x *Executor) clearFrame(st State, f *microc.FuncDef) {
	drop := func(d *microc.VarDecl) {
		obj := x.VarObj(d)
		for field := range collectFields(x.Prog, d.Type) {
			st.Mem.Delete(obj, field)
		}
		st.Mem.Delete(obj, "")
	}
	for _, p := range f.Params {
		drop(p)
	}
	for _, l := range f.Locals {
		drop(l)
	}
}

// collectFields returns the field names of a struct type (empty for
// scalars).
func collectFields(prog *microc.Program, t microc.Type) map[string]bool {
	out := map[string]bool{}
	if st, ok := t.(microc.StructType); ok {
		if sd, found := prog.Struct(st.Name); found {
			for _, f := range sd.Fields {
				out[f.Name] = true
			}
		}
	}
	return out
}

// callFunction evaluates a call to f with already-evaluated arguments.
func (x *Executor) callFunction(st State, f *microc.FuncDef, args []Value, depth int, pos microc.Pos) ([]evalOut, error) {
	// Check nonnull-annotated parameters (the analysis property).
	for i, p := range f.Params {
		pt, isPtr := p.Type.(microc.PtrType)
		if !isPtr || pt.Qual != microc.QNonNull || i >= len(args) || args[i] == nil {
			continue
		}
		ng := nullFormula(args[i])
		if x.feasible(st, st.PC, ng) {
			x.report(st, NullArg, pos, "possibly-null argument for nonnull parameter %s of %s", p.Name, f.Name)
		}
		// Continue under the assumption the argument was not null.
		st = st.With(solver.NewNot(ng))
	}
	if f.Mix == microc.MixTyped && x.TypedCall != nil {
		outs, err := x.TypedCall(x, st, f, args, pos)
		if err != nil {
			return nil, err
		}
		evs := make([]evalOut, len(outs))
		for i, o := range outs {
			evs[i] = evalOut{st: o.St, v: o.Ret}
		}
		return evs, nil
	}
	if f.IsExtern() {
		return []evalOut{{st: st, v: x.havocValue(f.Ret, f.Name)}}, nil
	}
	if depth > x.MaxDepth {
		x.Engine.Faults().Record(fault.StepBudget)
		st.span.Degrade(fault.StepBudget.String(), "call depth bound at "+f.Name)
		x.report(st, Imprecision, pos, "call depth bound reached at %s", f.Name)
		return []evalOut{{st: st, v: x.havocValue(f.Ret, f.Name)}}, nil
	}
	if x.Summaries != nil {
		if outs, ok := x.trySummary(st, f, args, depth, pos); ok {
			return outs, nil
		}
	}
	x.clearFrame(st, f)
	for i, p := range f.Params {
		if i < len(args) && args[i] != nil {
			st.Mem.Write(x.VarObj(p), "", args[i])
		}
	}
	flows, err := x.execStmt(st, f.Body, depth+1)
	if err != nil {
		return nil, err
	}
	var out []evalOut
	for _, fl := range flows {
		v := fl.ret
		if !fl.returned || v == nil {
			if _, isVoid := f.Ret.(microc.VoidType); isVoid {
				v = VVoid{}
			} else {
				v = x.havocValue(f.Ret, f.Name+"_fallthrough")
			}
		}
		out = append(out, evalOut{st: fl.st, v: v})
	}
	return out, nil
}

// HavocValue builds an arbitrary value of a type (exported for MIXY's
// typed-call results).
func (x *Executor) HavocValue(t microc.Type, hint string) Value {
	return x.havocValue(t, hint)
}

// havocValue builds an arbitrary value of a type (extern calls,
// truncation).
func (x *Executor) havocValue(t microc.Type, hint string) Value {
	switch t := t.(type) {
	case microc.VoidType:
		return VVoid{}
	case microc.IntType:
		return x.FreshInt(hint)
	case microc.PtrType:
		anon := &Object{ID: x.freshID(), Name: hint + ".ext", Type: t.Elem}
		if t.Qual == microc.QNonNull {
			return VObj{Obj: anon}
		}
		return mkITE(x.FreshBool(hint), VObj{Obj: anon}, VNull{})
	case microc.FnPtrType:
		return VUnknown{Why: "extern function pointer " + hint}
	}
	return VUnknown{Why: "extern " + hint}
}

// execStmt executes a statement, forking as needed. Every statement
// is a cooperative interruption point: once a run-stopping fault is
// absorbed, execution unwinds with empty flow sets.
func (x *Executor) execStmt(st State, s microc.Stmt, depth int) ([]flowOutcome, error) {
	if x.interrupted(st, s.StmtPos()) {
		return nil, nil
	}
	switch s := s.(type) {
	case *microc.BlockStmt:
		cur := []flowOutcome{{st: st}}
		for _, inner := range s.Stmts {
			var next []flowOutcome
			for _, fo := range cur {
				if fo.returned {
					next = append(next, fo)
					continue
				}
				outs, err := x.execStmt(fo.st, inner, depth)
				if err != nil {
					return nil, err
				}
				next = append(next, outs...)
			}
			if len(next) > x.MaxPaths {
				x.Engine.Faults().Record(fault.PathBudget)
				st.span.Degrade(fault.PathBudget.String(), "path budget exceeded")
				x.report(st, Imprecision, s.StmtPos(), "path budget exceeded; truncating")
				next = next[:x.MaxPaths]
			}
			cur = next
		}
		return cur, nil

	case *microc.DeclStmt:
		obj := x.VarObj(s.Decl)
		if s.Decl.Init == nil {
			return []flowOutcome{{st: st}}, nil
		}
		outs, err := x.evalExpr(st, s.Decl.Init, depth)
		if err != nil {
			return nil, err
		}
		flows := make([]flowOutcome, len(outs))
		for i, o := range outs {
			o.st.Mem.Write(obj, "", o.v)
			flows[i] = flowOutcome{st: o.st}
		}
		return flows, nil

	case *microc.ExprStmt:
		outs, err := x.evalExpr(st, s.X, depth)
		if err != nil {
			return nil, err
		}
		flows := make([]flowOutcome, len(outs))
		for i, o := range outs {
			flows[i] = flowOutcome{st: o.st}
		}
		return flows, nil

	case *microc.IfStmt:
		conds, err := x.evalCond(st, s.Cond, depth)
		if err != nil {
			return nil, err
		}
		var out []flowOutcome
		for _, c := range conds {
			thenPC := c.st.PC.And(c.f)
			elsePC := c.st.PC.And(solver.NewNot(c.f))
			thenOK := x.feasible(c.st, thenPC)
			elseOK := x.feasible(c.st, elsePC)
			if thenOK && elseOK {
				x.mu.Lock()
				x.Stats.Forks++
				x.mu.Unlock()
				if x.MergeMode != engine.MergeOff {
					// Join-point merging runs both arms and folds them
					// into one continuation.
					flows, err := x.mergeIf(c.st, s, thenPC, elsePC, depth)
					if err != nil {
						return nil, err
					}
					out = append(out, flows...)
					continue
				}
			}
			if thenOK {
				tst := c.st
				if elseOK {
					// Two-sided fork: the then side runs on a clone of
					// the memory, and each side gets a child span.
					c.st.span.Fork(2)
					tst = c.st.Clone()
					tst.span = c.st.span.Child()
				}
				tst.PC = thenPC
				flows, err := x.execStmt(tst, s.Then, depth)
				if err != nil {
					return nil, err
				}
				out = append(out, flows...)
			}
			if elseOK {
				est := c.st
				est.PC = elsePC
				if thenOK {
					est.span = c.st.span.Child()
				}
				if s.Else != nil {
					flows, err := x.execStmt(est, s.Else, depth)
					if err != nil {
						return nil, err
					}
					out = append(out, flows...)
				} else {
					out = append(out, flowOutcome{st: est})
				}
			}
			if thenOK && elseOK {
				c.st.span.Join()
			}
		}
		return out, nil

	case *microc.WhileStmt:
		live := []State{st}
		var out []flowOutcome
		for iter := 0; iter <= x.MaxUnroll && len(live) > 0; iter++ {
			var next []State
			for _, cur := range live {
				conds, err := x.evalCond(cur, s.Cond, depth)
				if err != nil {
					return nil, err
				}
				for _, c := range conds {
					exitPC := c.st.PC.And(solver.NewNot(c.f))
					bodyPC := c.st.PC.And(c.f)
					exitOK := x.feasible(c.st, exitPC)
					bodyOK := iter < x.MaxUnroll && x.feasible(c.st, bodyPC)
					if exitOK {
						est := c.st
						if bodyOK {
							est = c.st.Clone()
						}
						est.PC = exitPC
						out = append(out, flowOutcome{st: est})
					}
					if !bodyOK {
						if iter >= x.MaxUnroll && x.feasible(c.st, bodyPC) {
							x.Engine.Faults().Record(fault.StepBudget)
							c.st.span.Degrade(fault.StepBudget.String(), "loop unrolling bound")
							x.report(c.st, LoopBound, s.StmtPos(), "loop unrolling bound (%d) reached", x.MaxUnroll)
						}
						continue
					}
					bst := c.st
					bst.PC = bodyPC
					flows, err := x.execStmt(bst, s.Body, depth)
					if err != nil {
						return nil, err
					}
					for _, fl := range flows {
						if fl.returned {
							out = append(out, fl)
						} else {
							next = append(next, fl.st)
						}
					}
				}
			}
			live = next
			if x.MergeMode == engine.MergeAggressive && len(live) > 1 {
				// Fold the whole live set carried into the next
				// iteration, so unrolling explores one merged state per
				// iteration instead of a frontier.
				if merged, ok := x.mergeStates(st.span, s.StmtPos().String(), st.PC, live, 0); ok {
					live = []State{merged}
				}
			}
			if len(out)+len(live) > x.MaxPaths {
				x.Engine.Faults().Record(fault.PathBudget)
				st.span.Degrade(fault.PathBudget.String(), "path budget exceeded in loop")
				x.report(st, Imprecision, s.StmtPos(), "path budget exceeded in loop; truncating")
				live = nil
			}
		}
		return out, nil

	case *microc.ReturnStmt:
		if s.X == nil {
			return []flowOutcome{{st: st, returned: true, ret: VVoid{}}}, nil
		}
		outs, err := x.evalExpr(st, s.X, depth)
		if err != nil {
			return nil, err
		}
		flows := make([]flowOutcome, len(outs))
		for i, o := range outs {
			flows[i] = flowOutcome{st: o.st, returned: true, ret: o.v}
		}
		return flows, nil
	}
	return nil, fmt.Errorf("symexec: unknown statement %T", s)
}
