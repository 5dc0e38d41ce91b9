// Package summary computes compositional function summaries: each
// eligible function is symbolically executed once against placeholder
// parameters, its completed paths become guarded arms (path condition
// over the placeholders, return term, both closed under PR 5 merging),
// and call sites instantiate the arms by substitution instead of
// re-inlining the body (Godefroid's "compositional dynamic test
// generation" shape, restricted to the int fragment our solver theory
// covers exactly).
//
// Admissibility is deliberately conservative: a function is summarized
// only when every behavior it can exhibit is captured by (guard, return
// term) pairs over its parameters — straight-line int code, branches,
// bounded loops, and calls to other summarizable functions. Anything
// touching the heap, globals, pointers, MIX boundaries, or recursion
// falls back to inlining, and every fallback is observable (a counter
// and a "summary" trace event), never silent.
//
// Summaries persist across runs through Store: a content-hash-keyed
// on-disk cache (see store.go) so a warm process — or a cold process
// pointed at a warm -cache-dir — re-analyzes only functions whose code
// (or whose callees' code) changed.
package summary

import (
	"fmt"
	"sync/atomic"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/solver"
	"mix/internal/symexec"
)

// DefaultCap bounds the number of arms a summary may have; functions
// whose merged exploration still produces more paths than this are
// inlined instead (a huge ite-chain at every call site would trade
// path explosion for term explosion).
const DefaultCap = 16

// fnInfo is the static admissibility record of one function.
type fnInfo struct {
	ok      bool
	reason  string            // why not summarizable, when !ok
	height  int               // static inline call-chain height (leaf = 1)
	callees []*microc.FuncDef // direct summarizable callees, first-call order
}

// analyzer memoizes admissibility over a program's call graph.
type analyzer struct {
	info map[*microc.FuncDef]*fnInfo
}

func analyze(prog *microc.Program) *analyzer {
	a := &analyzer{info: map[*microc.FuncDef]*fnInfo{}}
	for _, f := range prog.Funcs {
		a.check(f, map[*microc.FuncDef]bool{})
	}
	return a
}

func (a *analyzer) check(f *microc.FuncDef, visiting map[*microc.FuncDef]bool) *fnInfo {
	if in, ok := a.info[f]; ok {
		return in
	}
	if visiting[f] {
		// A cycle back to a function whose check is in progress up the
		// stack. Return a transient rejection without memoizing: the
		// in-progress check records the real (memoized) verdict.
		return &fnInfo{reason: "recursive"}
	}
	visiting[f] = true
	in := a.checkFn(f, visiting)
	delete(visiting, f)
	a.info[f] = in
	return in
}

// checkFn walks one function body against the summarizable fragment:
// int-typed params, locals, and return; statements limited to blocks,
// declarations, expressions, if, bounded while, and return; expressions
// limited to int literals, local/param reads and assignments, +,-,*,
// comparisons, boolean connectives, and calls to other summarizable
// functions. Everything else (pointers, heap, globals, MIX annotations,
// function pointers, recursion) is rejected with a reason that becomes
// the fallback diagnostic.
func (a *analyzer) checkFn(f *microc.FuncDef, visiting map[*microc.FuncDef]bool) *fnInfo {
	reject := func(format string, args ...any) *fnInfo {
		return &fnInfo{reason: fmt.Sprintf(format, args...)}
	}
	if f.Mix != microc.MixNone {
		return reject("mix-annotated")
	}
	if f.IsExtern() {
		return reject("extern")
	}
	switch f.Ret.(type) {
	case microc.IntType, microc.VoidType:
	default:
		return reject("return type %s", f.Ret)
	}
	for _, p := range f.Params {
		if _, ok := p.Type.(microc.IntType); !ok {
			return reject("non-int parameter %s", p.Name)
		}
	}
	for _, l := range f.Locals {
		if _, ok := l.Type.(microc.IntType); !ok {
			return reject("non-int local %s", l.Name)
		}
	}

	in := &fnInfo{ok: true, height: 1}
	seen := map[*microc.FuncDef]bool{}
	var walkStmt func(s microc.Stmt) string
	var walkExpr func(e microc.Expr) string

	walkExpr = func(e microc.Expr) string {
		switch e := e.(type) {
		case *microc.IntLit:
			return ""
		case *microc.VarRef:
			d, ok := e.Ref.(*microc.VarDecl)
			if !ok {
				return fmt.Sprintf("reference to function %s", e.Name)
			}
			if d.Kind != microc.ParamVar && d.Kind != microc.LocalVar {
				return fmt.Sprintf("reference to non-local %s", e.Name)
			}
			return ""
		case *microc.Unary:
			if e.Op != microc.OpNot && e.Op != microc.OpNeg {
				return fmt.Sprintf("pointer operator in %s", e)
			}
			return walkExpr(e.X)
		case *microc.Binary:
			if msg := walkExpr(e.X); msg != "" {
				return msg
			}
			return walkExpr(e.Y)
		case *microc.Assign:
			if _, ok := e.LHS.(*microc.VarRef); !ok {
				return "assignment through a non-variable"
			}
			if msg := walkExpr(e.LHS); msg != "" {
				return msg
			}
			return walkExpr(e.RHS)
		case *microc.Call:
			vr, ok := e.Fun.(*microc.VarRef)
			if !ok {
				return "indirect call"
			}
			g, ok := vr.Ref.(*microc.FuncDef)
			if !ok {
				return fmt.Sprintf("call through pointer %s", vr.Name)
			}
			for _, arg := range e.Args {
				if msg := walkExpr(arg); msg != "" {
					return msg
				}
			}
			cin := a.check(g, visiting)
			if !cin.ok {
				return fmt.Sprintf("calls %s: %s", g.Name, cin.reason)
			}
			if !seen[g] {
				seen[g] = true
				in.callees = append(in.callees, g)
				if cin.height+1 > in.height {
					in.height = cin.height + 1
				}
			}
			return ""
		default:
			// NullLit, Field, Malloc, Cast, anything new.
			return fmt.Sprintf("expression %T", e)
		}
	}

	walkStmt = func(s microc.Stmt) string {
		switch s := s.(type) {
		case nil:
			return ""
		case *microc.BlockStmt:
			for _, sub := range s.Stmts {
				if msg := walkStmt(sub); msg != "" {
					return msg
				}
			}
			return ""
		case *microc.DeclStmt:
			if s.Decl.Init != nil {
				return walkExpr(s.Decl.Init)
			}
			return ""
		case *microc.ExprStmt:
			return walkExpr(s.X)
		case *microc.IfStmt:
			if msg := walkExpr(s.Cond); msg != "" {
				return msg
			}
			if msg := walkStmt(s.Then); msg != "" {
				return msg
			}
			return walkStmt(s.Else)
		case *microc.WhileStmt:
			if msg := walkExpr(s.Cond); msg != "" {
				return msg
			}
			return walkStmt(s.Body)
		case *microc.ReturnStmt:
			if s.X != nil {
				return walkExpr(s.X)
			}
			return ""
		default:
			return fmt.Sprintf("statement %T", s)
		}
	}

	if msg := walkStmt(f.Body); msg != "" {
		return reject("%s", msg)
	}
	return in
}

// record is the computed (and persisted) result for one function: a
// usable summary, or a fallback reason. Fallback reasons are cached
// too — rediscovering "too many arms" costs a full symbolic run.
type record struct {
	Fn       string
	Height   int
	Fallback string
	Arms     []symexec.SummaryArm
}

func (r *record) entry() entry {
	if r.Fallback != "" {
		return entry{reason: r.Fallback}
	}
	return entry{sum: &symexec.FuncSummary{Fn: r.Fn, Height: r.Height, Arms: r.Arms}}
}

// entry pairs a summary with its fallback reason; exactly one is set.
type entry struct {
	sum    *symexec.FuncSummary
	reason string
}

// ProgramSummaries holds the summaries (and fallback verdicts) for one
// resolved program and implements symexec.Summarizer. Precompute
// populates it single-threaded; during analysis only the atomic
// instantiation/fallback counters mutate, so it is safe to share
// across parallel branches.
type ProgramSummaries struct {
	byFn map[*microc.FuncDef]entry

	// Computed, MemHits, and DiskHits break down where this run's
	// summaries came from (fresh symbolic runs, the store's in-memory
	// tier, the store's disk tier).
	Computed int
	MemHits  int
	DiskHits int

	// Corrupt counts disk entries that failed the integrity or
	// version check during this precompute and were recomputed.
	Corrupt int

	instantiated atomic.Int64
	fallbacks    atomic.Int64
}

// Summary implements symexec.Summarizer.
func (ps *ProgramSummaries) Summary(f *microc.FuncDef) (*symexec.FuncSummary, string) {
	e, ok := ps.byFn[f]
	if !ok {
		return nil, "not analyzed"
	}
	if e.sum == nil {
		return nil, e.reason
	}
	return e.sum, ""
}

// NoteInstantiated implements symexec.Summarizer.
func (ps *ProgramSummaries) NoteInstantiated(f *microc.FuncDef, arms int) {
	ps.instantiated.Add(1)
}

// NoteFallback implements symexec.Summarizer.
func (ps *ProgramSummaries) NoteFallback(f *microc.FuncDef, reason string) {
	ps.fallbacks.Add(1)
}

// Instantiated reports how many call sites were answered from a summary.
func (ps *ProgramSummaries) Instantiated() int64 { return ps.instantiated.Load() }

// Fallbacks reports how many eligible-looking call sites fell back to
// inlining (depth bounds, non-int arguments, cached fallback verdicts).
func (ps *ProgramSummaries) Fallbacks() int64 { return ps.fallbacks.Load() }

// precomputeView is the Summarizer handed to the scratch executors that
// compute summaries: it shares the under-construction table (so callees
// summarized earlier in topological order are reused compositionally)
// but mutes the run counters — precompute work must not pollute the
// analysis-time instantiation figures.
type precomputeView struct{ ps *ProgramSummaries }

func (v precomputeView) Summary(f *microc.FuncDef) (*symexec.FuncSummary, string) {
	return v.ps.Summary(f)
}
func (v precomputeView) NoteInstantiated(*microc.FuncDef, int) {}
func (v precomputeView) NoteFallback(*microc.FuncDef, string)  {}

// summarizeFunc runs one function on a scratch executor on eng against
// placeholder parameters and folds the completed paths into arms.
// Any imprecision during the scratch run — a loop bound, a budget,
// a degradation, too many arms — becomes a fallback record: the call
// sites must inline so the imprecision is reported in caller context,
// exactly as it would be without summaries.
func summarizeFunc(prog *microc.Program, eng *engine.Engine, view symexec.Summarizer, f *microc.FuncDef, armCap, height int) *record {
	x := symexec.New(prog, nil, eng)
	x.MergeMode = engine.MergeAggressive
	x.Summaries = view
	args := make([]symexec.Value, len(f.Params))
	for i := range f.Params {
		args[i] = symexec.VInt{T: solver.IntVar{Name: symexec.SummaryParam(f.Name, i)}}
	}
	outs, err := x.RunFunc(f, symexec.State{PC: solver.PCTrue, Mem: symexec.NewMemory()}, args)

	rec := &record{Fn: f.Name, Height: height}
	switch {
	case err != nil:
		rec.Fallback = "summarization failed: " + err.Error()
	case x.Degraded() != nil:
		rec.Fallback = "summarization degraded: " + fault.ClassOf(x.Degraded()).String()
	case len(x.Reports) > 0:
		rec.Fallback = fmt.Sprintf("%d finding(s) during summarization (first: %s)", len(x.Reports), x.Reports[0].Kind)
	case len(outs) == 0:
		rec.Fallback = "no completed paths"
	case len(outs) > armCap:
		rec.Fallback = fmt.Sprintf("%d arms exceed cap %d", len(outs), armCap)
	default:
		rec.Arms, rec.Fallback = armsOf(f, outs)
	}
	return rec
}

func armsOf(f *microc.FuncDef, outs []symexec.Outcome) ([]symexec.SummaryArm, string) {
	_, isVoid := f.Ret.(microc.VoidType)
	arms := make([]symexec.SummaryArm, 0, len(outs))
	for _, out := range outs {
		arm := symexec.SummaryArm{Guard: solver.Conj(out.St.PC.Conjuncts()...)}
		if !isVoid {
			vi, ok := out.Ret.(symexec.VInt)
			if !ok {
				return nil, fmt.Sprintf("non-integer return value %T", out.Ret)
			}
			arm.Ret = vi.T
		}
		arms = append(arms, arm)
	}
	return arms, ""
}
