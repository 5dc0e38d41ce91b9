package symexec

import (
	"fmt"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/pointer"
	"mix/internal/solver"
)

// ReportKind classifies executor findings.
type ReportKind int

const (
	// NullDeref is a dereference of a possibly-null pointer.
	NullDeref ReportKind = iota
	// NullArg is a possibly-null argument to a nonnull parameter.
	NullArg
	// UnsupportedFnPtr is a call through a symbolic function pointer
	// (the paper's Case 4 limitation).
	UnsupportedFnPtr
	// LoopBound is a path truncated at the unrolling bound.
	LoopBound
	// Imprecision is a value the executor could not model.
	Imprecision
)

func (k ReportKind) String() string {
	switch k {
	case NullDeref:
		return "null-deref"
	case NullArg:
		return "null-arg"
	case UnsupportedFnPtr:
		return "fnptr"
	case LoopBound:
		return "loop-bound"
	}
	return "imprecision"
}

// Report is one symbolic-execution finding on one feasible path.
type Report struct {
	Kind ReportKind
	Pos  microc.Pos
	Msg  string
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %s: %s", r.Pos, r.Kind, r.Msg)
}

// Outcome is one completed path of a function execution.
type Outcome struct {
	St  State
	Ret Value
}

// Stats counts executor work.
type Stats struct {
	Paths int
	Forks int
	// Merges counts join-point state merges; MergedCells the cells
	// folded into guarded ite values across them; CollapsedCells the
	// cells the arms turned out to agree on (no ite needed).
	Merges         int
	MergedCells    int
	CollapsedCells int
	// MemClones counts the forks of this executor's memories,
	// SharedCells the cells those forks shared instead of copying, and
	// MemWrites the cell writes: the run's share of MemoryStats.
	MemClones   int64
	SharedCells int64
	MemWrites   int64
}

// Executor executes MicroC functions symbolically.
type Executor struct {
	Prog *microc.Program
	PA   *pointer.Analysis

	// MaxUnroll bounds loop iterations per path.
	MaxUnroll int
	// MaxDepth bounds inlined call depth.
	MaxDepth int
	// MaxPaths bounds live paths per Run.
	MaxPaths int

	// MergeMode enables veritesting-style state merging at conditional
	// join points (DESIGN.md section 12): when both arms reach the join
	// alive, their states fold into one with guarded ite cells instead
	// of continuing as separate paths. The zero value is off — the
	// classic fork-per-conditional discipline.
	MergeMode engine.MergeMode

	// InitCell, when non-nil, provides the initial value of an
	// uninitialized cell (MIXY installs the typed-to-symbolic
	// translation of Section 4.1 here). Returning nil falls back to
	// the default lazy initialization.
	InitCell func(x *Executor, st State, obj *Object, field string) Value
	// TypedCall, when non-nil, handles calls to MIX(typed) functions
	// (MIXY installs the symbolic-to-typed switch here).
	TypedCall func(x *Executor, st State, f *microc.FuncDef, args []Value, pos microc.Pos) ([]Outcome, error)

	// Summaries, when non-nil, answers eligible calls from compositional
	// function summaries instead of inlining the callee body (see
	// summary.go and internal/summary). Every fallback to inlining is
	// observable: a counter bump plus a "summary" trace event.
	Summaries Summarizer

	// Engine answers every feasibility query through its memoizing
	// solver pool and supplies the run's context, fault counters and
	// tracer.
	Engine *engine.Engine

	Reports []Report
	Stats   Stats

	// stopped flips on the first run-stopping fault (deadline,
	// cancellation, recovered panic, injected abort); statement
	// execution then unwinds promptly with empty flow sets, keeping
	// every already-completed path and its reports.
	stopped bool
	// degraded is the first run-stopping fault.
	degraded error

	nextID   int
	varObjs  map[*microc.VarDecl]*Object
	locObjs  map[string]*Object
	anonObjs map[cellKey]*Object
	reported map[string]bool
}

// degrade absorbs a run-stopping classified fault: record it once (in
// the run-wide counters and as an Imprecision report naming the fault
// class), then stop further exploration.
func (x *Executor) degrade(st State, err error, pos microc.Pos) {
	if x.stopped {
		return
	}
	x.stopped = true
	x.degraded = err
	x.Engine.Faults().RecordErr(err)
	st.span.Degrade(fault.ClassOf(err).String(), "exploration stopped")
	x.report(st, Imprecision, pos, "exploration degraded (%s): %v", fault.ClassOf(err), err)
}

// Degraded returns the first run-stopping fault, or nil.
func (x *Executor) Degraded() error { return x.degraded }

// interrupted polls the stop flag and the run context at a statement
// boundary; true means the caller should unwind with an empty flow
// set (completed sibling paths keep their results).
func (x *Executor) interrupted(st State, pos microc.Pos) bool {
	if x.stopped {
		return true
	}
	if err := x.Engine.Interrupted("symexec.exec"); err != nil {
		x.degrade(st, err, pos)
		return true
	}
	return false
}

// The exploration bounds New gives an executor. A summary's content
// depends on them, so internal/summary folds them into its cache key.
const (
	DefaultMaxUnroll = 6
	DefaultMaxDepth  = 24
	DefaultMaxPaths  = 2048
)

// New returns an executor over prog with pointer analysis pa, asking
// its queries through eng.
func New(prog *microc.Program, pa *pointer.Analysis, eng *engine.Engine) *Executor {
	return &Executor{
		Prog: prog, PA: pa, Engine: eng,
		MaxUnroll: DefaultMaxUnroll, MaxDepth: DefaultMaxDepth, MaxPaths: DefaultMaxPaths,
		varObjs:  map[*microc.VarDecl]*Object{},
		locObjs:  map[string]*Object{},
		anonObjs: map[cellKey]*Object{},
		reported: map[string]bool{},
	}
}

// report records a finding, unless an identical one was already
// recorded.
func (x *Executor) report(st State, kind ReportKind, pos microc.Pos, format string, args ...any) {
	x.addReport(Report{Kind: kind, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// addReport appends r unless an identical report was already recorded.
func (x *Executor) addReport(r Report) {
	key := r.String()
	if x.reported[key] {
		return
	}
	x.reported[key] = true
	x.Reports = append(x.Reports, r)
}

// ReportsOf filters reports by kind.
func (x *Executor) ReportsOf(kind ReportKind) []Report {
	var out []Report
	for _, r := range x.Reports {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

func (x *Executor) freshID() int {
	x.nextID++
	return x.nextID
}

// FreshInt returns a fresh symbolic integer.
func (x *Executor) FreshInt(hint string) VInt {
	return VInt{T: solver.IntVar{Name: fmt.Sprintf("cx%d_%s", x.freshID(), hint)}}
}

// FreshBool returns a fresh boolean choice variable.
func (x *Executor) FreshBool(hint string) solver.Formula {
	return solver.BoolVar{Name: fmt.Sprintf("cb%d_%s", x.freshID(), hint)}
}

// feasible decides satisfiability of a path condition plus extra
// guards through the engine's sliced, memoizing solver pipeline,
// erring toward feasible on solver resource errors (conservative:
// unknown keeps the path and its reports). The querying path's span
// (nil when tracing is off) receives the verdict as a solve event.
func (x *Executor) feasible(st State, pc *solver.PC, extras ...solver.Formula) bool {
	return x.Engine.FeasiblePCSpan(st.span, pc, extras...)
}

// VarObj returns the (unique, conflated across invocations) object of
// a declared variable.
func (x *Executor) VarObj(d *microc.VarDecl) *Object {
	if o, ok := x.varObjs[d]; ok {
		return o
	}
	name := d.Name
	if d.Owner != "" {
		name = d.Owner + "::" + d.Name
	}
	x.nextID++
	o := &Object{ID: x.nextID, Name: name, Type: d.Type}
	if x.PA != nil {
		for _, l := range x.PA.LValueLocs(&microc.VarRef{Name: d.Name, Ref: d}) {
			o.Loc, o.HasLoc = l, true
			break
		}
	}
	x.varObjs[d] = o
	return o
}

// LocObj materializes an abstract pointer-analysis location as an
// object (MIXY's lazy memory model, Section 4.2).
func (x *Executor) LocObj(l pointer.Loc) (*Object, bool) {
	switch l.Kind {
	case pointer.VarLoc:
		return x.VarObj(l.Var), true
	case pointer.MallocLoc:
		key := l.String()
		if o, ok := x.locObjs[key]; ok {
			return o, true
		}
		x.nextID++
		o := &Object{ID: x.nextID, Name: key, Type: microc.IntType{}, Loc: l, HasLoc: true}
		x.locObjs[key] = o
		return o, true
	case pointer.FieldLoc:
		key := l.String()
		var ty microc.Type = microc.IntType{}
		if sd, ok := x.Prog.Struct(l.Struct); ok {
			if fd, ok := sd.Field(l.Field); ok {
				ty = fd.Type
			}
		}
		if o, ok := x.locObjs[key]; ok {
			return o, true
		}
		x.nextID++
		o := &Object{ID: x.nextID, Name: key, Type: ty, Loc: l, HasLoc: true}
		x.locObjs[key] = o
		return o, true
	}
	return nil, false
}

// CellType computes the declared type of a cell (exported for MIXY's
// typed-to-symbolic translation hook).
func (x *Executor) CellType(obj *Object, field string) microc.Type {
	return x.cellType(obj, field)
}

// InitPointerCell builds a lazily-initialized pointer value for a cell
// using the given (possibly qualifier-overridden) pointer type. MIXY
// calls this from its InitCell hook after substituting the inferred
// qualifier for the declared one.
func (x *Executor) InitPointerCell(obj *Object, field string, ty microc.PtrType) Value {
	return x.initPointer(obj, field, ty)
}

// cellType computes the declared type of a cell.
func (x *Executor) cellType(obj *Object, field string) microc.Type {
	if field == "" {
		return obj.Type
	}
	st, ok := obj.Type.(microc.StructType)
	if !ok {
		if pt, isPtr := obj.Type.(microc.PtrType); isPtr {
			st, ok = pt.Elem.(microc.StructType)
		}
	}
	if ok {
		if sd, found := x.Prog.Struct(st.Name); found {
			if fd, found := sd.Field(field); found {
				return fd.Type
			}
		}
	}
	return microc.IntType{}
}

// ReadCell reads a cell, lazily initializing it on first access.
func (x *Executor) ReadCell(st State, obj *Object, field string) Value {
	if v, ok := st.Mem.Read(obj, field); ok {
		return v
	}
	var v Value
	if x.InitCell != nil {
		v = x.InitCell(x, st, obj, field)
	}
	if v == nil {
		v = x.defaultInit(st, obj, field)
	}
	st.Mem.Write(obj, field, v)
	return v
}

// defaultInit builds the arbitrary-context initial value of a cell:
// fresh integers for ints, possibly-null pointers whose targets come
// from the pointer analysis ("(α:bool) ? loc : 0"), and opaque values
// for function pointers (the executor cannot call those).
func (x *Executor) defaultInit(st State, obj *Object, field string) Value {
	ty := x.cellType(obj, field)
	switch ty := ty.(type) {
	case microc.IntType, microc.VoidType:
		return x.FreshInt(obj.Name + field)
	case microc.PtrType:
		return x.initPointer(obj, field, ty)
	case microc.FnPtrType:
		return VUnknown{Why: "symbolic function pointer " + obj.Name}
	case microc.StructType:
		return VUnknown{Why: "whole-struct value of " + obj.Name}
	default:
		_ = ty
		return VUnknown{Why: "cell " + obj.Name}
	}
}

// initPointer builds a maybe-null pointer over the abstract targets of
// the cell.
func (x *Executor) initPointer(obj *Object, field string, ty microc.PtrType) Value {
	var targets []pointer.Loc
	if x.PA != nil && obj.HasLoc {
		if field == "" {
			targets = x.PA.PointsToLoc(obj.Loc)
		} else if st, ok := structNameOf(obj.Type); ok {
			targets = x.PA.PointsToField(st, field)
		}
	}
	var v Value = VNull{}
	if ty.Qual == microc.QNonNull {
		v = nil
	}
	for _, t := range targets {
		if t.Kind == pointer.FuncLoc {
			return VUnknown{Why: "function-pointer targets in " + obj.Name}
		}
		to, ok := x.LocObj(t)
		if !ok {
			continue
		}
		tv := Value(VObj{Obj: to})
		if v == nil {
			v = tv
		} else {
			v = mkITE(x.FreshBool("pt"), tv, v)
		}
	}
	if v == nil || isOnlyNull(v) && len(targets) == 0 {
		// No known targets: a fresh anonymous object, one per cell, so
		// every path that reads the cell agrees on it.
		anon, ok := x.anonObjs[cellKey{obj, field}]
		if !ok {
			x.nextID++
			anon = &Object{ID: x.nextID, Name: obj.Name + "." + field + ".tgt", Type: ty.Elem}
			x.anonObjs[cellKey{obj, field}] = anon
		}
		if ty.Qual == microc.QNonNull {
			return VObj{Obj: anon}
		}
		return mkITE(x.FreshBool("nl"), VObj{Obj: anon}, VNull{})
	}
	return v
}

func isOnlyNull(v Value) bool {
	_, ok := v.(VNull)
	return ok
}

func structNameOf(t microc.Type) (string, bool) {
	switch t := t.(type) {
	case microc.StructType:
		return t.Name, true
	case microc.PtrType:
		return structNameOf(t.Elem)
	}
	return "", false
}
