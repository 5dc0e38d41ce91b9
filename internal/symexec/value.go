// Package symexec is MIXY's symbolic executor for MicroC, standing in
// for Otter (Reisner et al. 2010) in the paper's prototype. It
// executes functions path by path in the style of KLEE: path
// conditions are solver formulas, conditionals fork after an SMT
// feasibility check, memory is a map from abstract objects to cell
// values initialized lazily and incrementally (Section 4.2), loops are
// bounded, and a null pointer is the value 0 — dereferencing a
// possibly-null pointer on a feasible path produces a report.
//
// Like the paper's executor it does NOT support calling symbolic
// function pointers; such calls produce an UnsupportedFnPtr report,
// which is exactly the limitation that motivates Case 4's typed block.
package symexec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mix/internal/microc"
	"mix/internal/obs"
	"mix/internal/pointer"
	"mix/internal/solver"
)

// Value is a symbolic MicroC value.
type Value interface {
	isValue()
	String() string
}

// VInt is an integer value represented as a solver term.
type VInt struct{ T solver.Term }

// VNull is the null pointer (the value 0).
type VNull struct{}

// VObj is a pointer to a cell of an abstract object: the scalar cell
// when Field is "", or a named field cell.
type VObj struct {
	Obj   *Object
	Field string
}

// VITE is the conditional value g ? X : Y — the paper's
// "(α:bool) ? loc : 0" shape used to translate possibly-null pointers.
type VITE struct {
	G    solver.Formula
	X, Y Value
}

// VFunc is a concrete function reference.
type VFunc struct{ F *microc.FuncDef }

// VStruct is a struct rvalue: a pointer-free bundle of field values.
type VStruct struct {
	Name   string
	Fields map[string]Value
}

// VUnknown is an opaque value of a type the executor cannot model
// precisely (e.g. a symbolic function pointer from an arbitrary
// context). Using it where precision is required produces a report.
type VUnknown struct{ Why string }

// VVoid is the result of a void call.
type VVoid struct{}

func (VInt) isValue()     {}
func (VNull) isValue()    {}
func (VObj) isValue()     {}
func (VITE) isValue()     {}
func (VFunc) isValue()    {}
func (VStruct) isValue()  {}
func (VUnknown) isValue() {}
func (VVoid) isValue()    {}

func (v VInt) String() string { return v.T.String() }
func (VNull) String() string  { return "NULL" }
func (v VObj) String() string {
	if v.Field == "" {
		return "&" + v.Obj.Name
	}
	return "&" + v.Obj.Name + "." + v.Field
}
func (v VITE) String() string {
	return "(" + v.G.String() + " ? " + v.X.String() + " : " + v.Y.String() + ")"
}
func (v VFunc) String() string    { return "&" + v.F.Name }
func (v VStruct) String() string  { return "struct " + v.Name + "{...}" }
func (v VUnknown) String() string { return "<unknown:" + v.Why + ">" }
func (VVoid) String() string      { return "void" }

// Object is an abstract memory object. Objects have identity; their
// cell contents live in a Memory so that forked paths do not share
// mutations.
type Object struct {
	ID   int
	Name string
	// Type is the type of the object's scalar cell, or the struct
	// type for struct objects.
	Type microc.Type
	// Loc is the abstract location this object materializes, when it
	// corresponds to a program location (drives lazy initialization
	// and the symbolic-to-typed translation).
	Loc    pointer.Loc
	HasLoc bool
	// Site is the malloc site for heap objects (0 = not a heap
	// object); used to map heap cells back to qualifier variables.
	Site int
}

func (o *Object) String() string { return o.Name }

// cellKey addresses one cell of one object.
type cellKey struct {
	obj   *Object
	field string
}

// compare orders cells by (object ID, field). An executor numbers its
// objects uniquely, so the order is total and the same on every run.
func (k cellKey) compare(o cellKey) int {
	if c := cmp.Compare(k.obj.ID, o.obj.ID); c != 0 {
		return c
	}
	return strings.Compare(k.field, o.field)
}

// cell is one initialized cell of a Memory.
type cell struct {
	cellKey
	v Value
}

// Memory is the symbolic store: the initialized cells, sorted by
// (object ID, field). Writes update the *Memory in place, so callers
// that share the pointer observe them, while Clone is O(1): the fork
// and its original share the cell array, and each copies it on its
// first Write or Delete after the fork. No memory in the measured
// workloads holds more than 9 cells (DESIGN.md section 8), so a linear
// scan finds a cell and a copy costs less than any structure that
// would avoid it.
type Memory struct {
	cells []cell
	// shared marks cells' array as held by another Memory too.
	shared bool
	// stats counts the memory's clones and writes: it is the Stats of
	// the executor that built the memory.
	stats *Stats
}

// memClones / memSharedCells / memWrites instrument fork cost for the
// benchmarks: memSharedCells counts the cells a clone shared instead
// of copying. They live in the process-wide metrics registry
// (obs.Default) under symexec.mem.*, and being monotone they are read
// as before/after deltas, which count every executor's work in
// between; one run's own counts are on its executor's Stats.
var (
	memClones      = obs.Default.Counter("symexec.mem.clones")
	memSharedCells = obs.Default.Counter("symexec.mem.shared_cells")
	memWrites      = obs.Default.Counter("symexec.mem.writes")
)

// MemoryStats reads the process-lifetime (clones, cells shared across
// those clones, writes) totals. The counters are monotone: callers
// measuring one run subtract a before-snapshot.
func MemoryStats() (clones, sharedCells, writes int64) {
	return memClones.Value(), memSharedCells.Value(), memWrites.Value()
}

// NewMemory returns an empty memory whose clones and writes count in
// x.Stats.
func (x *Executor) NewMemory() *Memory {
	return &Memory{stats: &x.Stats}
}

// Clone forks the memory in O(1); both copies share all current cells.
func (m *Memory) Clone() *Memory {
	n := int64(len(m.cells))
	memClones.Add(1)
	memSharedCells.Add(n)
	m.stats.MemClones++
	m.stats.SharedCells += n
	m.shared = true
	return &Memory{cells: m.cells, shared: true, stats: m.stats}
}

// find returns the index of the first cell not ordered before k, and
// whether that cell is k.
func (m *Memory) find(k cellKey) (int, bool) {
	for i := range m.cells {
		if c := m.cells[i].compare(k); c >= 0 {
			return i, c == 0
		}
	}
	return len(m.cells), false
}

// own copies a shared cell array, with room for extra more cells.
func (m *Memory) own(extra int) {
	if m.shared {
		m.cells = append(make([]cell, 0, len(m.cells)+extra), m.cells...)
		m.shared = false
	}
}

// Read returns the cell value, if initialized.
func (m *Memory) Read(obj *Object, field string) (Value, bool) {
	if i, ok := m.find(cellKey{obj, field}); ok {
		return m.cells[i].v, true
	}
	return nil, false
}

// Write sets a cell (copy-on-write underneath; siblings forked earlier
// are unaffected).
func (m *Memory) Write(obj *Object, field string, v Value) {
	memWrites.Add(1)
	m.stats.MemWrites++
	k := cellKey{obj, field}
	i, ok := m.find(k)
	if ok {
		m.own(0)
		m.cells[i].v = v
		return
	}
	m.own(1)
	m.cells = slices.Insert(m.cells, i, cell{k, v})
}

// Delete removes a cell, if present.
func (m *Memory) Delete(obj *Object, field string) {
	if i, ok := m.find(cellKey{obj, field}); ok {
		m.own(0)
		m.cells = slices.Delete(m.cells, i, i+1)
	}
}

// Cells calls f on every initialized cell in (object ID, field) order.
// f must not write m.
func (m *Memory) Cells(f func(obj *Object, field string, v Value)) {
	for _, c := range m.cells {
		f(c.obj, c.field, c.v)
	}
}

// State is one symbolic execution path: a path condition and memory.
// The PC is an incremental cons list (nil = true): extending it at a
// fork shares the whole prefix with the sibling, and the engine's
// solver pipeline consumes it conjunct by conjunct.
type State struct {
	PC  *solver.PC
	Mem *Memory
	// span is this path's node in the trace tree (nil when tracing is
	// off). Forks hand each branch a child span; Clone shares the
	// parent's span until the fork site reassigns it.
	span *obs.Span
}

// Clone forks the state.
func (s State) Clone() State {
	c := s
	c.Mem = s.Mem.Clone()
	return c
}

// With returns the state with the path condition extended by f.
func (s State) With(f solver.Formula) State {
	c := s
	c.PC = s.PC.And(f)
	return c
}

// NullFormula returns the condition under which v is the null pointer
// (exported for MIXY's symbolic-to-typed translation: Section 4.1 asks
// whether g ∧ (s = 0) is satisfiable).
func NullFormula(v Value) solver.Formula { return nullFormula(v) }

// nullFormula returns the condition under which v is the null pointer.
// A VITE's arms are computed first, so a tree whose leaves are all
// objects, such as a pointer the points-to analysis never saw null,
// folds to false without building a negated guard; NewAnd and NewOr
// fold the same constants, so the formula is the one the plain
// recursion gives.
func nullFormula(v Value) solver.Formula {
	switch v := v.(type) {
	case VNull:
		return solver.True
	case VObj, VFunc:
		return solver.False
	case VITE:
		x, y := nullFormula(v.X), nullFormula(v.Y)
		if x == solver.False && y == solver.False {
			return solver.False
		}
		return solver.NewOr(solver.NewAnd(v.G, x), solver.NewAnd(solver.NewNot(v.G), y))
	case VInt:
		// An integer used as a pointer: null iff zero.
		return solver.Eq{X: v.T, Y: solver.IntConst{Val: 0}}
	case VUnknown:
		// Unknown values conservatively may be null.
		return solver.BoolVar{Name: "unknown_null"}
	}
	return solver.False
}

// eqFormula returns the condition under which two pointer-like values
// are equal.
func eqFormula(a, b Value) solver.Formula {
	switch a := a.(type) {
	case VITE:
		return solver.NewOr(
			solver.NewAnd(a.G, eqFormula(a.X, b)),
			solver.NewAnd(solver.NewNot(a.G), eqFormula(a.Y, b)),
		)
	}
	switch b := b.(type) {
	case VITE:
		return solver.NewOr(
			solver.NewAnd(b.G, eqFormula(a, b.X)),
			solver.NewAnd(solver.NewNot(b.G), eqFormula(a, b.Y)),
		)
	}
	switch a := a.(type) {
	case VNull:
		return nullFormula(b)
	case VObj:
		if bo, ok := b.(VObj); ok {
			if a.Obj == bo.Obj && a.Field == bo.Field {
				return solver.True
			}
		}
		return solver.False
	case VFunc:
		if bf, ok := b.(VFunc); ok && bf.F == a.F {
			return solver.True
		}
		return solver.False
	case VInt:
		if bi, ok := b.(VInt); ok {
			return solver.Eq{X: a.T, Y: bi.T}
		}
		if _, ok := b.(VNull); ok {
			return solver.Eq{X: a.T, Y: solver.IntConst{Val: 0}}
		}
		return solver.False
	}
	if _, ok := a.(VUnknown); ok {
		return solver.BoolVar{Name: "unknown_eq"}
	}
	if _, ok := b.(VUnknown); ok {
		return solver.BoolVar{Name: "unknown_eq"}
	}
	if _, ok := b.(VNull); ok {
		return nullFormula(a)
	}
	return solver.False
}

// valueEq reports structural equality of two values. State merging
// uses it to collapse cells the arms agree on back to a plain value
// instead of a degenerate ite.
func valueEq(a, b Value) bool {
	switch a := a.(type) {
	case VInt:
		b, ok := b.(VInt)
		return ok && solver.TermEq(a.T, b.T)
	case VNull:
		_, ok := b.(VNull)
		return ok
	case VVoid:
		_, ok := b.(VVoid)
		return ok
	case VObj:
		b, ok := b.(VObj)
		return ok && a.Obj == b.Obj && a.Field == b.Field
	case VFunc:
		b, ok := b.(VFunc)
		return ok && a.F == b.F
	case VUnknown:
		b, ok := b.(VUnknown)
		return ok && a.Why == b.Why
	case VITE:
		b, ok := b.(VITE)
		return ok && solver.FormulaEq(a.G, b.G) && valueEq(a.X, b.X) && valueEq(a.Y, b.Y)
	case VStruct:
		b, ok := b.(VStruct)
		if !ok || a.Name != b.Name || len(a.Fields) != len(b.Fields) {
			return false
		}
		for k, v := range a.Fields {
			bv, ok := b.Fields[k]
			if !ok || !valueEq(v, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// mkITE builds a conditional value with constant folding.
func mkITE(g solver.Formula, x, y Value) Value {
	if c, ok := g.(solver.BoolConst); ok {
		if c.Val {
			return x
		}
		return y
	}
	return VITE{G: g, X: x, Y: y}
}

// intOf coerces a value to an integer term, or reports failure.
func intOf(v Value) (solver.Term, bool) {
	switch v := v.(type) {
	case VInt:
		return v.T, true
	case VNull:
		return solver.IntConst{Val: 0}, true
	}
	return nil, false
}

var _ = fmt.Sprintf
