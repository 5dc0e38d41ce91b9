// Package sym implements the paper's formal symbolic executor
// (Figures 2 and 3): big-step execution over typed symbolic
// expressions u:τ, with McCarthy-style symbolic memories that log
// writes and allocations, a path condition per execution, forking (or
// optionally deferring) at conditionals, and the ⊢ m ok memory
// consistency judgment. Like the type checker, it is standalone: the
// SETYPBLOCK mix rule plugs in through the TypBlock hook.
package sym

import (
	"fmt"

	"mix/internal/lang"
	"mix/internal/obs"
	"mix/internal/types"
)

// Bare is a bare symbolic expression u.
type Bare interface {
	isBare()
	String() string
}

// SymVar is a symbolic variable α. Each variable has a unique ID from
// a Fresh generator; Name is a human-readable hint.
type SymVar struct {
	ID   int
	Name string
}

// IntConst is a known integer value.
type IntConst struct{ Val int64 }

// BoolConst is a known boolean value.
type BoolConst struct{ Val bool }

// AddOp is u:int + u:int.
type AddOp struct{ X, Y Val }

// EqOp is s = s (operands share a type).
type EqOp struct{ X, Y Val }

// LtOp is u:int < u:int.
type LtOp struct{ X, Y Val }

// CloV is a function closure: symbolic execution of fun x -> e is its
// value together with the captured environment. Closures are
// dynamically typed (their Val carries types.UnknownType), so they can
// be applied at multiple types — the context-sensitivity the paper
// gets from symbolic blocks.
type CloV struct {
	Param string
	Body  lang.Expr
	Env   *Env
}

// NotOp is ¬g.
type NotOp struct{ X Val }

// AndOp is g ∧ g.
type AndOp struct{ X, Y Val }

// CondOp is the conditional symbolic expression g ? X : Y introduced
// by the SEIF-DEFER rule.
type CondOp struct{ G, X, Y Val }

// MemRead is the memory select m[u:τ ref].
type MemRead struct {
	M   Mem
	Ptr Val
}

func (SymVar) isBare()    {}
func (IntConst) isBare()  {}
func (BoolConst) isBare() {}
func (AddOp) isBare()     {}
func (EqOp) isBare()      {}
func (LtOp) isBare()      {}
func (CloV) isBare()      {}
func (NotOp) isBare()     {}
func (AndOp) isBare()     {}
func (CondOp) isBare()    {}
func (MemRead) isBare()   {}

func (u SymVar) String() string {
	if u.Name != "" {
		return fmt.Sprintf("α%d<%s>", u.ID, u.Name)
	}
	return fmt.Sprintf("α%d", u.ID)
}
func (u IntConst) String() string { return fmt.Sprintf("%d", u.Val) }
func (u BoolConst) String() string {
	if u.Val {
		return "true"
	}
	return "false"
}
func (u AddOp) String() string { return "(" + u.X.String() + " + " + u.Y.String() + ")" }
func (u EqOp) String() string  { return "(" + u.X.String() + " = " + u.Y.String() + ")" }
func (u LtOp) String() string  { return "(" + u.X.String() + " < " + u.Y.String() + ")" }
func (u CloV) String() string  { return "<fun " + u.Param + ">" }
func (u NotOp) String() string { return "(¬" + u.X.String() + ")" }
func (u AndOp) String() string { return "(" + u.X.String() + " ∧ " + u.Y.String() + ")" }
func (u CondOp) String() string {
	return "(" + u.G.String() + " ? " + u.X.String() + " : " + u.Y.String() + ")"
}
func (u MemRead) String() string { return u.M.String() + "[" + u.Ptr.String() + "]" }

// Val is a typed symbolic expression s ::= u:τ.
type Val struct {
	U Bare
	T types.Type
}

func (v Val) String() string { return v.U.String() + ":" + v.T.String() }

// IsZero reports whether v is the zero Val (no expression).
func (v Val) IsZero() bool { return v.U == nil }

// Mem is a symbolic memory m.
type Mem interface {
	isMem()
	String() string
}

// MemVar is μ: an arbitrary but well-typed memory.
type MemVar struct{ ID int }

// Update is m,(s → s'): memory m with location Addr overwritten.
type Update struct {
	Base Mem
	Addr Val
	V    Val
}

// Alloc is m,(s a→ s'): memory m extended with a fresh allocation.
type Alloc struct {
	Base Mem
	Addr Val
	V    Val
}

// CondMem is the conditional memory g ? M1 : M2 needed when the
// SEIF-DEFER rule merges the two branch memories ("we also have to
// extend the ·?·: relation to operate over memory as well").
type CondMem struct {
	G      Val
	M1, M2 Mem
}

func (MemVar) isMem()  {}
func (Update) isMem()  {}
func (Alloc) isMem()   {}
func (CondMem) isMem() {}

func (m CondMem) String() string {
	return "(" + m.G.String() + " ? " + m.M1.String() + " : " + m.M2.String() + ")"
}

func (m MemVar) String() string { return fmt.Sprintf("μ%d", m.ID) }
func (m Update) String() string {
	return m.Base.String() + ",(" + m.Addr.String() + " → " + m.V.String() + ")"
}
func (m Alloc) String() string {
	return m.Base.String() + ",(" + m.Addr.String() + " →a " + m.V.String() + ")"
}

// State is the symbolic execution state S = ⟨g; m⟩: a path condition
// and a symbolic memory.
type State struct {
	Guard Val // bool-typed
	Mem   Mem
	// span is this path's node in the trace tree (nil when tracing is
	// off); fork sites hand each branch a child span.
	span *obs.Span
}

func (s State) String() string {
	return "⟨" + s.Guard.String() + "; " + s.Mem.String() + "⟩"
}

// Env is a symbolic environment Σ mapping variables to typed symbolic
// expressions. Like types.Env it is persistent: Extend returns a new
// environment that shares its parent's bindings, one frame per
// binding. Lookup walks the frames innermost first, so a shadowing
// binding wins; the frame also gives closures their identity for ≡.
type Env struct {
	name   string
	val    Val
	parent *Env
}

// EmptyEnv is the empty symbolic environment.
func EmptyEnv() *Env { return nil }

// Extend binds name to v, shadowing previous bindings.
func (e *Env) Extend(name string, v Val) *Env {
	return &Env{name: name, val: v, parent: e}
}

// Lookup finds the value bound to name.
func (e *Env) Lookup(name string) (Val, bool) {
	for ; e != nil; e = e.parent {
		if e.name == name {
			return e.val, true
		}
	}
	return Val{}, false
}

// Names returns the domain, innermost first, without shadowed
// duplicates.
func (e *Env) Names() []string {
	seen := map[string]bool{}
	var out []string
	for s := e; s != nil; s = s.parent {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s.name)
		}
	}
	return out
}

// Fresh generates fresh symbolic variable and memory IDs; a single
// generator is shared across an entire mixed analysis so that
// freshness conditions (α ∉ Σ, S) hold globally.
type Fresh struct {
	n int
}

// NewFresh returns a fresh-name generator.
func NewFresh() *Fresh { return &Fresh{} }

// Var returns a fresh symbolic variable of type t.
func (f *Fresh) Var(t types.Type, hint string) Val {
	f.n++
	return Val{SymVar{ID: f.n, Name: hint}, t}
}

// Memory returns a fresh arbitrary memory μ.
func (f *Fresh) Memory() Mem {
	f.n++
	return MemVar{ID: f.n}
}

// Count reports how many fresh names have been drawn (used in tests).
func (f *Fresh) Count() int { return f.n }

// TrueVal and FalseVal are the boolean constants as typed values.
var (
	TrueVal  = Val{BoolConst{true}, types.Bool}
	FalseVal = Val{BoolConst{false}, types.Bool}
)

// IntVal builds a typed integer constant.
func IntVal(v int64) Val { return Val{IntConst{v}, types.Int} }

// BoolVal builds a typed boolean constant.
func BoolVal(v bool) Val { return Val{BoolConst{v}, types.Bool} }

// MkAnd conjoins two guards with constant folding.
func MkAnd(x, y Val) Val {
	if b, ok := x.U.(BoolConst); ok {
		if b.Val {
			return y
		}
		return FalseVal
	}
	if b, ok := y.U.(BoolConst); ok {
		if b.Val {
			return x
		}
		return FalseVal
	}
	return Val{AndOp{x, y}, types.Bool}
}

// MkNot negates a guard with constant folding.
func MkNot(x Val) Val {
	switch u := x.U.(type) {
	case BoolConst:
		return BoolVal(!u.Val)
	case NotOp:
		return u.X
	}
	return Val{NotOp{x}, types.Bool}
}

// ValEqual reports syntactic equivalence (≡) of two typed symbolic
// expressions, used by the OVERWRITE-OK rule of the ⊢ m ok judgment.
// Symbolic variables compare by their globally-unique IDs (their type
// annotations may be UnknownType, which Equal treats as incomparable).
func ValEqual(a, b Val) bool {
	if sa, ok := a.U.(SymVar); ok {
		sb, ok := b.U.(SymVar)
		return ok && sa.ID == sb.ID
	}
	if !types.Equal(a.T, b.T) {
		if _, ua := a.T.(types.UnknownType); ua {
			if _, ub := b.T.(types.UnknownType); ub {
				return bareEqual(a.U, b.U)
			}
		}
		return false
	}
	return bareEqual(a.U, b.U)
}

func bareEqual(a, b Bare) bool {
	switch a := a.(type) {
	case SymVar:
		bb, ok := b.(SymVar)
		return ok && a.ID == bb.ID
	case IntConst:
		bb, ok := b.(IntConst)
		return ok && a.Val == bb.Val
	case BoolConst:
		bb, ok := b.(BoolConst)
		return ok && a.Val == bb.Val
	case AddOp:
		bb, ok := b.(AddOp)
		return ok && ValEqual(a.X, bb.X) && ValEqual(a.Y, bb.Y)
	case EqOp:
		bb, ok := b.(EqOp)
		return ok && ValEqual(a.X, bb.X) && ValEqual(a.Y, bb.Y)
	case LtOp:
		bb, ok := b.(LtOp)
		return ok && ValEqual(a.X, bb.X) && ValEqual(a.Y, bb.Y)
	case CloV:
		bb, ok := b.(CloV)
		return ok && a.Param == bb.Param && a.Body == bb.Body && a.Env == bb.Env
	case NotOp:
		bb, ok := b.(NotOp)
		return ok && ValEqual(a.X, bb.X)
	case AndOp:
		bb, ok := b.(AndOp)
		return ok && ValEqual(a.X, bb.X) && ValEqual(a.Y, bb.Y)
	case CondOp:
		bb, ok := b.(CondOp)
		return ok && ValEqual(a.G, bb.G) && ValEqual(a.X, bb.X) && ValEqual(a.Y, bb.Y)
	case MemRead:
		bb, ok := b.(MemRead)
		return ok && memEqual(a.M, bb.M) && ValEqual(a.Ptr, bb.Ptr)
	}
	return false
}

func memEqual(a, b Mem) bool {
	switch a := a.(type) {
	case MemVar:
		bb, ok := b.(MemVar)
		return ok && a.ID == bb.ID
	case Update:
		bb, ok := b.(Update)
		return ok && memEqual(a.Base, bb.Base) && ValEqual(a.Addr, bb.Addr) && ValEqual(a.V, bb.V)
	case Alloc:
		bb, ok := b.(Alloc)
		return ok && memEqual(a.Base, bb.Base) && ValEqual(a.Addr, bb.Addr) && ValEqual(a.V, bb.V)
	case CondMem:
		bb, ok := b.(CondMem)
		return ok && ValEqual(a.G, bb.G) && memEqual(a.M1, bb.M1) && memEqual(a.M2, bb.M2)
	}
	return false
}
