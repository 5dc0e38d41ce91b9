package sym

import (
	"fmt"
	"math"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/obs"
	"mix/internal/types"
)

// IfMode selects how conditionals are executed, the "deferral versus
// execution" design choice of Section 3.1.
type IfMode int

const (
	// ForkIf forks execution at conditionals (SEIF-TRUE / SEIF-FALSE),
	// the style of DART, CUTE, EXE, and KLEE.
	ForkIf IfMode = iota
	// DeferIf builds conditional symbolic expressions (SEIF-DEFER),
	// trading forking for larger solver formulas.
	DeferIf
)

// PathError is a run-time type error discovered along one symbolic
// path. It is only a real error if its path condition is feasible; the
// caller (the TSYMBLOCK mix rule) checks feasibility with the solver
// and discards infeasible paths.
type PathError struct {
	Pos   lang.Pos
	Msg   string
	State State
}

func (e *PathError) Error() string {
	return fmt.Sprintf("%s: symbolic execution error: %s [under %s]", e.Pos, e.Msg, e.State.Guard)
}

// Result is the outcome of one symbolic path: either a value in a
// final state, or a path-conditioned error.
type Result struct {
	State State
	Val   Val
	Err   *PathError
}

// Stats counts executor work for the fork-vs-defer benchmarks.
type Stats struct {
	Paths  int // completed paths (results produced)
	Forks  int // conditional forks taken
	Merges int // SEIF-DEFER and join-point merges performed
}

// Executor is the symbolic execution engine. The zero value is not
// ready; construct with NewExecutor.
type Executor struct {
	Fresh *Fresh
	Mode  IfMode
	// ConcreteFold enables execution-style rules on concrete operands
	// (the SEPLUS-CONC partial-evaluation variant from Section 3.1).
	ConcreteFold bool
	// Concolic enables the nondeterministic SEVAR variant of
	// Section 3.1: a variable bound to a symbolic value "may instead
	// return an arbitrary value v and add Σ(x) = v to the path
	// condition, a style that resembles hybrid concolic testing".
	// Execution then follows a single mostly-concrete path, so the
	// exhaustive() check of TSYMBLOCK fails unless paired with the
	// unsound "good enough" mode — exactly the paper's framing of
	// bug-finding symbolic execution.
	Concolic bool
	// ConcolicInt is the concrete integer SEVAR picks (booleans pick
	// true).
	ConcolicInt int64
	// MergeMode enables veritesting-style state merging in ForkIf mode
	// (DESIGN.md section 12): when each arm of a fork completes with one
	// live path and the two values share a type, the pair folds back
	// into one guarded state in the SEIF-DEFER shape instead of
	// continuing as two paths. The zero value is off; any other mode
	// merges these diamonds. DeferIf mode ignores it (deferral already
	// merges at every conditional).
	MergeMode engine.MergeMode
	// MaxPaths bounds the paths a Run returns: past it, Run keeps the
	// first MaxPaths and degrades (0 = unbounded).
	MaxPaths int
	// MaxSteps bounds evaluation steps per Run; closures stored in
	// references can tie Landin's knot, so execution needs fuel.
	MaxSteps int
	steps    int64
	// Engine enforces the run's path budget and deadline, counts its
	// paths and faults, and carries its tracer.
	Engine *engine.Engine
	// TypBlock, when non-nil, analyzes {t e t} blocks; this is the
	// seam where the SETYPBLOCK mix rule plugs in. A nil TypBlock
	// rejects typed blocks, giving the standalone executor.
	TypBlock func(env *Env, st State, e lang.Expr) (Result, error)
	// MemCheck implements the ⊢ m ok premise of SEDEREF. When nil, the
	// syntactic MemOK is used; the mix layer may install a
	// solver-backed variant that decides address equality under the
	// current path condition.
	MemCheck func(st State) error

	// stopped flips when a classified fault truncates exploration; the
	// remaining work unwinds promptly (run appends nothing and returns
	// no error) so completed sibling paths keep their results.
	stopped bool
	// limit is the accumulator length past which enter skips a step:
	// its results would land beyond the first MaxPaths paths (see Run).
	// It is lifted while a join or SEIF-DEFER collects its arms.
	limit int
	// stash holds, as a stack, the operand results of every seq in
	// progress while their continuations run.
	stash []Result
	// imprecise counts degradation events absorbed during the current
	// Run; the mix layer treats any increase as "this block's result
	// set may be incomplete" and falls back to the typed
	// over-approximation instead of trusting partial path coverage.
	imprecise int64
	// degraded is the first absorbed fault of the Run.
	degraded error

	Stats Stats
}

// NewExecutor returns an executor on eng with default settings:
// forking conditionals, concrete folding on, and a fresh-name
// generator.
func NewExecutor(eng *engine.Engine) *Executor {
	return &Executor{Fresh: NewFresh(), ConcreteFold: true, MaxPaths: 1 << 14, MaxSteps: 1 << 20, Engine: eng}
}

// memCheck applies the configured ⊢ m ok oracle.
func (x *Executor) memCheck(st State) error {
	if x.MemCheck != nil {
		return x.MemCheck(st)
	}
	return MemOK(st.Mem)
}

// InitialState returns the entry state of the TSYMBLOCK rule:
// S = ⟨true; μ⟩ with μ a fresh arbitrary memory.
func (x *Executor) InitialState() State {
	return State{Guard: TrueVal, Mem: x.Fresh.Memory()}
}

// Run symbolically executes e under Σ = env starting from state st and
// returns the results of every explored path: then-results before
// else-results, left to right. Paths whose guard constant-folds to
// false are discarded (they are trivially infeasible). A non-nil error
// indicates the program is outside the language (unbound variable,
// unsupported block) — not a type error, which is reported per-path,
// and not a resource exhaustion: budget, deadline, and panic aborts
// degrade instead, truncating the result set and recording the fault
// (see Degraded/ImprecisionCount), so the caller can fall back to the
// typed over-approximation.
//
// Every step appends its results to one accumulator per Run, in path
// order (see seq). Outside the arms of a join or SEIF-DEFER, which fold
// results together, each result there yields at least one finished
// path; so once the accumulator holds more than MaxPaths results, a
// step whose results would land after them cannot change the first
// MaxPaths paths, and enter skips it. A run over the path budget thus
// returns exactly the first MaxPaths paths of the unbounded run (up to
// the choice of fresh names) and degrades naming max-paths=N.
func (x *Executor) Run(env *Env, st State, e lang.Expr) ([]Result, error) {
	if st.span == nil {
		// Each Run is one trace root; callers invoke Run in program
		// order, so root IDs are deterministic.
		st.span = x.Engine.Tracer().Root("sym.run")
	}
	x.steps = int64(x.MaxSteps)
	x.stopped = false
	x.degraded = nil
	budget := math.MaxInt
	if x.MaxPaths > 0 {
		budget = x.MaxPaths
	}
	// A symbolic block nested in a typed block runs its own Run on this
	// executor; the enclosing Run's limit and stash come back after it.
	limit, stash := x.limit, len(x.stash)
	x.limit = budget
	rs, err := x.protectedRun(env, st, e)
	x.limit, x.stash = limit, x.stash[:stash]
	if err != nil {
		return nil, err
	}
	if len(rs) > budget {
		x.degrade(st.span, fault.New(fault.PathBudget, "sym.run",
			fmt.Sprintf("max-paths=%d", x.MaxPaths), nil))
		rs = rs[:budget]
	}
	kept := rs[:0]
	for _, r := range rs {
		if b, ok := r.State.Guard.U.(BoolConst); ok && !b.Val {
			continue
		}
		kept = append(kept, r)
	}
	x.Stats.Paths += len(kept)
	x.Engine.AddPaths(len(kept))
	return kept, nil
}

// protectedRun is the Run root with a panic boundary: a panic anywhere
// on the root path (forked branches have their own boundary inside
// engine.Fork2) becomes a worker-panic degradation, not a crash.
func (x *Executor) protectedRun(env *Env, st State, e lang.Expr) (rs []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			x.degrade(st.span, fault.FromPanic("sym.run", r))
			rs, err = nil, nil
		}
	}()
	return x.run(nil, env, st, e)
}

// degrade absorbs a classified fault: record it, count the
// imprecision, trace the provenance on the path that hit it, and stop
// further exploration so the run drains promptly. Results completed
// before the stop remain valid (each is a genuine explored path); the
// imprecision count tells the caller the set may be incomplete.
func (x *Executor) degrade(sp *obs.Span, err error) {
	if x.degraded == nil {
		x.degraded = err
	}
	x.imprecise++
	sp.Degrade(fault.ClassOf(err).String(), "exploration truncated")
	x.Engine.Faults().RecordErr(err)
	x.stopped = true
}

// Degraded returns the first classified fault absorbed by the current
// Run, or nil when exploration was exhaustive.
func (x *Executor) Degraded() error { return x.degraded }

// ImprecisionCount reports the cumulative number of degradation events
// absorbed by this executor; callers snapshot it around a Run to
// detect truncation.
func (x *Executor) ImprecisionCount() int64 { return x.imprecise }

// enter charges one evaluation step whose results would go to the end
// of out, and reports whether to take it. It refuses after a fault
// stopped exploration and once out is past the path budget (see Run).
func (x *Executor) enter(out []Result, sp *obs.Span) bool {
	if x.stopped || len(out) > x.limit {
		return false
	}
	if x.steps--; x.steps&63 == 0 || x.steps < 0 {
		return x.poll(sp)
	}
	return true
}

// poll is enter's slow path, every 64th step and past the step budget.
// Step-budget exhaustion (possible divergence through stored closures)
// and an expired deadline degrade like the path budget: stop, record,
// keep what completed.
func (x *Executor) poll(sp *obs.Span) bool {
	if x.steps < 0 {
		x.degrade(sp, fault.New(fault.StepBudget, "sym.run",
			fmt.Sprintf("max-steps=%d", x.MaxSteps), nil))
		return false
	}
	if err := x.Engine.Interrupted("sym.run"); err != nil {
		x.degrade(sp, err)
		return false
	}
	return true
}

// appendVal appends a successful result.
func appendVal(out []Result, st State, v Val) []Result {
	return append(out, Result{State: st, Val: v})
}

// appendErr appends a path error result.
func appendErr(out []Result, st State, pos lang.Pos, format string, args ...any) []Result {
	return append(out, Result{State: st, Err: &PathError{Pos: pos, Msg: fmt.Sprintf(format, args...), State: st}})
}

// cont continues a path with the value of an operand, appending the
// results to out.
type cont func(out []Result, st State, v Val) ([]Result, error)

// seq runs the operand e and applies k to each of its results in turn,
// passing error results through; everything is appended to out. A
// literal or a variable (outside concolic mode) costs its step and
// goes straight to k. Any other operand runs into out: a single result
// is popped and continued in place, and several move to the stash while
// k runs on each. Either way each continuation appends where its
// results end up, so out stays in path order.
func (x *Executor) seq(out []Result, env *Env, st State, e lang.Expr, k cont) ([]Result, error) {
	if x.atom(e) {
		if !x.enter(out, st.span) {
			return out, nil
		}
		v, err := value(env, e)
		if err != nil {
			return nil, err
		}
		return k(out, st, v)
	}
	start := len(out)
	out, err := x.run(out, env, st, e)
	if err != nil {
		return nil, err
	}
	switch len(out) - start {
	case 0:
		return out, nil
	case 1:
		r := out[start]
		if r.Err != nil {
			return out, nil
		}
		return k(out[:start], r.State, r.Val)
	}
	base := len(x.stash)
	x.stash = append(x.stash, out[start:]...)
	end := len(x.stash)
	out = out[:start]
	for i := base; i < end; i++ {
		r := x.stash[i]
		if r.Err != nil {
			out = append(out, r)
			continue
		}
		if out, err = k(out, r.State, r.Val); err != nil {
			return nil, err
		}
	}
	x.stash = x.stash[:base]
	return out, nil
}

// atom reports whether seq hands e's value straight to its
// continuation: a literal, or a variable unless concolic SEVAR may
// extend the path condition.
func (x *Executor) atom(e lang.Expr) bool {
	switch e.(type) {
	case lang.IntLit, lang.BoolLit:
		return true
	case lang.Var:
		return !x.Concolic
	}
	return false
}

// value is the value of a literal or a variable.
func value(env *Env, e lang.Expr) (Val, error) {
	switch e := e.(type) {
	case lang.IntLit:
		// SEVAL with typeof(n) = int.
		return IntVal(e.Val), nil
	case lang.BoolLit:
		return BoolVal(e.Val), nil
	case lang.Var:
		// SEVAR: no reduction if the variable is unbound.
		if v, ok := env.Lookup(e.Name); ok {
			return v, nil
		}
		return Val{}, fmt.Errorf("sym: %s: unbound variable %s", e.Pos(), e.Name)
	}
	return Val{}, fmt.Errorf("sym: %T is not a literal or variable", e)
}

// run executes e and appends its results to out.
func (x *Executor) run(out []Result, env *Env, st State, e lang.Expr) ([]Result, error) {
	if !x.enter(out, st.span) {
		return out, nil
	}
	switch e := e.(type) {
	case lang.Var, lang.IntLit, lang.BoolLit:
		v, err := value(env, e)
		if err != nil {
			return nil, err
		}
		if x.Concolic {
			if _, isSym := v.U.(SymVar); isSym {
				var conc Val
				switch {
				case types.Equal(v.T, types.Int):
					conc = IntVal(x.ConcolicInt)
				case types.Equal(v.T, types.Bool):
					conc = TrueVal
				}
				if !conc.IsZero() {
					st2 := st
					st2.Guard = MkAnd(st.Guard, Val{EqOp{v, conc}, types.Bool})
					return appendVal(out, st2, conc), nil
				}
			}
		}
		return appendVal(out, st, v), nil

	case lang.Plus:
		// SEPLUS: both operands must be symbolic integers.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Int) {
				return appendErr(out, s1, e.X.Pos(), "left operand of + has type %s, want int", v1.T), nil
			}
			return x.seq(out, env, s1, e.Y, func(out []Result, s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Int) {
					return appendErr(out, s2, e.Y.Pos(), "right operand of + has type %s, want int", v2.T), nil
				}
				if x.ConcreteFold {
					c1, ok1 := v1.U.(IntConst)
					c2, ok2 := v2.U.(IntConst)
					if ok1 && ok2 {
						// SEPLUS-CONC: execute on concrete values.
						return appendVal(out, s2, IntVal(c1.Val+c2.Val)), nil
					}
				}
				return appendVal(out, s2, Val{AddOp{v1, v2}, types.Int}), nil
			})
		})

	case lang.Eq:
		// SEEQ: operands must share a (comparable) type.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			return x.seq(out, env, s1, e.Y, func(out []Result, s2 State, v2 Val) ([]Result, error) {
				if isFunTyped(v1) || isFunTyped(v2) {
					return appendErr(out, s2, e.Pos(), "cannot compare functions with ="), nil
				}
				if !types.Equal(v1.T, v2.T) {
					return appendErr(out, s2, e.Pos(), "operands of = have types %s and %s", v1.T, v2.T), nil
				}
				if x.ConcreteFold {
					if folded, ok := foldEq(v1, v2); ok {
						return appendVal(out, s2, folded), nil
					}
				}
				return appendVal(out, s2, Val{EqOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Lt:
		// SELT: both operands must be symbolic integers.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Int) {
				return appendErr(out, s1, e.X.Pos(), "left operand of < has type %s, want int", v1.T), nil
			}
			return x.seq(out, env, s1, e.Y, func(out []Result, s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Int) {
					return appendErr(out, s2, e.Y.Pos(), "right operand of < has type %s, want int", v2.T), nil
				}
				if x.ConcreteFold {
					c1, ok1 := v1.U.(IntConst)
					c2, ok2 := v2.U.(IntConst)
					if ok1 && ok2 {
						return appendVal(out, s2, BoolVal(c1.Val < c2.Val)), nil
					}
				}
				return appendVal(out, s2, Val{LtOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Not:
		// SENOT: the operand must be a guard.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Bool) {
				return appendErr(out, s1, e.X.Pos(), "operand of not has type %s, want bool", v1.T), nil
			}
			if x.ConcreteFold {
				return appendVal(out, s1, MkNot(v1)), nil
			}
			return appendVal(out, s1, Val{NotOp{v1}, types.Bool}), nil
		})

	case lang.And:
		// SEAND.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Bool) {
				return appendErr(out, s1, e.X.Pos(), "left operand of && has type %s, want bool", v1.T), nil
			}
			return x.seq(out, env, s1, e.Y, func(out []Result, s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Bool) {
					return appendErr(out, s2, e.Y.Pos(), "right operand of && has type %s, want bool", v2.T), nil
				}
				if x.ConcreteFold {
					return appendVal(out, s2, MkAnd(v1, v2)), nil
				}
				return appendVal(out, s2, Val{AndOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Let:
		// SELET.
		return x.seq(out, env, st, e.Bound, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			return x.run(out, env.Extend(e.Name, v1), s1, e.Body)
		})

	case lang.If:
		return x.runIf(out, env, st, e)

	case lang.Ref:
		// SEREF: allocate a fresh location.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			addr := x.Fresh.Var(types.Ref(v1.T), "loc")
			s2 := s1
			s2.Mem = Alloc{Base: s1.Mem, Addr: addr, V: v1}
			return appendVal(out, s2, addr), nil
		})

	case lang.Deref:
		// SEDEREF: requires ⊢ m ok so the annotation on the pointer
		// soundly gives the type of the contents.
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			r, ok := v1.T.(types.RefType)
			if !ok {
				return appendErr(out, s1, e.X.Pos(), "dereference of non-reference type %s", v1.T), nil
			}
			if err := x.memCheck(s1); err != nil {
				return appendErr(out, s1, e.Pos(), "memory not consistently typed at dereference: %v", err), nil
			}
			return appendVal(out, s1, Val{MemRead{M: s1.Mem, Ptr: v1}, r.Elem}), nil
		})

	case lang.Assign:
		// SEASSIGN: the write is logged; the value's type need not
		// match the pointer's annotation (symbolic execution tracks
		// executions precisely and can allow arbitrary writes).
		return x.seq(out, env, st, e.X, func(out []Result, s1 State, v1 Val) ([]Result, error) {
			if _, ok := v1.T.(types.RefType); !ok {
				return appendErr(out, s1, e.X.Pos(), "assignment to non-reference type %s", v1.T), nil
			}
			return x.seq(out, env, s1, e.Y, func(out []Result, s2 State, v2 Val) ([]Result, error) {
				s3 := s2
				s3.Mem = Update{Base: s2.Mem, Addr: v1, V: v2}
				return appendVal(out, s3, v2), nil
			})
		})

	case lang.Fun:
		// Closures are dynamically typed values; the annotation, if
		// any, is not needed by the executor.
		return appendVal(out, st, Val{CloV{Param: e.Param, Body: e.Body, Env: env}, types.UnknownType{}}), nil

	case lang.App:
		return x.seq(out, env, st, e.F, func(out []Result, s1 State, fv Val) ([]Result, error) {
			return x.seq(out, env, s1, e.X, func(out []Result, s2 State, av Val) ([]Result, error) {
				return x.apply(out, s2, fv, av, e.Pos())
			})
		})

	case lang.TypedBlock:
		if x.TypBlock == nil {
			return nil, fmt.Errorf("sym: %s: typed block not supported by standalone symbolic executor", e.Pos())
		}
		r, err := x.TypBlock(env, st, e.Body)
		if err != nil {
			if fault.Degradable(err) {
				// A degraded nested analysis truncates this path; the
				// surrounding exploration keeps its other paths.
				x.degrade(st.span, err)
				return out, nil
			}
			return nil, err
		}
		return append(out, r), nil

	case lang.SymBlock:
		// A symbolic block within symbolic execution passes through.
		return x.run(out, env, st, e.Body)
	}
	return nil, fmt.Errorf("sym: unknown expression %T", e)
}

// apply performs function application on a symbolic callee value:
// closures are inlined (this is where symbolic execution gets its
// context sensitivity), reads from memory are resolved syntactically
// against the write log, conditional values fork, and anything else —
// in particular a symbolic variable of function type, i.e. a function
// whose source is unavailable — is a path error, the situation the
// paper resolves by wrapping the call in a typed block.
func (x *Executor) apply(out []Result, st State, fv, av Val, pos lang.Pos) ([]Result, error) {
	switch u := fv.U.(type) {
	case CloV:
		return x.run(out, u.Env.Extend(u.Param, av), st, u.Body)
	case MemRead:
		if resolved, ok := resolveRead(u.M, u.Ptr); ok {
			return x.apply(out, st, resolved, av, pos)
		}
	case CondOp:
		thenSt := st
		thenSt.Guard = MkAnd(st.Guard, u.G)
		elseSt := st
		elseSt.Guard = MkAnd(st.Guard, MkNot(u.G))
		out, err := x.apply(out, thenSt, u.X, av, pos)
		if err != nil {
			return nil, err
		}
		return x.apply(out, elseSt, u.Y, av, pos)
	}
	return appendErr(out, st, pos,
		"application of unknown function value %s (wrap the call in a typed block)", fv), nil
}

// resolveRead resolves m[p] syntactically against the write log. It
// succeeds only when the matching entry is found after skipping
// entries whose addresses are *provably* distinct from p — which, with
// purely syntactic reasoning, means both are distinct allocation
// variables ("an allocation always creates a new location").
func resolveRead(m Mem, p Val) (Val, bool) {
	allocs := map[int]bool{}
	collectAllocIDs(m, allocs)
	distinct := func(a, b Val) bool {
		sa, oka := a.U.(SymVar)
		sb, okb := b.U.(SymVar)
		return oka && okb && sa.ID != sb.ID && allocs[sa.ID] && allocs[sb.ID]
	}
	for {
		switch mm := m.(type) {
		case Update:
			if ValEqual(mm.Addr, p) {
				return mm.V, true
			}
			if !distinct(mm.Addr, p) {
				return Val{}, false // cannot rule out aliasing
			}
			m = mm.Base
		case Alloc:
			if ValEqual(mm.Addr, p) {
				return mm.V, true
			}
			if !distinct(mm.Addr, p) {
				return Val{}, false
			}
			m = mm.Base
		default:
			return Val{}, false
		}
	}
}

func collectAllocIDs(m Mem, out map[int]bool) {
	switch m := m.(type) {
	case Alloc:
		if sv, ok := m.Addr.U.(SymVar); ok {
			out[sv.ID] = true
		}
		collectAllocIDs(m.Base, out)
	case Update:
		collectAllocIDs(m.Base, out)
	case CondMem:
		collectAllocIDs(m.M1, out)
		collectAllocIDs(m.M2, out)
	}
}

// isFunTyped reports whether a value is a function (closure or
// symbolic function variable).
func isFunTyped(v Val) bool {
	switch v.T.(type) {
	case types.FunType, types.UnknownType:
		return true
	}
	return false
}

// foldEq folds equality of two concrete values.
func foldEq(v1, v2 Val) (Val, bool) {
	if c1, ok := v1.U.(IntConst); ok {
		if c2, ok := v2.U.(IntConst); ok {
			return BoolVal(c1.Val == c2.Val), true
		}
	}
	if c1, ok := v1.U.(BoolConst); ok {
		if c2, ok := v2.U.(BoolConst); ok {
			return BoolVal(c1.Val == c2.Val), true
		}
	}
	return Val{}, false
}

// runIf handles conditionals in the configured mode.
func (x *Executor) runIf(out []Result, env *Env, st State, e lang.If) ([]Result, error) {
	return x.seq(out, env, st, e.Cond, func(out []Result, s1 State, g1 Val) ([]Result, error) {
		if !types.Equal(g1.T, types.Bool) {
			return appendErr(out, s1, e.Cond.Pos(), "condition of if has type %s, want bool", g1.T), nil
		}
		// A concrete condition executes only the taken branch,
		// regardless of mode (partial evaluation).
		if b, ok := g1.U.(BoolConst); ok {
			if b.Val {
				return x.run(out, env, s1, e.Then)
			}
			return x.run(out, env, s1, e.Else)
		}
		start := len(out)
		switch x.Mode {
		case ForkIf:
			// SEIF-TRUE and SEIF-FALSE: fork, extending the path
			// condition with the choice made. The then-branch runs
			// first, so then-results precede else-results.
			if err := x.Engine.Charge(); err != nil {
				if fault.Degradable(err) {
					x.degrade(s1.span, err)
					return out, nil
				}
				return nil, err
			}
			x.Stats.Forks++
			merge := x.MergeMode != engine.MergeOff
			out, mid, err := x.fork(out, env, s1, g1, e, merge)
			if err != nil {
				if fault.Degradable(err) {
					// A recovered branch panic (or other classified
					// fault) loses that branch; the sibling's results
					// survive, and the imprecision marks the hole.
					x.degrade(s1.span, err)
					return out, nil
				}
				return nil, err
			}
			s1.span.Join()
			if merge {
				if merged, ok := x.mergeResults(out, start, mid, s1, g1, e.Pos()); ok {
					return merged, nil
				}
			}
			return out, nil

		case DeferIf:
			// SEIF-DEFER: execute both branches and merge with
			// conditional symbolic expressions, giving the solver the
			// disjunction instead of forking. The two branch executions
			// keep the same panic boundaries as a fork.
			out, mid, err := x.fork(out, env, s1, g1, e, true)
			if err != nil {
				if !fault.Degradable(err) {
					return nil, err
				}
				x.degrade(s1.span, err)
			} else {
				s1.span.Join()
			}
			return x.deferResults(out, start, mid, s1, g1, e.Pos()), nil
		}
		return nil, fmt.Errorf("sym: unknown if mode %d", x.Mode)
	})
}

// fork runs both arms of a symbolic conditional on guard g1, then before
// else, each on its own child span so the trace names each path by its
// fork decisions. Their results go to out; the else-arm's start at mid.
// When collect is set the arms' results are folded afterwards (a join
// or SEIF-DEFER), possibly into fewer, so the path budget does not
// skip steps inside them.
func (x *Executor) fork(out []Result, env *Env, s1 State, g1 Val, e lang.If, collect bool) ([]Result, int, error) {
	thenSt := s1
	thenSt.Guard = MkAnd(s1.Guard, g1)
	elseSt := s1
	elseSt.Guard = MkAnd(s1.Guard, MkNot(g1))
	s1.span.Fork(2)
	thenSt.span = s1.span.Child()
	elseSt.span = s1.span.Child()
	limit := x.limit
	if collect {
		x.limit = math.MaxInt
	}
	mid := len(out)
	err := engine.Fork2(
		func() (err error) {
			out, err = x.run(out, env, thenSt, e.Then)
			mid = len(out)
			return err
		},
		func() (err error) {
			out, err = x.run(out, env, elseSt, e.Else)
			return err
		})
	x.limit = limit
	return out, mid, err
}

// deferResults replaces the arms' results, out[start:mid] and out[mid:],
// with SEIF-DEFER's: the error results of both arms, then one merged
// result for each pair of successful arm results.
func (x *Executor) deferResults(out []Result, start, mid int, s1 State, g1 Val, pos lang.Pos) []Result {
	end := len(out)
	for i := start; i < end; i++ {
		if out[i].Err != nil {
			out = append(out, out[i])
		}
	}
	for i := start; i < mid; i++ {
		rt := out[i]
		if rt.Err != nil {
			continue
		}
		for j := mid; j < end; j++ {
			re := out[j]
			if re.Err != nil {
				continue
			}
			// SEIF-DEFER is more conservative than forking: it requires
			// both branches to produce the same type. Two
			// dynamically-typed closures merge at the dynamic type.
			if !types.Equal(rt.Val.T, re.Val.T) && !(isFunTyped(rt.Val) && isFunTyped(re.Val)) {
				out = appendErr(out, s1, pos,
					"branches of deferred if have types %s and %s", rt.Val.T, re.Val.T)
				continue
			}
			x.Stats.Merges++
			merged := State{
				Guard: Val{CondOp{g1, rt.State.Guard, re.State.Guard}, types.Bool},
				Mem:   condMem(g1, rt.State.Mem, re.State.Mem),
			}
			out = append(out, Result{State: merged, Val: Val{CondOp{g1, rt.Val, re.Val}, rt.Val.T}})
		}
	}
	n := copy(out[start:], out[end:])
	return out[:start+n]
}

// condMem builds g ? m1 : m2, collapsing the trivial case.
func condMem(g Val, m1, m2 Mem) Mem {
	if memEqual(m1, m2) {
		return m1
	}
	return CondMem{G: g, M1: m1, M2: m2}
}
