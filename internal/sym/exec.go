package sym

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// MaxPaths bounds the number of symbolic paths per Run.
	MaxPaths int
	// MaxSteps bounds evaluation steps per Run; closures stored in
	// references can tie Landin's knot, so execution needs fuel.
	MaxSteps int
	steps    atomic.Int64
	// Engine, when non-nil, runs the two branches of each conditional
	// fork as parallel scheduler tasks (joined in branch order, so
	// results keep the sequential depth-first order) and enforces the
	// engine's path and depth budgets. A nil Engine gives the original
	// sequential executor.
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
	// remaining work unwinds promptly (run returns empty result sets,
	// not errors) so completed sibling paths keep their results.
	stopped atomic.Bool
	// imprecise counts degradation events absorbed during the current
	// Run; the mix layer treats any increase as "this block's result
	// set may be incomplete" and falls back to the typed
	// over-approximation instead of trusting partial path coverage.
	imprecise atomic.Int64

	// degradedMu guards degraded, the first absorbed fault of the Run.
	degradedMu sync.Mutex
	degraded   error

	// statsMu guards Stats when branches execute in parallel.
	statsMu sync.Mutex
	Stats   Stats
}

// NewExecutor returns an executor with default settings: forking
// conditionals, concrete folding on, and a fresh-name generator.
func NewExecutor() *Executor {
	return &Executor{Fresh: NewFresh(), ConcreteFold: true, MaxPaths: 1 << 14, MaxSteps: 1 << 20}
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
// returns the results of every explored path. Paths whose guard
// constant-folds to false are discarded (they are trivially
// infeasible). A non-nil error indicates the program is outside the
// language (unbound variable, unsupported block) — not a type error,
// which is reported per-path, and not a resource exhaustion: budget,
// deadline, and panic aborts degrade instead, truncating the result
// set and recording the fault (see Degraded/ImprecisionCount), so the
// caller can fall back to the typed over-approximation.
func (x *Executor) Run(env *Env, st State, e lang.Expr) ([]Result, error) {
	if st.span == nil {
		// Each Run is one trace root; callers invoke Run in program
		// order, so root IDs are deterministic.
		st.span = x.Engine.Tracer().Root("sym.run")
	}
	x.steps.Store(int64(x.MaxSteps))
	x.stopped.Store(false)
	x.degradedMu.Lock()
	x.degraded = nil
	x.degradedMu.Unlock()
	rs, err := x.protectedRun(env, st, e)
	if err != nil {
		return nil, err
	}
	kept := rs[:0]
	for _, r := range rs {
		if b, ok := r.State.Guard.U.(BoolConst); ok && !b.Val {
			continue
		}
		kept = append(kept, r)
	}
	x.statsMu.Lock()
	x.Stats.Paths += len(kept)
	x.statsMu.Unlock()
	x.Engine.AddPaths(len(kept))
	return kept, nil
}

// protectedRun is the Run root with a panic boundary: a panic anywhere
// on the root path (stolen branches have their own boundary inside the
// engine) becomes a worker-panic degradation, not a crash.
func (x *Executor) protectedRun(env *Env, st State, e lang.Expr) (rs []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			x.degrade(st.span, fault.FromPanic("sym.run", r))
			rs, err = nil, nil
		}
	}()
	return x.run(env, st, e)
}

// degrade absorbs a classified fault: record it, count the
// imprecision, trace the provenance on the path that hit it, and stop
// further exploration so the run drains promptly. Results completed
// before the stop remain valid (each is a genuine explored path); the
// imprecision count tells the caller the set may be incomplete.
func (x *Executor) degrade(sp *obs.Span, err error) {
	x.degradedMu.Lock()
	if x.degraded == nil {
		x.degraded = err
	}
	x.degradedMu.Unlock()
	x.imprecise.Add(1)
	sp.Degrade(fault.ClassOf(err).String(), "exploration truncated")
	x.Engine.Faults().RecordErr(err)
	x.stopped.Store(true)
}

// Degraded returns the first classified fault absorbed by the current
// Run, or nil when exploration was exhaustive.
func (x *Executor) Degraded() error {
	x.degradedMu.Lock()
	defer x.degradedMu.Unlock()
	return x.degraded
}

// ImprecisionCount reports the cumulative number of degradation events
// absorbed by this executor; callers snapshot it around a Run to
// detect truncation.
func (x *Executor) ImprecisionCount() int64 { return x.imprecise.Load() }

// errResult builds a single-element error result list.
func errResult(st State, pos lang.Pos, format string, args ...any) []Result {
	return []Result{{State: st, Err: &PathError{Pos: pos, Msg: fmt.Sprintf(format, args...), State: st}}}
}

// seq runs e and applies k to every successful result, propagating
// error results unchanged. The first continuation's list becomes the
// accumulator, so a step with one result returns k's list as is
// instead of copying it.
func (x *Executor) seq(env *Env, st State, e lang.Expr, k func(State, Val) ([]Result, error)) ([]Result, error) {
	rs, err := x.run(env, st, e)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, r := range rs {
		if r.Err != nil {
			out = append(out, r)
			continue
		}
		ks, err := k(r.State, r.Val)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = ks
		} else {
			out = append(out, ks...)
		}
		if x.MaxPaths > 0 && len(out) > x.MaxPaths {
			// Path-budget exhaustion degrades: truncate the result set
			// and record the imprecision (matching symexec), instead of
			// throwing away every path already explored.
			x.degrade(r.State.span, fault.New(fault.PathBudget, "sym.seq",
				fmt.Sprintf("max-paths=%d", x.MaxPaths), nil))
			return out[:x.MaxPaths], nil
		}
	}
	return out, nil
}

func one(st State, v Val) []Result { return []Result{{State: st, Val: v}} }

func (x *Executor) run(env *Env, st State, e lang.Expr) ([]Result, error) {
	if x.stopped.Load() {
		return nil, nil
	}
	if n := x.steps.Add(-1); n < 0 {
		// Step-budget exhaustion (possible divergence through stored
		// closures) degrades like the path budget: stop, record, keep
		// what completed.
		x.degrade(st.span, fault.New(fault.StepBudget, "sym.run",
			fmt.Sprintf("max-steps=%d", x.MaxSteps), nil))
		return nil, nil
	} else if n&63 == 0 {
		if err := x.Engine.Interrupted("sym.run"); err != nil {
			x.degrade(st.span, err)
			return nil, nil
		}
	}
	switch e := e.(type) {
	case lang.Var:
		// SEVAR: no reduction if the variable is unbound.
		v, ok := env.Lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("sym: %s: unbound variable %s", e.Pos(), e.Name)
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
					return one(st2, conc), nil
				}
			}
		}
		return one(st, v), nil

	case lang.IntLit:
		// SEVAL with typeof(n) = int.
		return one(st, IntVal(e.Val)), nil

	case lang.BoolLit:
		return one(st, BoolVal(e.Val)), nil

	case lang.Plus:
		// SEPLUS: both operands must be symbolic integers.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Int) {
				return errResult(s1, e.X.Pos(), "left operand of + has type %s, want int", v1.T), nil
			}
			return x.seq(env, s1, e.Y, func(s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Int) {
					return errResult(s2, e.Y.Pos(), "right operand of + has type %s, want int", v2.T), nil
				}
				if x.ConcreteFold {
					c1, ok1 := v1.U.(IntConst)
					c2, ok2 := v2.U.(IntConst)
					if ok1 && ok2 {
						// SEPLUS-CONC: execute on concrete values.
						return one(s2, IntVal(c1.Val+c2.Val)), nil
					}
				}
				return one(s2, Val{AddOp{v1, v2}, types.Int}), nil
			})
		})

	case lang.Eq:
		// SEEQ: operands must share a (comparable) type.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			return x.seq(env, s1, e.Y, func(s2 State, v2 Val) ([]Result, error) {
				if isFunTyped(v1) || isFunTyped(v2) {
					return errResult(s2, e.Pos(), "cannot compare functions with ="), nil
				}
				if !types.Equal(v1.T, v2.T) {
					return errResult(s2, e.Pos(), "operands of = have types %s and %s", v1.T, v2.T), nil
				}
				if x.ConcreteFold {
					if folded, ok := foldEq(v1, v2); ok {
						return one(s2, folded), nil
					}
				}
				return one(s2, Val{EqOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Lt:
		// SELT: both operands must be symbolic integers.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Int) {
				return errResult(s1, e.X.Pos(), "left operand of < has type %s, want int", v1.T), nil
			}
			return x.seq(env, s1, e.Y, func(s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Int) {
					return errResult(s2, e.Y.Pos(), "right operand of < has type %s, want int", v2.T), nil
				}
				if x.ConcreteFold {
					c1, ok1 := v1.U.(IntConst)
					c2, ok2 := v2.U.(IntConst)
					if ok1 && ok2 {
						return one(s2, BoolVal(c1.Val < c2.Val)), nil
					}
				}
				return one(s2, Val{LtOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Not:
		// SENOT: the operand must be a guard.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Bool) {
				return errResult(s1, e.X.Pos(), "operand of not has type %s, want bool", v1.T), nil
			}
			if x.ConcreteFold {
				return one(s1, MkNot(v1)), nil
			}
			return one(s1, Val{NotOp{v1}, types.Bool}), nil
		})

	case lang.And:
		// SEAND.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			if !types.Equal(v1.T, types.Bool) {
				return errResult(s1, e.X.Pos(), "left operand of && has type %s, want bool", v1.T), nil
			}
			return x.seq(env, s1, e.Y, func(s2 State, v2 Val) ([]Result, error) {
				if !types.Equal(v2.T, types.Bool) {
					return errResult(s2, e.Y.Pos(), "right operand of && has type %s, want bool", v2.T), nil
				}
				if x.ConcreteFold {
					return one(s2, MkAnd(v1, v2)), nil
				}
				return one(s2, Val{AndOp{v1, v2}, types.Bool}), nil
			})
		})

	case lang.Let:
		// SELET.
		return x.seq(env, st, e.Bound, func(s1 State, v1 Val) ([]Result, error) {
			return x.run(env.Extend(e.Name, v1), s1, e.Body)
		})

	case lang.If:
		return x.runIf(env, st, e)

	case lang.Ref:
		// SEREF: allocate a fresh location.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			addr := x.Fresh.Var(types.Ref(v1.T), "loc")
			s2 := s1
			s2.Mem = Alloc{Base: s1.Mem, Addr: addr, V: v1}
			return one(s2, addr), nil
		})

	case lang.Deref:
		// SEDEREF: requires ⊢ m ok so the annotation on the pointer
		// soundly gives the type of the contents.
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			r, ok := v1.T.(types.RefType)
			if !ok {
				return errResult(s1, e.X.Pos(), "dereference of non-reference type %s", v1.T), nil
			}
			if err := x.memCheck(s1); err != nil {
				return errResult(s1, e.Pos(), "memory not consistently typed at dereference: %v", err), nil
			}
			return one(s1, Val{MemRead{M: s1.Mem, Ptr: v1}, r.Elem}), nil
		})

	case lang.Assign:
		// SEASSIGN: the write is logged; the value's type need not
		// match the pointer's annotation (symbolic execution tracks
		// executions precisely and can allow arbitrary writes).
		return x.seq(env, st, e.X, func(s1 State, v1 Val) ([]Result, error) {
			if _, ok := v1.T.(types.RefType); !ok {
				return errResult(s1, e.X.Pos(), "assignment to non-reference type %s", v1.T), nil
			}
			return x.seq(env, s1, e.Y, func(s2 State, v2 Val) ([]Result, error) {
				s3 := s2
				s3.Mem = Update{Base: s2.Mem, Addr: v1, V: v2}
				return one(s3, v2), nil
			})
		})

	case lang.Fun:
		// Closures are dynamically typed values; the annotation, if
		// any, is not needed by the executor.
		return one(st, Val{CloV{Param: e.Param, Body: e.Body, Env: env}, types.UnknownType{}}), nil

	case lang.App:
		return x.seq(env, st, e.F, func(s1 State, fv Val) ([]Result, error) {
			return x.seq(env, s1, e.X, func(s2 State, av Val) ([]Result, error) {
				return x.apply(s2, fv, av, e.Pos())
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
				return nil, nil
			}
			return nil, err
		}
		return []Result{r}, nil

	case lang.SymBlock:
		// A symbolic block within symbolic execution passes through.
		return x.run(env, st, e.Body)
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
func (x *Executor) apply(st State, fv, av Val, pos lang.Pos) ([]Result, error) {
	switch u := fv.U.(type) {
	case CloV:
		return x.run(u.Env.Extend(u.Param, av), st, u.Body)
	case MemRead:
		if resolved, ok := resolveRead(u.M, u.Ptr); ok {
			return x.apply(st, resolved, av, pos)
		}
	case CondOp:
		thenSt := st
		thenSt.Guard = MkAnd(st.Guard, u.G)
		elseSt := st
		elseSt.Guard = MkAnd(st.Guard, MkNot(u.G))
		thenRs, err := x.apply(thenSt, u.X, av, pos)
		if err != nil {
			return nil, err
		}
		elseRs, err := x.apply(elseSt, u.Y, av, pos)
		if err != nil {
			return nil, err
		}
		return append(thenRs, elseRs...), nil
	}
	return errResult(st, pos,
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
func (x *Executor) runIf(env *Env, st State, e lang.If) ([]Result, error) {
	return x.seq(env, st, e.Cond, func(s1 State, g1 Val) ([]Result, error) {
		if !types.Equal(g1.T, types.Bool) {
			return errResult(s1, e.Cond.Pos(), "condition of if has type %s, want bool", g1.T), nil
		}
		// A concrete condition executes only the taken branch,
		// regardless of mode (partial evaluation).
		if b, ok := g1.U.(BoolConst); ok {
			if b.Val {
				return x.run(env, s1, e.Then)
			}
			return x.run(env, s1, e.Else)
		}
		switch x.Mode {
		case ForkIf:
			// SEIF-TRUE and SEIF-FALSE: fork, extending the path
			// condition with the choice made. With an engine the two
			// branches run as parallel tasks; the ordered join keeps
			// then-results before else-results, reproducing the
			// sequential result order exactly.
			if err := x.Engine.Charge(); err != nil {
				if fault.Degradable(err) {
					x.degrade(s1.span, err)
					return nil, nil
				}
				return nil, err
			}
			x.statsMu.Lock()
			x.Stats.Forks++
			x.statsMu.Unlock()
			thenSt := s1
			thenSt.Guard = MkAnd(s1.Guard, g1)
			elseSt := s1
			elseSt.Guard = MkAnd(s1.Guard, MkNot(g1))
			// Each branch owns a fresh child span: the two tasks may
			// run on different workers and must never share a span.
			s1.span.Fork(2)
			thenSt.span = s1.span.Child()
			elseSt.span = s1.span.Child()
			thenRs, elseRs, err := engine.Fork2(x.Engine,
				func() ([]Result, error) { return x.run(env, thenSt, e.Then) },
				func() ([]Result, error) { return x.run(env, elseSt, e.Else) })
			if err != nil {
				if fault.Degradable(err) {
					// A recovered branch panic (or other classified
					// fault) loses that branch; the sibling's results
					// survive, and the imprecision marks the hole.
					x.degrade(s1.span, err)
					return append(thenRs, elseRs...), nil
				}
				return nil, err
			}
			s1.span.Join()
			if x.MergeMode != engine.MergeOff {
				if merged, ok := x.mergeResults(s1, g1, e.Pos(), thenRs, elseRs); ok {
					return merged, nil
				}
			}
			return append(thenRs, elseRs...), nil

		case DeferIf:
			// SEIF-DEFER: execute both branches and merge with
			// conditional symbolic expressions, giving the solver the
			// disjunction instead of forking. The two branch executions
			// are still independent, so they parallelize the same way.
			thenSt := s1
			thenSt.Guard = MkAnd(s1.Guard, g1)
			elseSt := s1
			elseSt.Guard = MkAnd(s1.Guard, MkNot(g1))
			s1.span.Fork(2)
			thenSt.span = s1.span.Child()
			elseSt.span = s1.span.Child()
			thenRs, elseRs, err := engine.Fork2(x.Engine,
				func() ([]Result, error) { return x.run(env, thenSt, e.Then) },
				func() ([]Result, error) { return x.run(env, elseSt, e.Else) })
			if err != nil {
				if fault.Degradable(err) {
					x.degrade(s1.span, err)
				} else {
					return nil, err
				}
			} else {
				s1.span.Join()
			}
			var out []Result
			var thenOK, elseOK []Result
			for _, r := range thenRs {
				if r.Err != nil {
					out = append(out, r)
				} else {
					thenOK = append(thenOK, r)
				}
			}
			for _, r := range elseRs {
				if r.Err != nil {
					out = append(out, r)
				} else {
					elseOK = append(elseOK, r)
				}
			}
			for _, rt := range thenOK {
				for _, re := range elseOK {
					// SEIF-DEFER is more conservative than forking: it
					// requires both branches to produce the same type.
					// Two dynamically-typed closures merge at the
					// dynamic type.
					if !types.Equal(rt.Val.T, re.Val.T) && !(isFunTyped(rt.Val) && isFunTyped(re.Val)) {
						out = append(out, errResult(s1, e.Pos(),
							"branches of deferred if have types %s and %s", rt.Val.T, re.Val.T)...)
						continue
					}
					x.statsMu.Lock()
					x.Stats.Merges++
					x.statsMu.Unlock()
					merged := State{
						Guard: Val{CondOp{g1, rt.State.Guard, re.State.Guard}, types.Bool},
						Mem:   condMem(g1, rt.State.Mem, re.State.Mem),
					}
					out = append(out, Result{State: merged, Val: Val{CondOp{g1, rt.Val, re.Val}, rt.Val.T}})
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("sym: unknown if mode %d", x.Mode)
	})
}

// condMem builds g ? m1 : m2, collapsing the trivial case.
func condMem(g Val, m1, m2 Mem) Mem {
	if memEqual(m1, m2) {
		return m1
	}
	return CondMem{G: g, M1: m1, M2: m2}
}
