// Package core implements MIX itself: the two mix rules of the
// paper's Figure 4 that connect an off-the-shelf type checker
// (internal/types) and an off-the-shelf symbolic executor
// (internal/sym).
//
//   - TSYMBLOCK type checks a symbolic block {s e s}: it builds a
//     symbolic environment of fresh variables typed by Γ, runs the
//     executor from ⟨true; μ⟩, demands every surviving path agree on
//     one type and leave memory consistent, and demands the path
//     conditions be exhaustive (their disjunction a tautology).
//   - SETYPBLOCK symbolically executes a typed block {t e t}: it
//     abstracts Σ to a typing environment (⊢ Σ : Γ), requires the
//     current memory be consistent, type checks the body, and returns
//     a fresh symbolic value of the derived type with a havocked
//     memory μ′.
//
// Neither underlying analysis knows about the other; each reaches the
// other only through the hook it already exposes.
package core

import (
	"errors"
	"fmt"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/solver"
	"mix/internal/sym"
	"mix/internal/types"
)

// Options configures a mixed analysis. The zero value gives the sound
// forking configuration used throughout the paper's formalism.
type Options struct {
	// Unsound replaces the exhaustive(...) tautology check with the
	// paper's "good enough check" (namely none), modeling how symbolic
	// execution is typically deployed for bug finding.
	Unsound bool
	// IfMode selects forking (SEIF-TRUE/FALSE) or deferring
	// (SEIF-DEFER) at conditionals.
	IfMode sym.IfMode
	// Merge enables veritesting-style join-point state merging in
	// ForkIf mode (DESIGN.md section 12).
	Merge engine.MergeMode
	// NoConcreteFold disables the SEPLUS-CONC style partial-evaluation
	// rules.
	NoConcreteFold bool
	// SolverAddrEq uses the solver to decide address equality in the
	// OVERWRITE-OK rule instead of syntactic equivalence.
	SolverAddrEq bool
	// MaxPaths bounds symbolic paths per block (0 = default).
	MaxPaths int
	// EffectAware enables the paper's Section 3.2 refinement: "if we
	// were to use a type and effect system rather than just a type
	// system, we could avoid introducing a completely fresh memory μ′
	// in SETYPBLOCK". A simple syntactic effect analysis skips the
	// memory havoc when the typed block provably performs no writes.
	EffectAware bool
	// Concolic enables the hybrid-concolic SEVAR variant (Section
	// 3.1): symbolic-variable lookups return concrete values recorded
	// in the path condition. Only meaningful together with Unsound,
	// since a single concolic path cannot be exhaustive.
	Concolic bool
	// Engine, when non-nil, enforces the run's budgets and routes
	// every solver query through its memoizing SolverPool. Nil
	// preserves the single-solver behavior.
	Engine *engine.Engine
	// NewSolver is a test seam: it builds the checker's own solver
	// (the one used when Engine is nil, and for the address-equality
	// side queries) in place of solver.New, so the differential tests
	// can run it on solver.NewReference.
	NewSolver func() *solver.Solver
}

// Report records one symbolic-execution finding and whether its path
// was feasible (infeasible findings are discarded, which is exactly
// how MIX eliminates false positives).
type Report struct {
	Pos      lang.Pos
	Msg      string
	Guard    string
	Feasible bool
}

func (r Report) String() string {
	verdict := "discarded (infeasible path)"
	if r.Feasible {
		verdict = "error"
	}
	return fmt.Sprintf("%s: %s: %s [under %s]", r.Pos, verdict, r.Msg, r.Guard)
}

// Checker runs a mixed analysis. Construct with New.
type Checker struct {
	opts Options
	typs *types.Checker
	exec *sym.Executor
	solv *solver.Solver
	eng  *engine.Engine

	Reports []Report
}

// New builds a mixed checker: a standard type checker and a standard
// symbolic executor, each given a hook that invokes the corresponding
// mix rule.
func New(opts Options) *Checker {
	newSolver := opts.NewSolver
	if newSolver == nil {
		newSolver = solver.New
	}
	c := &Checker{opts: opts, solv: newSolver(), eng: opts.Engine}
	c.typs = &types.Checker{SymBlock: c.tSymBlock}
	c.exec = sym.NewExecutor()
	c.exec.Mode = opts.IfMode
	c.exec.MergeMode = opts.Merge
	c.exec.ConcreteFold = !opts.NoConcreteFold
	c.exec.Concolic = opts.Concolic
	if opts.MaxPaths > 0 {
		c.exec.MaxPaths = opts.MaxPaths
	}
	c.exec.TypBlock = c.seTypBlock
	c.exec.MemCheck = c.memOK
	c.exec.Engine = opts.Engine
	return c
}

// Solver exposes the underlying solver (for statistics).
func (c *Checker) Solver() *solver.Solver { return c.solv }

// Executor exposes the underlying symbolic executor (for statistics).
func (c *Checker) Executor() *sym.Executor { return c.exec }

// sat routes satisfiability queries through the engine's memoizing
// pool when present, else the plain solver.
func (c *Checker) sat(f solver.Formula) (bool, error) {
	if c.eng != nil {
		return c.eng.Sat(f)
	}
	return c.solv.Sat(f)
}

// Check analyzes e as if wrapped in a typed block at the outermost
// scope ("MIX can handle either case").
func (c *Checker) Check(env *types.Env, e lang.Expr) (types.Type, error) {
	return c.typs.Check(env, e)
}

// CheckSymbolic analyzes e as if wrapped in a symbolic block at the
// outermost scope.
func (c *Checker) CheckSymbolic(env *types.Env, e lang.Expr) (types.Type, error) {
	return c.tSymBlock(env, e)
}

// tSymBlock is the TSYMBLOCK rule.
func (c *Checker) tSymBlock(env *types.Env, e lang.Expr) (types.Type, error) {
	// Σ(x) = α_x : Γ(x) for all x ∈ dom(Γ).
	senv := sym.EmptyEnv()
	for _, name := range env.Names() {
		ty, _ := env.Lookup(name)
		senv = senv.Extend(name, c.exec.Fresh.Var(ty, name))
	}
	// S = ⟨true; μ⟩ with μ fresh.
	st := c.exec.InitialState()
	before := c.exec.ImprecisionCount()
	results, err := c.exec.Run(senv, st, e)
	if err != nil {
		return nil, err
	}
	degraded := c.exec.ImprecisionCount() > before

	var okResults []sym.Result
	for _, r := range results {
		if r.Err == nil {
			okResults = append(okResults, r)
			continue
		}
		feasible, ferr := c.feasible(r.Err.State.Guard)
		if ferr != nil {
			if unknownSat(ferr) {
				// Solver resource limit: unknown → keep the path and
				// its finding (conservative, same as engine.Feasible).
				feasible = true
			} else {
				return nil, fmt.Errorf("core: feasibility check failed: %w", ferr)
			}
		}
		c.Reports = append(c.Reports, Report{
			Pos: r.Err.Pos, Msg: r.Err.Msg,
			Guard: r.Err.State.Guard.String(), Feasible: feasible,
		})
		if feasible {
			return nil, &types.Error{Pos: r.Err.Pos, Msg: r.Err.Msg}
		}
	}

	// A truncated exploration (budget, deadline, recovered panic) can
	// never certify the block: the missing paths could disagree on
	// type, corrupt memory, or break exhaustiveness. Feasible path
	// errors found above still win — they were genuinely explored — but
	// from here on the only sound answer is the degradation ladder's
	// top, surfaced as a classified fault the caller absorbs into an
	// "unknown" verdict rather than a crash or a false "well typed".
	if degraded {
		cause := c.exec.Degraded()
		if cause == nil {
			cause = fault.New(fault.PathBudget, "core.tSymBlock", "", nil)
		}
		return nil, fmt.Errorf("core: %s: symbolic block exploration truncated, cannot certify: %w",
			e.Pos(), cause)
	}
	if len(okResults) == 0 {
		return nil, &types.Error{Pos: e.Pos(), Msg: "symbolic block has no surviving execution paths"}
	}

	// All paths must produce one type τ and a consistent memory.
	ty := okResults[0].Val.T
	for _, r := range okResults[1:] {
		if !types.Equal(r.Val.T, ty) {
			return nil, &types.Error{Pos: e.Pos(),
				Msg: fmt.Sprintf("symbolic block paths disagree on type: %s vs %s", ty, r.Val.T)}
		}
	}
	for _, r := range okResults {
		if err := c.memOK(r.State); err != nil {
			// ⊢ m(S_i) ok failed on this path; a feasibility check
			// applies just as for type errors.
			feasible, ferr := c.feasible(r.State.Guard)
			if ferr != nil {
				if unknownSat(ferr) {
					feasible = true
				} else {
					return nil, fmt.Errorf("core: feasibility check failed: %w", ferr)
				}
			}
			c.Reports = append(c.Reports, Report{
				Pos: e.Pos(), Msg: err.Error(),
				Guard: r.State.Guard.String(), Feasible: feasible,
			})
			if feasible {
				return nil, &types.Error{Pos: e.Pos(),
					Msg: fmt.Sprintf("memory inconsistent at end of symbolic block: %v", err)}
			}
		}
	}

	// exhaustive(g(S_1), ..., g(S_n)).
	if !c.opts.Unsound {
		guards := make([]sym.Val, len(okResults))
		for i, r := range okResults {
			guards[i] = r.State.Guard
		}
		// Valid(g1 ∨ ... ∨ gn) given the side constraints: check that
		// ¬(g1 ∨ ... ∨ gn) ∧ sides is unsatisfiable.
		tr := sym.NewTranslator()
		disj, err := tr.Disjunction(guards)
		if err != nil {
			return nil, fmt.Errorf("core: translating guards: %w", err)
		}
		counter, err := c.sat(solver.NewAnd(solver.NewNot(disj), tr.Sides()))
		if err != nil {
			return nil, fmt.Errorf("core: exhaustiveness check failed: %w", err)
		}
		if counter {
			return nil, &types.Error{Pos: e.Pos(),
				Msg: "symbolic block executions are not exhaustive"}
		}
	}
	return ty, nil
}

// seTypBlock is the SETYPBLOCK rule.
func (c *Checker) seTypBlock(env *sym.Env, st sym.State, e lang.Expr) (sym.Result, error) {
	// ⊢ Σ : Γ — abstract each symbolic value to its type.
	tenv := types.EmptyEnv()
	for _, name := range env.Names() {
		v, _ := env.Lookup(name)
		tenv = tenv.Extend(name, v.T)
	}
	// ⊢ m(S) ok: the typed block relies purely on type information, so
	// the memory must be consistently typed on entry.
	if err := c.memOK(st); err != nil {
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: fmt.Sprintf("memory inconsistent entering typed block: %v", err), State: st,
		}}, nil
	}
	ty, err := c.typs.Check(tenv, e)
	if err != nil {
		// A classified fault from a nested symbolic block (deadline,
		// budget, panic) is not a type error of this path — it must
		// propagate so the enclosing executor degrades, instead of
		// masquerading as a path-conditioned finding.
		if fault.Degradable(err) {
			return sym.Result{}, err
		}
		// A type error inside a typed block is a path-conditioned
		// finding: if the enclosing symbolic path is infeasible, the
		// block is dead and the error is discarded (Section 2's
		// unreachable-code example).
		return sym.Result{State: st, Err: &sym.PathError{
			Pos: e.Pos(), Msg: err.Error(), State: st,
		}}, nil
	}
	// The block evaluates to a fresh α : τ; memory is havocked to a
	// fresh μ′ since the type system does not track writes — unless
	// the effect analysis proves the block write-free (Section 3.2's
	// type-and-effect refinement).
	out := st
	if !c.opts.EffectAware || mayWrite(e) {
		out.Mem = c.exec.Fresh.Memory()
	}
	return sym.Result{State: out, Val: c.exec.Fresh.Var(ty, "typblock")}, nil
}

// mayWrite is a syntactic effect analysis: it reports whether e can
// write to memory. Applications are conservatively effectful (the
// callee's body is unknown without an effect system proper), as are
// nested symbolic blocks.
func mayWrite(e lang.Expr) bool {
	switch e := e.(type) {
	case lang.Var, lang.IntLit, lang.BoolLit, lang.Fun:
		// A function literal defers its body's effects to the
		// application site, which is itself conservative.
		return false
	case lang.Plus:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Eq:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Lt:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.Not:
		return mayWrite(e.X)
	case lang.And:
		return mayWrite(e.X) || mayWrite(e.Y)
	case lang.If:
		return mayWrite(e.Cond) || mayWrite(e.Then) || mayWrite(e.Else)
	case lang.Let:
		return mayWrite(e.Bound) || mayWrite(e.Body)
	case lang.Deref:
		return mayWrite(e.X)
	case lang.TypedBlock:
		return mayWrite(e.Body)
	}
	// Assign, Ref (allocation), App (unknown callee body), SymBlock:
	// conservatively effectful.
	return true
}

// memOK applies ⊢ m ok with the configured address-equality oracle.
func (c *Checker) memOK(st sym.State) error {
	if !c.opts.SolverAddrEq {
		return sym.MemOK(st.Mem)
	}
	guard := st.Guard
	eq := func(a, b sym.Val) bool {
		if sym.ValEqual(a, b) {
			return true
		}
		if !types.Equal(a.T, b.T) {
			return false
		}
		tr := sym.NewTranslator()
		ta, err := tr.Term(a)
		if err != nil {
			return false
		}
		tb, err := tr.Term(b)
		if err != nil {
			return false
		}
		g, err := tr.Formula(guard)
		if err != nil {
			return false
		}
		// Valid under the path condition: g ∧ sides ∧ a≠b unsat.
		sat, err := c.sat(solver.Conj(g, tr.Sides(), solver.Neq(ta, tb)))
		return err == nil && !sat
	}
	return sym.MemOKWith(st.Mem, eq)
}

// unknownSat reports whether a satisfiability error is a plain,
// deterministic solver resource limit — the "unknown" answer — as
// opposed to a transient classified fault (timeout, cancellation,
// injection) or a hard failure.
func unknownSat(err error) bool {
	return errors.Is(err, solver.ErrLimit) && fault.Of(err) == nil
}

// feasible checks whether a path condition is satisfiable.
func (c *Checker) feasible(g sym.Val) (bool, error) {
	tr := sym.NewTranslator()
	f, err := tr.Formula(g)
	if err != nil {
		return false, err
	}
	return c.sat(solver.NewAnd(f, tr.Sides()))
}
