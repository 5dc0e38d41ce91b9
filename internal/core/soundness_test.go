package core

import (
	"errors"
	"testing"

	"mix/internal/concrete"
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/sym"
	"mix/internal/types"
)

// TestSoundnessTheorem1 is the executable form of the paper's
// Theorem 1 (MIX soundness): for randomly generated closed programs,
// if the mixed checker accepts, the concrete big-step semantics must
// not produce the error token — and the resulting value must inhabit
// the derived type. Exercised for both outermost modes and both
// conditional-execution modes.
func TestSoundnessTheorem1(t *testing.T) {
	configs := []struct {
		name string
		opts Options
		symb bool // outermost symbolic block
	}{
		{"typed-fork", Options{}, false},
		{"symbolic-fork", Options{}, true},
		{"typed-defer", Options{IfMode: sym.DeferIf}, false},
		{"symbolic-defer", Options{IfMode: sym.DeferIf}, true},
		{"typed-nofold", Options{NoConcreteFold: true}, false},
		{"symbolic-solvereq", Options{SolverAddrEq: true}, true},
	}
	const programs = 300
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			runSoundnessConfig(t, cfg.opts, cfg.symb, programs)
		})
	}
}

// runSoundnessConfig generates `programs` random closed programs and
// checks the Theorem-1 property under the given configuration.
func runSoundnessConfig(t *testing.T, opts Options, symb bool, programs int) {
	t.Helper()
	gen := langgen.New(0xC0DE+int64(programs), langgen.DefaultConfig())
	accepted, rejected := 0, 0
	for i := 0; i < programs; i++ {
		prog := gen.Closed()
		checker := New(opts)
		var ty types.Type
		var err error
		if symb {
			ty, err = checker.CheckSymbolic(types.EmptyEnv(), prog)
		} else {
			ty, err = checker.Check(types.EmptyEnv(), prog)
		}
		if err != nil {
			rejected++
			continue
		}
		accepted++
		ev := concrete.NewEvaluator()
		v, cerr := ev.Eval(concrete.EmptyEnv(), concrete.NewMemory(), prog)
		if errors.Is(cerr, concrete.ErrTypeError) {
			t.Fatalf("UNSOUND: checker accepted %s : %s but evaluation hit %v",
				prog, ty, cerr)
		}
		if cerr != nil {
			t.Fatalf("evaluator failed unexpectedly on %s: %v", prog, cerr)
		}
		if !valueInhabits(v, ty) {
			t.Fatalf("type preservation violated: %s : %s evaluated to %s",
				prog, ty, v)
		}
	}
	if accepted == 0 {
		t.Fatalf("generator produced no accepted programs (rejected %d); property vacuous", rejected)
	}
	t.Logf("%d accepted, %d rejected", accepted, rejected)
}

// valueInhabits checks the ⟨E; M⟩ ∼ ⟨Γ; Λ⟩ value part: the concrete
// value has the shape of the static type.
func valueInhabits(v concrete.Value, ty types.Type) bool {
	switch ty.(type) {
	case types.IntType:
		_, ok := v.(concrete.IntV)
		return ok
	case types.BoolType:
		_, ok := v.(concrete.BoolV)
		return ok
	case types.RefType:
		_, ok := v.(concrete.LocV)
		return ok
	case types.FunType:
		_, ok := v.(concrete.ClosV)
		return ok
	}
	return false
}

// TestSoundnessRejectionAgreement: programs rejected by the pure type
// checker but free of blocks must also be rejected — or the concrete
// run errs — under MIX with any block decoration the generator added.
// This guards against the mix rules accidentally *losing* errors that
// are concretely reachable.
func TestSoundnessConcreteErrorImpliesRejection(t *testing.T) {
	gen := langgen.New(7, langgen.Config{MaxDepth: 4, BlockProb: 0.3, ErrorProb: 0.25, WithRefs: true})
	checked := 0
	for i := 0; i < 400; i++ {
		prog := gen.Closed()
		ev := concrete.NewEvaluator()
		_, cerr := ev.Eval(concrete.EmptyEnv(), concrete.NewMemory(), prog)
		if !errors.Is(cerr, concrete.ErrTypeError) {
			continue
		}
		checked++
		// The concrete run hits the error token, so no sound checker
		// may accept.
		checker := New(Options{})
		if _, err := checker.Check(types.EmptyEnv(), prog); err == nil {
			t.Fatalf("UNSOUND: %s errs concretely but was accepted", prog)
		}
		checker2 := New(Options{})
		if _, err := checker2.CheckSymbolic(types.EmptyEnv(), prog); err == nil {
			t.Fatalf("UNSOUND: %s errs concretely but was accepted symbolically", prog)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d concretely-erroring programs generated; property too weak", checked)
	}
}

// TestMixMorePreciseThanTypes quantifies the headline claim on random
// programs: everything the pure type checker accepts, MIX accepts
// (with blocks stripped there is no difference), and some programs the
// type checker rejects are accepted by an outermost symbolic analysis
// that proves the offending code dead.
func TestMixMorePreciseThanTypes(t *testing.T) {
	gen := langgen.New(99, langgen.Config{MaxDepth: 4, BlockProb: 0, ErrorProb: 0.15, WithRefs: false})
	var pure, symbolic int
	for i := 0; i < 300; i++ {
		prog := gen.Closed()
		var tc types.Checker
		if _, err := tc.Check(types.EmptyEnv(), prog); err == nil {
			pure++
			// Monotonicity: symbolic analysis must accept too.
			c := New(Options{})
			if _, err := c.CheckSymbolic(types.EmptyEnv(), prog); err != nil {
				t.Fatalf("symbolic execution rejected a well-typed block-free program %s: %v", prog, err)
			}
		}
		c := New(Options{})
		if _, err := c.CheckSymbolic(types.EmptyEnv(), prog); err == nil {
			symbolic++
		}
	}
	if symbolic <= pure {
		t.Fatalf("expected symbolic analysis to accept strictly more programs: pure=%d symbolic=%d", pure, symbolic)
	}
	t.Logf("pure types accepted %d, symbolic accepted %d of 300", pure, symbolic)
}

// TestSymbolicExecutorAgreesWithConcrete cross-validates the executor
// directly (the part-2 statement of Theorem 1): for block-free
// programs, the concrete result must match one feasible symbolic path.
func TestSymbolicExecutorAgreesWithConcrete(t *testing.T) {
	gen := langgen.New(1234, langgen.Config{MaxDepth: 4, BlockProb: 0, ErrorProb: 0.1, WithRefs: false})
	validated := 0
	for i := 0; i < 300; i++ {
		prog := gen.Closed()
		x := sym.NewExecutor(engine.New(engine.Options{}))
		rs, err := x.Run(sym.EmptyEnv(), x.InitialState(), prog)
		if err != nil {
			continue
		}
		ev := concrete.NewEvaluator()
		v, cerr := ev.Eval(concrete.EmptyEnv(), concrete.NewMemory(), prog)
		if cerr != nil {
			// The concrete run hit the error token; some path must
			// report an error (closed programs: all guards concrete).
			hasErr := false
			for _, r := range rs {
				if r.Err != nil {
					hasErr = true
				}
			}
			if errors.Is(cerr, concrete.ErrTypeError) && !hasErr {
				t.Fatalf("concrete error on %s not seen by any symbolic path", prog)
			}
			continue
		}
		// Closed, block-free programs with concrete folding: the
		// executor should have exactly one surviving path whose value
		// is the concrete result.
		if len(rs) != 1 || rs[0].Err != nil {
			continue // guards may stay symbolic through stored bools; skip
		}
		validated++
		got := rs[0].Val.String()
		var want string
		switch v := v.(type) {
		case concrete.IntV:
			want = lang.I(v.Val).String() + ":int"
		case concrete.BoolV:
			want = lang.B(v.Val).String() + ":bool"
		default:
			validated--
			continue // locations have no literal form
		}
		if got != want && !isMemReadOrVar(rs[0].Val) {
			t.Fatalf("symbolic result %s != concrete %s for %s", got, want, prog)
		}
	}
	if validated < 50 {
		t.Fatalf("only %d programs validated; generator too weak", validated)
	}
}

func isMemReadOrVar(v sym.Val) bool {
	switch v.U.(type) {
	case sym.MemRead, sym.SymVar:
		return true
	}
	return false
}
