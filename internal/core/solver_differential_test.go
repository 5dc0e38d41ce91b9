package core

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/solver"
	"mix/internal/types"
)

// countingReference wraps solver.NewReference and counts the solvers
// it builds, so a leg whose seam silently falls back to solver.New
// cannot pass.
func countingReference(n *int) func() *solver.Solver {
	return func() *solver.Solver {
		*n++
		return solver.NewReference()
	}
}

// TestSearchCoresMatchOnGeneratedPrograms: the CDCL core and the
// chronological DPLL reference (solver.NewReference) are
// interchangeable back ends — checking randomly generated programs
// must produce the same accept/reject verdict and the same derived
// type on either, both directly and through an engine. The DPLL search
// stays in the tree exactly to serve as this differential reference.
func TestSearchCoresMatchOnGeneratedPrograms(t *testing.T) {
	const programs = 120
	// The engine's interval fast path decides every query the
	// generated programs send through the pool, so one more program
	// compares two typed-block results: only the search can refute the
	// inner guard and discard its ill-typed block.
	const relational = "let a = {t 1 t} in let b = {t 2 t} in " +
		"{s if a < b then (if b < a then {t 1 + true t} else 1) else 2 s}"

	for _, symb := range []bool{false, true} {
		name := "typed"
		if symb {
			name = "symbolic"
		}
		t.Run(name, func(t *testing.T) {
			gen := langgen.New(0xCDC1, langgen.DefaultConfig())
			accepted, rejected := 0, 0
			var direct, pooled int
			progs := []lang.Expr{lang.MustParse(relational)}
			for i := 0; i < programs; i++ {
				progs = append(progs, gen.Closed())
			}
			for _, prog := range progs {
				check := func(opts Options) (types.Type, error) {
					c := New(opts)
					if symb {
						return c.CheckSymbolic(types.EmptyEnv(), prog)
					}
					return c.Check(types.EmptyEnv(), prog)
				}
				wantTy, wantErr := check(Options{})
				gotTy, gotErr := check(Options{NewSolver: countingReference(&direct)})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("program %s: verdict diverges under dpll: cdcl err=%v, dpll err=%v",
						prog, wantErr, gotErr)
				}
				if wantErr == nil && !types.Equal(wantTy, gotTy) {
					t.Fatalf("program %s: type diverges under dpll: %s vs %s",
						prog, wantTy, gotTy)
				}

				eng := engine.New(engine.Options{NewSolver: countingReference(&pooled)})
				gotTy, gotErr = check(Options{Engine: eng})
				eng.Close()
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("program %s: engine verdict diverges under dpll: cdcl err=%v, dpll err=%v",
						prog, wantErr, gotErr)
				}
				if wantErr == nil && !types.Equal(wantTy, gotTy) {
					t.Fatalf("program %s: engine type diverges under dpll: %s vs %s",
						prog, wantTy, gotTy)
				}
				if wantErr == nil {
					accepted++
				} else {
					rejected++
				}
			}
			if accepted == 0 || rejected == 0 {
				t.Fatalf("degenerate distribution: %d accepted, %d rejected", accepted, rejected)
			}
			if direct == 0 || pooled == 0 {
				t.Fatalf("the reference seam never ran: %d direct, %d pooled solvers built",
					direct, pooled)
			}
		})
	}
}
