package core

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/langgen"
	"mix/internal/types"
)

// TestEngineMatchesDirectCheck is the core-language differential
// property test for the incremental solver pipeline: checking randomly
// generated programs through the engine (persistent environments,
// incremental PCs, sliced memoized solving) must agree with the plain
// checker — same accept/reject verdict and same derived type — for
// every program, in both outermost modes.
func TestEngineMatchesDirectCheck(t *testing.T) {
	const programs = 200
	for _, symb := range []bool{false, true} {
		name := "typed"
		if symb {
			name = "symbolic"
		}
		t.Run(name, func(t *testing.T) {
			gen := langgen.New(0xE9E9, langgen.DefaultConfig())
			agreeAccept, agreeReject := 0, 0
			for i := 0; i < programs; i++ {
				prog := gen.Closed()
				check := func(opts Options) (types.Type, error) {
					c := New(opts)
					if symb {
						return c.CheckSymbolic(types.EmptyEnv(), prog)
					}
					return c.Check(types.EmptyEnv(), prog)
				}
				wantTy, wantErr := check(Options{})
				eng := engine.New(engine.Options{})
				gotTy, gotErr := check(Options{Engine: eng})
				eng.Close()
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("program %s: verdict diverges: direct err=%v, engine err=%v",
						prog, wantErr, gotErr)
				}
				if wantErr == nil && !types.Equal(wantTy, gotTy) {
					t.Fatalf("program %s: type diverges: direct %s, engine %s",
						prog, wantTy, gotTy)
				}
				if wantErr == nil {
					agreeAccept++
				} else {
					agreeReject++
				}
			}
			if agreeAccept == 0 || agreeReject == 0 {
				t.Fatalf("degenerate distribution: %d accepted, %d rejected", agreeAccept, agreeReject)
			}
			t.Logf("%d accepted, %d rejected, all agree", agreeAccept, agreeReject)
		})
	}
}
