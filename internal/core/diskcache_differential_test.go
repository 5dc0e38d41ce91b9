package core

import (
	"fmt"
	"testing"

	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/types"
)

// TestDiskCacheWarmMatchesCold is the core-language differential for
// the persistent solver cache: checking programs against an engine
// whose cache is backed by a directory must agree with the plain
// checker — cold (writing the store) and warm (a fresh cache
// reloading it). A verdict persisted under the wrong
// key, a model deserialized to different rationals, or a stale entry
// trusted across runs all show up as a flipped accept/reject or a
// changed type.
//
// Two program families feed the differential. Randomly generated
// closed langgen programs cover breadth, but their guards are mostly
// boolean and concrete, so they rarely reach a fresh DPLL solve with
// a persistable definite verdict. The second family is open programs
// over free int variables whose path conditions are two-variable
// inequalities — the shape that actually forces solver decisions —
// with the reachability of an ill-typed branch varying across the
// family so the store accumulates both sat and unsat verdicts.
func TestDiskCacheWarmMatchesCold(t *testing.T) {
	type testCase struct {
		env  *types.Env
		prog lang.Expr
		name string
	}
	var cases []testCase

	gen := langgen.New(0xE9E9, langgen.DefaultConfig())
	for i := 0; i < 200; i++ {
		cases = append(cases, testCase{
			env:  types.EmptyEnv(),
			prog: gen.Closed(),
			name: fmt.Sprintf("langgen-%d", i),
		})
	}

	intEnv := types.EmptyEnv().Extend("x", types.Int).Extend("y", types.Int)
	// Inequality chains over x and y. The inner guard either
	// contradicts the outer one (the ill-typed arm is dead: accept)
	// or is satisfiable alongside it (the arm is live: reject), and
	// shifting the bounds by k keeps every query distinct so each one
	// is a fresh solve on a cold store.
	for k := 0; k < 12; k++ {
		dead := fmt.Sprintf(
			`{s if x < y + %d then (if y + %d < x then {t 1 + true t} else 1)
			     else (if x < y then {t 2 + true t} else 2) s}`, k, k)
		live := fmt.Sprintf(
			`{s if x < y + %d then (if x + %d < y then {t 1 + true t} else 1) else 2 s}`,
			k+2, k)
		cases = append(cases,
			testCase{env: intEnv, prog: lang.MustParse(dead), name: fmt.Sprintf("ineq-dead-%d", k)},
			testCase{env: intEnv, prog: lang.MustParse(live), name: fmt.Sprintf("ineq-live-%d", k)},
		)
	}

	dir := t.TempDir()
	agreeAccept, agreeReject := 0, 0
	for _, tc := range cases {
		check := func(eng *engine.Engine) (types.Type, error) {
			c := New(Options{Engine: eng})
			return c.CheckSymbolic(tc.env, tc.prog)
		}
		wantTy, wantErr := check(nil)
		for _, phase := range []string{"cold", "warm"} {
			cache := engine.NewCache(engine.CacheOptions{Dir: dir})
			eng := engine.New(engine.Options{Cache: cache})
			gotTy, gotErr := check(eng)
			eng.Close()
			if err := cache.Persist(); err != nil {
				t.Fatalf("%s: persist: %v", tc.name, err)
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s (%s): verdict diverges (%s): direct err=%v, cached err=%v",
					tc.name, tc.prog, phase, wantErr, gotErr)
			}
			if wantErr == nil && !types.Equal(wantTy, gotTy) {
				t.Fatalf("%s (%s): type diverges (%s): direct %s, cached %s",
					tc.name, tc.prog, phase, wantTy, gotTy)
			}
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
	final := engine.NewCache(engine.CacheOptions{Dir: dir})
	fs := final.Stats()
	if fs.DiskEntries < 10 {
		t.Fatalf("only %d verdicts persisted; the disk legs ran against a nearly empty store", fs.DiskEntries)
	}
	if fs.DiskCorrupt != 0 {
		t.Fatalf("store accumulated %d corrupt entries", fs.DiskCorrupt)
	}
	t.Logf("%d accepted, %d rejected, %d persisted verdicts, all agree", agreeAccept, agreeReject, fs.DiskEntries)
}
