package mix

import (
	"os"
	"strings"
	"testing"

	"mix/internal/corpus"
)

func TestCheckWellTyped(t *testing.T) {
	res := Check("let x = 1 in x + 2", Config{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Type != "int" {
		t.Fatalf("Type = %q", res.Type)
	}
}

func TestCheckIllTyped(t *testing.T) {
	res := Check("1 + true", Config{})
	if res.Err == nil {
		t.Fatal("expected error")
	}
}

func TestCheckParseError(t *testing.T) {
	res := Check("let x =", Config{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "syntax error") {
		t.Fatalf("got %v", res.Err)
	}
}

func TestCheckHeadline(t *testing.T) {
	// The headline example: a dead ill-typed branch is accepted under
	// MIX and rejected by pure typing.
	src := "{s if true then {t 5 t} else {t 1 + true t} s}"
	res := Check(src, Config{})
	if res.Err != nil {
		t.Fatalf("MIX should accept: %v", res.Err)
	}
	stripped := "if true then 5 else 1 + true"
	res2 := Check(stripped, Config{})
	if res2.Err == nil {
		t.Fatal("pure typing should reject")
	}
}

func TestCheckEnvAndModes(t *testing.T) {
	res := Check("if b then 1 else 2", Config{
		Mode: StartSymbolic,
		Env:  map[string]string{"b": "bool"},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Paths != 2 {
		t.Fatalf("Paths = %d, want 2", res.Paths)
	}
	// Forking covers the block's guard by construction, and no path
	// errs, so there is nothing to ask the solver.
	if res.SolverQueries != 0 {
		t.Fatalf("SolverQueries = %d, want 0 for a forked block", res.SolverQueries)
	}
	// Deferred conditionals: one path, and the exhaustiveness query.
	res = Check("if b then 1 else 2", Config{
		Mode: StartSymbolic, DeferConditionals: true,
		Env: map[string]string{"b": "bool"},
	})
	if res.Err != nil || res.Paths != 1 || res.SolverQueries != 1 {
		t.Fatalf("defer: %+v", res)
	}
}

func TestCheckRefEnv(t *testing.T) {
	res := Check("!r + 1", Config{
		Mode: StartSymbolic,
		Env:  map[string]string{"r": "int ref"},
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Type != "int" {
		t.Fatalf("Type = %q", res.Type)
	}
	res = Check("x", Config{Env: map[string]string{"x": "float"}})
	if res.Err == nil {
		t.Fatal("unknown env type should error")
	}
}

func TestCheckReportsDiscarded(t *testing.T) {
	src := "{s if x = x then {t 1 t} else {t 1 + true t} s}"
	res := Check(src, Config{Env: map[string]string{"x": "int"}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	found := false
	for _, r := range res.Reports {
		if strings.Contains(r, "discarded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a discarded report, got %v", res.Reports)
	}
}

func TestAnalyzeCCases(t *testing.T) {
	for _, c := range corpus.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			base, err := AnalyzeC(c.Source, CConfig{PureTypes: true})
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := AnalyzeC(c.Source, CConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if len(mixed.Warnings) >= len(base.Warnings) && c.Name != corpus.Case4.Name {
				t.Fatalf("MIXY should reduce warnings: base %v, mixed %v",
					base.Warnings, mixed.Warnings)
			}
		})
	}
}

func TestAnalyzeCParseError(t *testing.T) {
	if _, err := AnalyzeC("int f(", CConfig{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTestdataFiles(t *testing.T) {
	mixFiles := map[string]map[string]string{
		"testdata/unreachable.mix": nil,
		"testdata/signs.mix":       {"x": "int"},
		"testdata/div.mix":         nil,
	}
	for path, env := range mixFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res := Check(string(src), Config{Env: env})
		if res.Err != nil {
			t.Errorf("%s: %v", path, res.Err)
		}
	}
	src, err := os.ReadFile("testdata/case1.mc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeC(string(src), CConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("case1.mc should be clean under MIXY: %v", res.Warnings)
	}
	pure, err := AnalyzeC(string(src), CConfig{PureTypes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pure.Warnings) == 0 {
		t.Error("case1.mc should warn under pure inference")
	}
}

func TestAnalyzeCStats(t *testing.T) {
	res, err := AnalyzeC(corpus.SyntheticVsftpd(6, 2), CConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksAnalyzed == 0 || res.FixpointIters == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

// ladderInput returns corpus.Ladder(n) in facade form.
func ladderInput(n int) (string, map[string]string) {
	src, pairs := corpus.Ladder(n)
	env := map[string]string{}
	for _, p := range pairs {
		env[p[0]] = p[1]
	}
	return src, env
}

// A ladder-13 block has 8,192 paths, all of them ok, and its forks
// cover the block's guard by construction, so checking it asks the
// solver nothing: no exhaustiveness query and no feasibility query.
// Ladder-10 and ladder-12 are held to the same count, so easy
// workloads never depend on the solver; perfbench's core-explore
// times them.
func TestLadderExhaustiveByConstruction(t *testing.T) {
	for _, n := range []int{10, 12, 13} {
		src, env := ladderInput(n)
		res := Check(src, Config{Mode: StartSymbolic, Env: env, Workers: 1})
		if res.Err != nil {
			t.Fatalf("ladder-%d: %v", n, res.Err)
		}
		if res.Type != "int" || res.Paths != 1<<n {
			t.Fatalf("ladder-%d: type %s over %d paths, want int over %d", n, res.Type, res.Paths, 1<<n)
		}
		if res.SolverQueries != 0 {
			t.Fatalf("ladder-%d: %d solver queries, want 0", n, res.SolverQueries)
		}
	}
}
