package signs

import (
	"strings"
	"testing"

	"mix/internal/lang"
)

func checkSigns(t *testing.T, src string, env *Env) (Type, error) {
	t.Helper()
	m := NewMixer()
	return m.Check(env, lang.MustParse(src))
}

func wantSign(t *testing.T, src string, env *Env, want Type) {
	t.Helper()
	ty, err := checkSigns(t, src, env)
	if err != nil {
		t.Fatalf("Check(%q): %v", src, err)
	}
	if !Equal(ty, want) {
		t.Fatalf("Check(%q) = %s, want %s", src, ty, want)
	}
}

func wantSignErr(t *testing.T, src string, env *Env, frag string) {
	t.Helper()
	_, err := checkSigns(t, src, env)
	if err == nil {
		t.Fatalf("Check(%q) succeeded, want error with %q", src, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Check(%q) error %q, want %q", src, err, frag)
	}
}

func TestLiteralSigns(t *testing.T) {
	wantSign(t, "3", nil, Int(Pos))
	wantSign(t, "0", nil, Int(Zero))
	wantSign(t, "-2", nil, Int(Neg))
	wantSign(t, "true", nil, Bool)
}

func TestPlusTable(t *testing.T) {
	wantSign(t, "1 + 2", nil, Int(Pos))
	wantSign(t, "-1 + -2", nil, Int(Neg))
	wantSign(t, "0 + 0", nil, Int(Zero))
	wantSign(t, "1 + 0", nil, Int(Pos))
	wantSign(t, "-1 + 0", nil, Int(Neg))
	wantSign(t, "1 + -1", nil, Int(Top)) // pos + neg is unknown
}

func TestJoinInConditionals(t *testing.T) {
	env := EmptyEnv().Extend("b", Bool)
	wantSign(t, "if b then 1 else 2", env, Int(Pos))
	wantSign(t, "if b then 1 else -2", env, Int(Top))
	wantSign(t, "if b then 0 else 0", env, Int(Zero))
}

func TestLattice(t *testing.T) {
	if Join(Pos, Pos) != Pos || Join(Pos, Neg) != Top || Join(Zero, Top) != Top {
		t.Fatal("Join broken")
	}
	if !Leq(Pos, Top) || Leq(Top, Pos) || !Leq(Neg, Neg) {
		t.Fatal("Leq broken")
	}
}

func TestShapeErrors(t *testing.T) {
	wantSignErr(t, "1 + true", nil, "right operand of +")
	wantSignErr(t, "not 3", nil, "operand of not")
	wantSignErr(t, "fun x -> x", nil, "does not cover functions")
	wantSignErr(t, "x", nil, "unbound variable")
}

func TestRefsWidenSigns(t *testing.T) {
	// References carry unknown-signed storage, so any int may be
	// written, and reads are unknown.
	wantSign(t, "let r = ref 1 in let _ = r := -5 in !r", nil, Int(Top))
}

func TestSymBlockRefinesResult(t *testing.T) {
	// The mixed analysis derives the result's sign via the solver:
	// every path returns a positive value.
	env := EmptyEnv().Extend("b", Bool)
	wantSign(t, "{s if b then 1 else 2 s}", env, Int(Pos))
	wantSign(t, "{s if b then 1 else -1 s}", env, Int(Top))
	wantSign(t, "{s 0 + 0 s}", nil, Int(Zero))
}

func TestSignConstraintsEnterSymBlock(t *testing.T) {
	// x : pos int enters the block as α with α > 0, so x + 1 is
	// provably positive even though the sign table alone would say so
	// too; more interestingly, x + -1 is Top for the table but the
	// block can refine under a test.
	env := EmptyEnv().Extend("x", Int(Pos))
	wantSign(t, "{s x + 1 s}", env, Int(Pos))
	// The paper's refinement: testing 1 < x makes x + -1 positive on
	// that path; the else path yields zero (x must be 1 when pos and
	// not 1 < x); the join is Top only if signs differ — here they do.
	wantSign(t, "{s if 1 < x then x + -1 else 0 s}", env, Int(Top))
	// All paths positive:
	wantSign(t, "{s if 1 < x then x + -1 + 1 else x s}", env, Int(Pos))
}

func TestSignBlockInsideSymbolic(t *testing.T) {
	// The paper's Section 2 example shape: a symbolic split on the
	// sign of an unknown int, with sign-typed blocks per arm seeing
	// the refined sign.
	env := EmptyEnv().Extend("x", Int(Top))
	good := `{s if 0 < x then {t x t} else (if x = 0 then {t 1 t} else {t 2 t}) s}`
	// In the first arm x is refined to pos int inside the sign block,
	// so the whole block is pos on every path.
	wantSign(t, good, env, Int(Pos))
}

func TestRefinementVisibleInsideBlock(t *testing.T) {
	// Inside {t ... t} under the 0 < x branch, x itself has type
	// pos int — returning it directly proves the refinement worked.
	env := EmptyEnv().Extend("x", Int(Top))
	src := `{s if 0 < x then {t x + 1 t} else {t 1 t} s}`
	wantSign(t, src, env, Int(Pos))
}

func TestBackTranslationConstrains(t *testing.T) {
	// A sign block's result sign becomes a path constraint: the
	// enclosing symbolic execution can prove a branch dead with it.
	env := EmptyEnv().Extend("x", Int(Top))
	// {t 5 t} is pos, so the fresh α carries α > 0 and the α = 0
	// branch is infeasible; the bad arm (shape error) is discarded.
	src := `{s let y = {t 5 t} in if y = 0 then (1 + true) else 7 s}`
	ty, err := checkSigns(t, src, env)
	if err != nil {
		t.Fatalf("dead branch should be discarded: %v", err)
	}
	if !Equal(ty, Int(Pos)) {
		t.Fatalf("got %s", ty)
	}
}

func TestInfeasibleErrorDiscarded(t *testing.T) {
	env := EmptyEnv().Extend("x", Int(Pos))
	// x > 0 entering the block makes the x = 0 branch dead.
	src := `{s if x = 0 then (1 + true) else x s}`
	m := NewMixer()
	ty, err := m.Check(env, lang.MustParse(src))
	if err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if !Equal(ty, Int(Pos)) {
		t.Fatalf("got %s", ty)
	}
	found := false
	for _, r := range m.Reports {
		if strings.Contains(r, "discarded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected discarded report: %v", m.Reports)
	}
}

func TestFeasibleErrorReported(t *testing.T) {
	env := EmptyEnv().Extend("x", Int(Top))
	src := `{s if x = 0 then (1 + true) else x s}`
	wantSignErr(t, src, env, "operand of +")
}

// A run cut short by its path budget is missing leaves, and with no
// exhaustiveness query left to notice, the rule must reject it itself:
// the dropped third path returns a bool.
func TestTruncatedRunIsRejected(t *testing.T) {
	env := EmptyEnv().Extend("x", Int(Top))
	m := NewMixer()
	m.exec.MaxPaths = 2
	_, err := m.Check(env, lang.MustParse(`{s if x = 0 then 1 else (if x = 1 then 2 else true) s}`))
	if err == nil || !strings.Contains(err.Error(), "exploration truncated") {
		t.Fatalf("got %v, want the truncated run rejected", err)
	}
}

func TestStandaloneCheckerRejectsSymBlocks(t *testing.T) {
	var c Checker
	_, err := c.Check(nil, lang.MustParse("{s 1 s}"))
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("got %v", err)
	}
}

func TestSubtypeAndWiden(t *testing.T) {
	if !Subtype(Int(Pos), Int(Top)) || Subtype(Int(Top), Int(Pos)) {
		t.Fatal("Subtype broken")
	}
	if !Subtype(Int(Pos), Int(Pos)) {
		t.Fatal("reflexive Subtype broken")
	}
	if !Equal(Widen(Int(Pos)), Int(Top)) {
		t.Fatal("Widen broken")
	}
	if !Equal(Ref(Int(Pos)), RefType{Int(Top)}) {
		t.Fatal("Ref must widen elements")
	}
}
