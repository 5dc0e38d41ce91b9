package sym

import (
	"strings"
	"testing"

	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/types"
)

func TestLtFolding(t *testing.T) {
	_, rs := runSrc(t, "1 < 2")
	if rs[0].Val.String() != "true:bool" {
		t.Fatalf("got %s", rs[0].Val)
	}
	_, rs = runSrc(t, "2 < 1")
	if rs[0].Val.String() != "false:bool" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestLtSymbolic(t *testing.T) {
	x := newExec()
	a := x.Fresh.Var(types.Int, "a")
	env := EmptyEnv().Extend("a", a)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("a < 0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs[0].Val.U.(LtOp); !ok {
		t.Fatalf("want LtOp, got %T", rs[0].Val.U)
	}
}

func TestLtTypeErrors(t *testing.T) {
	_, rs := runSrc(t, "true < 1")
	errs := pathErrors(rs)
	if len(errs) != 1 || !strings.Contains(errs[0].Err.Msg, "left operand of <") {
		t.Fatalf("got %v", rs)
	}
}

func TestClosureApplication(t *testing.T) {
	_, rs := runSrc(t, "(fun x -> x + 1) 4")
	if len(rs) != 1 || rs[0].Err != nil {
		t.Fatalf("got %v", rs)
	}
	if rs[0].Val.String() != "5:int" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestClosureContextSensitivity(t *testing.T) {
	// The paper's id example: one unannotated function applied at two
	// different types within a symbolic region.
	_, rs := runSrc(t, "let id = fun x -> x in (id 3) + (if id true then 1 else 0)")
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("got %v", rs)
	}
	if ok[0].Val.String() != "4:int" {
		t.Fatalf("got %s", ok[0].Val)
	}
}

func TestCurrying(t *testing.T) {
	_, rs := runSrc(t, "(fun x -> fun y -> x + y) 1 2")
	if rs[0].Val.String() != "3:int" {
		t.Fatalf("got %s", rs[0].Val)
	}
}

func TestClosureCapture(t *testing.T) {
	_, rs := runSrc(t, "let a = 10 in let f = fun x -> x + a in let a = 99 in f 1")
	if rs[0].Val.String() != "11:int" {
		t.Fatalf("lexical capture broken: got %s", rs[0].Val)
	}
}

func TestApplyUnknownFunctionFails(t *testing.T) {
	x := newExec()
	f := x.Fresh.Var(types.Fun(types.Int, types.Int), "f")
	env := EmptyEnv().Extend("f", f)
	rs, err := x.Run(env, x.InitialState(), lang.MustParse("f 3"))
	if err != nil {
		t.Fatal(err)
	}
	errs := pathErrors(rs)
	if len(errs) != 1 || !strings.Contains(errs[0].Err.Msg, "unknown function") {
		t.Fatalf("got %v", rs)
	}
}

func TestApplyNonFunctionFails(t *testing.T) {
	_, rs := runSrc(t, "1 2")
	errs := pathErrors(rs)
	if len(errs) != 1 {
		t.Fatalf("got %v", rs)
	}
}

func TestRefOfClosureResolves(t *testing.T) {
	// Reading a closure back from a reference and applying it works
	// when the read resolves syntactically.
	_, rs := runSrc(t, "let r = ref (fun x -> x + 1) in (!r) 4")
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("got %v", rs)
	}
	if ok[0].Val.String() != "5:int" {
		t.Fatalf("got %s", ok[0].Val)
	}
}

func TestRefOfClosureUpdated(t *testing.T) {
	_, rs := runSrc(t, `let r = ref (fun x -> x + 1) in
		let _ = r := (fun x -> x + 100) in (!r) 1`)
	ok := successes(rs)
	if len(ok) != 1 {
		t.Fatalf("got %v", rs)
	}
	if ok[0].Val.String() != "101:int" {
		t.Fatalf("latest write should win: got %s", ok[0].Val)
	}
}

func TestLandinKnotRunsOutOfFuel(t *testing.T) {
	// Recursion through the store must hit the step budget and degrade
	// — truncate with a recorded step-budget fault — not hang or fail.
	x := newExec()
	x.MaxSteps = 10000
	src := `let r = ref (fun x -> x) in
		let f = fun n -> (!r) n in
		let _ = r := f in
		f 0`
	_, err := x.Run(EmptyEnv(), x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatalf("step exhaustion must degrade, not error: %v", err)
	}
	if x.ImprecisionCount() == 0 {
		t.Fatal("truncation must be recorded as imprecision")
	}
	if d := x.Degraded(); fault.ClassOf(d) != fault.StepBudget {
		t.Fatalf("degradation cause = %v, want step-budget", d)
	}
	if d := x.Degraded(); !strings.Contains(d.Error(), "max-steps=10000") {
		t.Fatalf("diagnostic must name the tripped budget: %v", d)
	}
}

func TestFunctionsCannotBeCompared(t *testing.T) {
	_, rs := runSrc(t, "(fun x -> x) = (fun y -> y)")
	errs := pathErrors(rs)
	if len(errs) != 1 || !strings.Contains(errs[0].Err.Msg, "cannot compare functions") {
		t.Fatalf("got %v", rs)
	}
}

func TestDeferModeClosureBranches(t *testing.T) {
	// A deferred conditional over closures produces a CondOp value;
	// applying it forks on the guard.
	x := newExec()
	x.Mode = DeferIf
	b := x.Fresh.Var(types.Bool, "b")
	env := EmptyEnv().Extend("b", b)
	src := "(if b then (fun x -> x + 1) else (fun x -> x + 2)) 10"
	rs, err := x.Run(env, x.InitialState(), lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	ok := successes(rs)
	if len(ok) != 2 {
		t.Fatalf("expected apply to fork the deferred closure: %v", rs)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	_, rs := runSrc(t, "let twice = fun f -> fun x -> f (f x) in twice (fun n -> n + 3) 1")
	ok := successes(rs)
	if len(ok) != 1 || ok[0].Val.String() != "7:int" {
		t.Fatalf("got %v", rs)
	}
}
