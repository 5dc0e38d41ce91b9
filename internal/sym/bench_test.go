package sym

import (
	"fmt"
	"testing"

	"mix/internal/lang"
	"mix/internal/types"
)

// benchLadder builds n sequential symbolic conditionals.
func benchLadder(n int) (lang.Expr, func(x *Executor) *Env) {
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("let t%d = (if b%d then 1 else 2) in ", i, i)
	}
	src += "0"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(" + t%d", i)
	}
	e := lang.MustParse(src)
	mkEnv := func(x *Executor) *Env {
		env := EmptyEnv()
		for i := 0; i < n; i++ {
			env = env.Extend(fmt.Sprintf("b%d", i), x.Fresh.Var(types.Bool, "b"))
		}
		return env
	}
	return e, mkEnv
}

func BenchmarkForkingExecution(b *testing.B) {
	for _, n := range []int{4, 8, 11} {
		n := n
		e, mkEnv := benchLadder(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := newExec()
				if _, err := x.Run(mkEnv(x), x.InitialState(), e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeferredExecution(b *testing.B) {
	for _, n := range []int{4, 8, 11} {
		n := n
		e, mkEnv := benchLadder(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := newExec()
				x.Mode = DeferIf
				if _, err := x.Run(mkEnv(x), x.InitialState(), e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestForkingExecutionAllocs pins what a forking path costs in heap
// objects: one Run of the ladder on an engine with no budgets,
// executor and environment included, allocates at most 16 objects per
// path. Path state is shared (environment frames, guards, memories)
// and results go to one accumulator per Run, so the count grows with
// the guards and bindings a path adds, not with copies of result
// lists.
func TestForkingExecutionAllocs(t *testing.T) {
	const n, maxPerPath = 8, 16
	e, mkEnv := benchLadder(n)
	allocs := testing.AllocsPerRun(20, func() {
		x := newExec()
		rs, err := x.Run(mkEnv(x), x.InitialState(), e)
		if err != nil || len(rs) != 1<<n {
			t.Fatalf("ladder-%d: %d paths, %v", n, len(rs), err)
		}
	})
	if perPath := allocs / (1 << n); perPath > maxPerPath {
		t.Fatalf("ladder-%d allocates %.0f objects per Run, %.1f per path; want at most %d per path",
			n, allocs, perPath, maxPerPath)
	}
}

// BenchmarkConcreteFoldAblation measures the SEPLUS-CONC
// partial-evaluation rule on a constant-heavy program.
func BenchmarkConcreteFoldAblation(b *testing.B) {
	src := "0"
	for i := 0; i < 64; i++ {
		src += " + 1"
	}
	e := lang.MustParse("if (" + src + ") = 64 then 1 else (1 + true)")
	for _, fold := range []bool{true, false} {
		fold := fold
		name := "fold=on"
		if !fold {
			name = "fold=off"
		}
		b.Run(name, func(b *testing.B) {
			var paths int
			for i := 0; i < b.N; i++ {
				x := newExec()
				x.ConcreteFold = fold
				rs, err := x.Run(EmptyEnv(), x.InitialState(), e)
				if err != nil {
					b.Fatal(err)
				}
				paths = len(rs)
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// BenchmarkMemoryLogDeref measures write-log growth and ⊢ m ok cost.
func BenchmarkMemoryLogDeref(b *testing.B) {
	src := "let r = ref 0 in "
	for i := 0; i < 32; i++ {
		src += fmt.Sprintf("let _ = r := %d in ", i)
	}
	src += "!r"
	e := lang.MustParse(src)
	for i := 0; i < b.N; i++ {
		x := newExec()
		if _, err := x.Run(EmptyEnv(), x.InitialState(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosureInlining measures higher-order application.
func BenchmarkClosureInlining(b *testing.B) {
	e := lang.MustParse(
		"let twice = fun f -> fun x -> f (f x) in twice (twice (fun n -> n + 1)) 0")
	for i := 0; i < b.N; i++ {
		x := newExec()
		rs, err := x.Run(EmptyEnv(), x.InitialState(), e)
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].Val.String() != "4:int" {
			b.Fatalf("got %s", rs[0].Val)
		}
	}
}
