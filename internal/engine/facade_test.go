// The engine at the public API: checking through it must reproduce the
// engine-free checker's verdict, path count and report sequence byte
// for byte.
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"mix"
)

// boolTreeExpr builds a complete binary tree of conditionals of the
// given depth over distinct bool variables. Each leaf re-tests the
// variable its parent just branched on, so one side is infeasible and
// carries a type error: the checker must explore 2^depth feasible
// paths and discard 2^depth infeasible ones, each discard leaving a
// report. Tree depth 7 gives 255 branching conditionals.
func boolTreeExpr(depth int) (string, map[string]string) {
	env := map[string]string{}
	leaf := 0
	var emit func(node, d int, parentVar string, parentTaken bool) string
	emit = func(node, d int, parentVar string, parentTaken bool) string {
		if d == depth {
			l := fmt.Sprint(leaf)
			leaf++
			// The branch that contradicts the parent's test is
			// infeasible; its type error must be discarded with a
			// report.
			if parentTaken {
				return "(if " + parentVar + " then " + l + " else (1 + true))"
			}
			return "(if " + parentVar + " then (1 + true) else " + l + ")"
		}
		v := fmt.Sprintf("b%d", node)
		env[v] = "bool"
		return "(if " + v + " then " + emit(2*node+1, d+1, v, true) +
			" else " + emit(2*node+2, d+1, v, false) + ")"
	}
	src := emit(0, 0, "", true)
	return src, env
}

func TestCoreEngineMatchesSequential(t *testing.T) {
	const depth = 7 // 127 + 128 = 255 conditionals
	src, env := boolTreeExpr(depth)

	seq := mix.Check(src, mix.Config{Mode: mix.StartSymbolic, Env: env})
	if seq.Err != nil {
		t.Fatalf("engine-free: %v", seq.Err)
	}
	if len(seq.Reports) != 1<<depth {
		t.Fatalf("engine-free reports = %d, want one discarded infeasible path per leaf", len(seq.Reports))
	}
	got := mix.Check(src, mix.Config{Mode: mix.StartSymbolic, Env: env, Workers: 1})
	if got.Err != nil {
		t.Fatalf("engine: %v", got.Err)
	}
	if got.Type != seq.Type || got.Paths != seq.Paths {
		t.Fatalf("engine: type=%q paths=%d, engine-free type=%q paths=%d",
			got.Type, got.Paths, seq.Type, seq.Paths)
	}
	if strings.Join(got.Reports, "\n") != strings.Join(seq.Reports, "\n") {
		t.Fatalf("engine report sequence differs\nengine-free:\n%s\nengine:\n%s",
			strings.Join(seq.Reports, "\n"), strings.Join(got.Reports, "\n"))
	}
}
