package symexec

import (
	"fmt"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/pointer"
)

// TestPersistentForkAndSlicingCounts pins the work of four programs run
// on a one-worker engine, in the order: paths, memory clones, shared
// cells, memory writes, quick-decided queries, slices, largest slice,
// cex hits, memo hits and solver queries.
//   - wide-mem-w: a complete depth-6 conditional tree over w global
//     cells. Every fork clones the store in O(1), and shared cells
//     counts the copies an eager clone would have made.
//   - pairs-10: guards over disjoint variable pairs, so every path
//     condition slices into singleton components that the memo and the
//     counterexample cache answer.
//   - chain-10: guards chained through shared variables, so slicing
//     cannot split them and the largest slice grows with the chain.
//
// The memory counters are process-wide, so this test must not run in
// parallel with another executor.
func TestPersistentForkAndSlicingCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src      string
		maxPaths int
		want     [10]int64
	}{
		{"wide-mem-64", wideMemSrc(64, 6), 0, [10]int64{64, 63, 4353, 127, 126, 0, 0, 0, 0, 126}},
		{"wide-mem-256", wideMemSrc(256, 6), 0, [10]int64{64, 63, 16449, 319, 126, 0, 0, 0, 0, 126}},
		{"pairs-10", pairsSrc(10), 4096, [10]int64{1024, 1023, 19457, 4093, 0, 18434, 1, 1022, 16388, 2046}},
		{"chain-10", chainSrc(10), 4096, [10]int64{1024, 1023, 11263, 3071, 0, 2046, 10, 86, 0, 2046}},
	} {
		prog := mustParse(tc.src)
		eng := engine.New(engine.Options{})
		x := New(prog, pointer.Analyze(prog), eng)
		if tc.maxPaths > 0 {
			x.MaxPaths = tc.maxPaths
		}
		c0, s0, w0 := MemoryStats()
		outs, err := x.Run("f")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c1, s1, w1 := MemoryStats()
		st := eng.Snapshot()
		got := [10]int64{int64(len(outs)), c1 - c0, s1 - s0, w1 - w0,
			st.QuickDecided, st.Slices, st.MaxSlice, st.CexHits, st.MemoHits, st.SolverQueries}
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// wideMemSrc builds f: it initializes width global int cells, then
// forks down a complete conditional tree of the given depth.
func wideMemSrc(width, depth int) string {
	var b strings.Builder
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "int g%d;\n", i)
	}
	for i := 0; i < 1<<depth-1; i++ {
		fmt.Fprintf(&b, "int c%d;\n", i)
	}
	b.WriteString("int f(void) {\n")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "g%d = %d;\n", i, i)
	}
	leaf := 0
	var emit func(node, d int)
	emit = func(node, d int) {
		if d == depth {
			fmt.Fprintf(&b, "return %d;\n", leaf)
			leaf++
			return
		}
		fmt.Fprintf(&b, "if (c%d > 0) {\n", node)
		emit(2*node+1, d+1)
		b.WriteString("} else {\n")
		emit(2*node+2, d+1)
		b.WriteString("}\n")
	}
	emit(0, 0)
	b.WriteString("}\n")
	return b.String()
}

// pairsSrc builds f with n sequential conditionals over disjoint
// variable pairs (x_i < y_i).
func pairsSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int x%d;\nint y%d;\n", i, i)
	}
	b.WriteString("int f(void) {\nint acc;\nacc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if (x%d < y%d) {\nacc = acc + 1;\n} else {\nacc = acc + 0;\n}\n", i, i)
	}
	b.WriteString("return acc;\n}\n")
	return b.String()
}

// chainSrc builds f with n sequential conditionals whose guards chain
// through shared variables (x_i < x_{i+1}).
func chainSrc(n int) string {
	var b strings.Builder
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "int x%d;\n", i)
	}
	b.WriteString("int f(void) {\nint acc;\nacc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if (x%d < x%d) {\nacc = acc + 1;\n} else {\nacc = acc + 0;\n}\n", i, i+1)
	}
	b.WriteString("return acc;\n}\n")
	return b.String()
}
