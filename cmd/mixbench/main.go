// Command mixbench regenerates every experiment of the reproduction
// (DESIGN.md, Section 4: experiment index). Each table corresponds to
// an empirical claim of the paper; absolute numbers differ from the
// paper's 2010 testbed, but the shapes are the claims under test.
//
// Usage:
//
//	mixbench [-table E1..E8|X1|X2|X3|X6|X8|X9|all] [-cpuprofile f] [-memprofile f]
//
// Tables print to stdout and write no files. -cpuprofile/-memprofile
// capture pprof profiles of the selected tables (view with `go tool
// pprof`).
//
// X8 (state merging: -merge off vs joins) and X9 (function summaries
// vs inlining) time their claims with paired medians: each of 21 reps
// runs every mode once, rotating which goes first, and the table
// prints the quartiles of the per-rep time ratios. With
// MIXBENCH_ENFORCE=1 in the environment the run exits 1 when a median
// ratio breaks its claim: joins no slower than off on the ladders and
// at most 5% slower on vsftpd-12x2; summaries, fresh or warm from
// disk, at least 2x faster than inlining. The work behind the claims
// (paths, merges, summaries computed) is pinned exactly by go tests.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mix"
	"mix/internal/cexec"
	"mix/internal/cgen"
	"mix/internal/concrete"
	"mix/internal/core"
	"mix/internal/corpus"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/profiling"
	"mix/internal/signs"
	"mix/internal/summary"
	"mix/internal/sym"
	"mix/internal/types"
)

func main() {
	table := flag.String("table", "all", "experiment to run (E1..E8, X1, X2, X3, X6, X8, X9, or all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected tables to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := profiling.StartCPUProfile(*cpuprofile)
		must(err)
		defer stop()
	}
	runTables(*table)
	if *memprofile != "" {
		must(profiling.WriteHeapProfile(*memprofile))
	}
}

func runTables(table string) {
	tables := map[string]func(){
		"E1": tableE1, "E2": tableE2, "E3": tableE3, "E4": tableE4,
		"E5": tableE5, "E6": tableE6, "E7": tableE7, "E8": tableE8,
		"X1": tableX1, "X2": tableX2, "X3": tableX3, "X6": tableX6,
		"X8": tableX8, "X9": tableX9,
	}
	if table == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "X1", "X2", "X3", "X6", "X8", "X9"} {
			tables[id]()
			fmt.Println()
		}
		return
	}
	run, ok := tables[table]
	if !ok {
		fmt.Fprintf(os.Stderr, "mixbench: unknown table %s\n", table)
		os.Exit(2)
	}
	run()
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func envMap(pairs [][2]string) map[string]string {
	m := map[string]string{}
	for _, p := range pairs {
		m[p[0]] = p[1]
	}
	return m
}

// tableE1 — Section 2 idioms: pure type checking vs MIX.
func tableE1() {
	fmt.Println("E1 — Section 2 motivating idioms (core language)")
	fmt.Println("paper claim: each idiom false-positives under pure typing where marked, passes under MIX")
	w := newTab()
	fmt.Fprintln(w, "idiom\tpure types\tMIX\tfalse positive removed")
	for _, idiom := range corpus.CoreIdioms {
		env := envMap(idiom.Env)
		pure := mix.Check(idiom.Stripped, mix.Config{Env: env})
		mixed := mix.Check(idiom.Source, mix.Config{Env: env})
		pureStr, mixedStr := verdict(pure.Err), verdict(mixed.Err)
		removed := "-"
		if pure.Err != nil && mixed.Err == nil {
			removed = "yes"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", idiom.Name, pureStr, mixedStr, removed)
	}
	w.Flush()
}

func verdict(err error) string {
	if err == nil {
		return "accepts"
	}
	return "rejects"
}

// tableE2 — the four vsftpd case studies (Section 4.5).
func tableE2() {
	fmt.Println("E2 — vsftpd case studies (Section 4.5)")
	fmt.Println("paper claim: MIX(symbolic)/MIX(typed) annotations eliminate the false warnings of pure qualifier inference")
	w := newTab()
	fmt.Fprintln(w, "case\tbaseline warnings\tMIXY warnings\teliminated")
	for _, c := range corpus.Cases {
		baseCfg := mix.CConfig{PureTypes: true}
		var baseWarn int
		if c.Name == corpus.Case4.Name {
			// Case 4's baseline is symbolic execution without the
			// typed block (the fnptr failure), not pure typing.
			res, err := mix.AnalyzeC(corpus.Case4NoTyped.Source, mix.CConfig{})
			must(err)
			baseWarn = len(res.Warnings)
		} else {
			res, err := mix.AnalyzeC(c.Source, baseCfg)
			must(err)
			baseWarn = len(res.Warnings)
		}
		mixed, err := mix.AnalyzeC(c.Source, mix.CConfig{})
		must(err)
		elim := "no"
		if baseWarn > 0 && len(mixed.Warnings) == 0 {
			elim = "yes"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", c.Name, baseWarn, len(mixed.Warnings), elim)
	}
	// The combined program: warnings drop but context-insensitive
	// aliasing leaves residuals, reproducing Section 4.6.
	base, err := mix.AnalyzeC(corpus.VsftpdMini.Source, mix.CConfig{PureTypes: true})
	must(err)
	mixed, err := mix.AnalyzeC(corpus.VsftpdMini.Source, mix.CConfig{})
	must(err)
	fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", corpus.VsftpdMini.Name,
		len(base.Warnings), len(mixed.Warnings), "reduced (residual = §4.6 conflation)")
	w.Flush()
}

// tableE3 — analysis time vs number of symbolic blocks (Section 4.6).
func tableE3() {
	fmt.Println("E3 — MIXY cost vs symbolic blocks (Section 4.6)")
	fmt.Println("paper claim: <1s with 0 blocks, 5–25s with 1, ~60s with 2 — monotone, superlinear shape")
	w := newTab()
	fmt.Fprintln(w, "symbolic blocks\ttime\tvs k=0\tblocks analyzed\tfixpoint iters\tsolver queries")
	const n = 12
	var base time.Duration
	for _, k := range []int{0, 1, 2, 3} {
		src := corpus.SyntheticVsftpd(n, k)
		prog := parseC(src)
		start := time.Now()
		a, err := mixy.Run(prog, mixy.Options{})
		must(err)
		dur := time.Since(start)
		if k == 0 {
			base = dur
		}
		ratio := float64(dur) / float64(base)
		fmt.Fprintf(w, "%d\t%v\t%.1fx\t%d\t%d\t%d\n",
			k, dur.Round(time.Microsecond), ratio,
			a.Stats.BlocksAnalyzed, a.Stats.FixpointIters, a.Stats.SolverQueries)
	}
	w.Flush()
}

// tableE4 — deferral vs execution (Section 3.1).
func tableE4() {
	fmt.Println("E4 — fork vs defer at conditionals (Section 3.1)")
	fmt.Println("paper claim: SEIF-DEFER avoids forking but hands the solver harder disjunctive formulas")
	w := newTab()
	fmt.Fprintln(w, "conditionals\tmode\tpaths\tsolver atoms\tsolver decisions\ttime")
	for _, n := range []int{4, 6, 8, 10} {
		src, env := corpus.Ladder(n)
		for _, mode := range []string{"fork", "defer"} {
			opts := core.Options{}
			if mode == "defer" {
				opts.IfMode = sym.DeferIf
			}
			checker := core.New(opts)
			tenv := types.EmptyEnv()
			for _, p := range env {
				tenv = tenv.Extend(p[0], types.Bool)
			}
			e := lang.MustParse(src)
			start := time.Now()
			_, err := checker.CheckSymbolic(tenv, e)
			must(err)
			dur := time.Since(start)
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%v\n",
				n, mode, checker.Executor().Stats.Paths,
				checker.Solver().Stats.Atoms, checker.Solver().Stats.Decisions,
				dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// tableE5 — the precision/efficiency frontier (Sections 1, 3.2).
func tableE5() {
	fmt.Println("E5 — precision/efficiency frontier")
	fmt.Println("paper claim: MIX is more precise than typing alone and more efficient than exclusive symbolic execution")
	w := newTab()
	fmt.Fprintln(w, "n\tanalysis\tverdict\tpaths\ttime")
	for _, n := range []int{8, 12} {
		plain, mixed, env := corpus.DeepConditionals(n)
		em := envMap(env)
		rows := []struct {
			name string
			src  string
			cfg  mix.Config
		}{
			{"pure types", plain, mix.Config{Env: em}},
			{"pure symbolic", plain, mix.Config{Mode: mix.StartSymbolic, Env: em}},
			{"MIX", mixed, mix.Config{Env: em}},
		}
		for _, r := range rows {
			start := time.Now()
			res := mix.Check(r.src, r.cfg)
			dur := time.Since(start)
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%v\n",
				n, r.name, verdict(res.Err), res.Paths, dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// tableE6 — block caching (Section 4.3).
func tableE6() {
	fmt.Println("E6 — block caching (Section 4.3)")
	fmt.Println("paper claim: caching avoids repeated analysis of a block called from compatible contexts")
	w := newTab()
	fmt.Fprintln(w, "call sites\tcache\tblocks analyzed\tcache hits\ttime")
	for _, sites := range []int{4, 16} {
		src := cacheProgram(sites)
		for _, cache := range []bool{true, false} {
			prog := parseC(src)
			start := time.Now()
			a, err := mixy.Run(prog, mixy.Options{NoCache: !cache})
			must(err)
			dur := time.Since(start)
			on := "on"
			if !cache {
				on = "off"
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%v\n",
				sites, on, a.Stats.BlocksAnalyzed, a.Stats.CacheHits,
				dur.Round(time.Microsecond))
		}
	}
	w.Flush()
}

// cacheProgram routes `sites` typed functions through one symbolic
// block: every typed call re-enters blk with a compatible context, so
// with caching blk is analyzed once and hit sites-1 times.
func cacheProgram(sites int) string {
	var b strings.Builder
	b.WriteString("int *g;\n")
	b.WriteString("void blk(void) MIX(symbolic) {\n  g = NULL;\n  g = malloc(sizeof(int));\n}\n")
	for i := 0; i < sites; i++ {
		fmt.Fprintf(&b, "void t%d(void) MIX(typed) { blk(); }\n", i)
	}
	b.WriteString("void outer(void) MIX(symbolic) {\n")
	for i := 0; i < sites; i++ {
		fmt.Fprintf(&b, "  t%d();\n", i)
	}
	b.WriteString("}\n")
	b.WriteString("int main(void) {\n  outer();\n  return 0;\n}\n")
	return b.String()
}

// tableE7 — recursion between blocks (Section 4.4).
func tableE7() {
	fmt.Println("E7 — typed/symbolic block recursion (Section 4.4)")
	fmt.Println("paper claim: recursion between blocks is detected and resolved by assumption + fixed point")
	src := `
int *g;
int counter;
void typed_side(void) MIX(typed) {
  sym_side();
}
void sym_side(void) MIX(symbolic) {
  if (counter > 0) {
    counter = counter - 1;
    typed_side();
  }
  g = NULL;
}
int main(void) {
  sym_side();
  return 0;
}
`
	prog := parseC(src)
	start := time.Now()
	a, err := mixy.Run(prog, mixy.Options{})
	must(err)
	dur := time.Since(start)
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "terminated\tyes (%v)\n", dur.Round(time.Microsecond))
	fmt.Fprintf(w, "recursion cuts\t%d\n", a.Stats.RecursionCuts)
	fmt.Fprintf(w, "fixpoint iterations\t%d\n", a.Stats.FixpointIters)
	g, _ := prog.Global("g")
	fmt.Fprintf(w, "g's nullness discovered\t%t\n", a.Inf.IsNull(a.Inf.VarQ(g).Ptr))
	w.Flush()
}

// tableE8 — soundness sampling (Theorem 1).
func tableE8() {
	fmt.Println("E8 — MIX soundness, randomized (Theorem 1)")
	fmt.Println("paper claim: mix-accepted programs never hit a run-time type error")
	const programs = 2000
	gen := langgen.New(20100605, langgen.DefaultConfig())
	accepted, rejected, unsound := 0, 0, 0
	for i := 0; i < programs; i++ {
		prog := gen.Closed()
		checker := core.New(core.Options{})
		_, err := checker.Check(types.EmptyEnv(), prog)
		if err != nil {
			rejected++
			continue
		}
		accepted++
		ev := concrete.NewEvaluator()
		_, cerr := ev.Eval(concrete.EmptyEnv(), concrete.NewMemory(), prog)
		if errors.Is(cerr, concrete.ErrTypeError) {
			unsound++
		}
	}
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "programs generated\t%d\n", programs)
	fmt.Fprintf(w, "accepted by MIX\t%d\n", accepted)
	fmt.Fprintf(w, "rejected by MIX\t%d\n", rejected)
	fmt.Fprintf(w, "accepted programs with run-time type errors\t%d (must be 0)\n", unsound)
	w.Flush()
}

// tableX1 — extension: the sign-qualifier instantiation of MIX
// (mechanizing the paper's Section 2 local-refinement example and its
// claim that the approach generalizes to other analysis pairs).
func tableX1() {
	fmt.Println("X1 — extension: sign qualifiers mixed with the same symbolic executor")
	fmt.Println("paper claim (Section 2/6): the mix approach applies to many combinations; sign refinement after tests")
	w := newTab()
	fmt.Fprintln(w, "program\tpure sign table\tmixed analysis")
	rows := []struct {
		src string
		env func() *signs.Env
	}{
		{"if b then 1 + -1 else 0", func() *signs.Env {
			return signs.EmptyEnv().Extend("b", signs.Bool)
		}},
		{"if 0 < x then x + -1 + 1 else 1", func() *signs.Env {
			return signs.EmptyEnv().Extend("x", signs.Int(signs.Top))
		}},
		{"if 1 < x then x + -1 else x", func() *signs.Env {
			return signs.EmptyEnv().Extend("x", signs.Int(signs.Pos))
		}},
	}
	for _, r := range rows {
		var pure signs.Checker
		pureTy, pureErr := pure.Check(r.env(), lang.MustParse(r.src))
		pureStr := "rejects"
		if pureErr == nil {
			pureStr = pureTy.String()
		}
		m := signs.NewMixer()
		mixTy, mixErr := m.Check(r.env(), lang.MustParse("{s "+r.src+" s}"))
		mixStr := "rejects"
		if mixErr == nil {
			mixStr = mixTy.String()
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.src, pureStr, mixStr)
	}
	w.Flush()
}

// tableX2 — extension: the Section 3.2 type-and-effect refinement of
// SETYPBLOCK ("we could find the effect of e and limit applying this
// havoc operation").
func tableX2() {
	fmt.Println("X2 — extension: effect-aware typed blocks (Section 3.2 refinement)")
	fmt.Println("paper claim: an effect system would let SETYPBLOCK avoid havocking memory for pure blocks")
	w := newTab()
	fmt.Fprintln(w, "program\tplain SETYPBLOCK\teffect-aware")
	rows := []string{
		// A fact established before a pure typed block survives it.
		`{s let r = ref 0 in let _ = {t 1 + 1 t} in
		   if !r = 0 then 1 else (1 + true) s}`,
		// A writing typed block still havocs under both.
		`{s let r = ref 0 in let _ = {t (ref 9) := 1 t} in
		   if !r = 0 then 1 else (1 + true) s}`,
	}
	for _, src := range rows {
		plain := mix.Check(src, mix.Config{})
		eff := mix.Check(src, mix.Config{EffectAware: true})
		short := strings.Join(strings.Fields(src), " ")
		if len(short) > 60 {
			short = short[:57] + "..."
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", short, verdict(plain.Err), verdict(eff.Err))
	}
	w.Flush()
}

// tableX3 — extension: a randomized differential version of the
// paper's case study. Generated null-idiom programs are deterministic,
// so a concrete run (internal/cexec) decides ground truth; MIXY must
// warn on every crashing program (soundness) and should warn on far
// fewer clean programs than pure inference (precision).
func tableX3() {
	fmt.Println("X3 — extension: randomized differential against concrete execution")
	fmt.Println("paper claim (generalized): MIXY removes false positives without losing true positives")
	const programs = 400
	cfg := cgen.DefaultConfig()
	cfg.SymbolicEntry = true
	gen := cgen.New(20100605, cfg)
	crashes, missed, clean, pureFP, mixFP := 0, 0, 0, 0, 0
	for i := 0; i < programs; i++ {
		src := gen.Program()
		prog, perr := microc.Parse(src)
		if perr != nil {
			// One malformed generated program must not take down the
			// whole differential batch.
			fmt.Fprintf(os.Stderr, "mixbench: skipping malformed generated program %d: %v\n", i, perr)
			continue
		}
		_, runErr := cexec.New(prog, 1).Run("main")
		crashed := errors.Is(runErr, cexec.ErrNullDeref)
		mixed, err := mixy.Run(prog, mixy.Options{StrictInit: true})
		must(err)
		if crashed {
			crashes++
			if len(mixed.Warnings) == 0 {
				missed++
			}
			continue
		}
		clean++
		pure, err := mixy.Run(parseC(src), mixy.Options{IgnoreAnnotations: true, StrictInit: true})
		must(err)
		if len(pure.Warnings) > 0 {
			pureFP++
		}
		if len(mixed.Warnings) > 0 {
			mixFP++
		}
	}
	w := newTab()
	fmt.Fprintln(w, "metric\tvalue")
	fmt.Fprintf(w, "programs generated\t%d\n", programs)
	fmt.Fprintf(w, "concretely crashing\t%d\n", crashes)
	fmt.Fprintf(w, "crashing programs MIXY missed\t%d (must be 0)\n", missed)
	fmt.Fprintf(w, "concretely clean\t%d\n", clean)
	fmt.Fprintf(w, "clean programs pure inference warns on\t%d\n", pureFP)
	fmt.Fprintf(w, "clean programs MIXY warns on\t%d\n", mixFP)
	w.Flush()
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixbench:", err)
		os.Exit(1)
	}
}

// parseC parses bench source through the normal error path; a
// malformed program stops the run with a diagnostic, never a panic.
func parseC(src string) *microc.Program {
	prog, err := microc.Parse(src)
	must(err)
	return prog
}

// tableX6 measures verdict quality against the wall-clock budget: the
// degradation ladder trades certification for promptness, and the
// claim under test is that every budget produces a verdict — certified
// when the budget suffices, explicitly degraded (with the fault class
// named) when it does not, and never a hang or a crash.
func tableX6() {
	fmt.Println("X6 — graceful degradation: verdict quality vs. deadline")
	fmt.Println("claims: expired budgets terminate promptly with an explicit imprecision verdict; generous budgets certify the same type as an unbounded run")

	src, env := corpus.Ladder(12) // 4096 paths
	em := envMap(env)
	w := newTab()
	fmt.Fprintln(w, "bench\tdeadline\tverdict\tpaths\ttimeouts\ttruncated\ttime")
	for _, d := range []time.Duration{0, 10 * time.Second, 50 * time.Millisecond, time.Millisecond, time.Nanosecond} {
		cfg := mix.Config{Mode: mix.StartSymbolic, Env: em, Workers: 1, Deadline: d}
		start := time.Now()
		res := mix.Check(src, cfg)
		dur := time.Since(start)
		must(res.Err)
		verdict := "certified " + res.Type
		if res.Degraded {
			verdict = "degraded (" + res.Fault + ")"
		}
		label := "none"
		if d > 0 {
			label = d.String()
		}
		fmt.Fprintf(w, "ladder-12\t%s\t%s\t%d\t%d\t%d\t%v\n",
			label, verdict, res.Paths, res.Timeouts, res.PathsTruncated,
			dur.Round(time.Microsecond))
	}
	w.Flush()
}

// pairs is the number of reps behind every timed claim.
const pairs = 21

// paired runs every mode once per rep, rotating which mode goes first,
// and returns each mode's wall-clock times by rep. A ratio of two
// modes' times in the same rep cancels slow host drift (CPU frequency,
// a neighbour's load) that separate best-of-n loops cannot. A
// collection before each run keeps one mode's garbage from being
// charged to the next.
func paired(modes ...func()) [][]time.Duration {
	times := make([][]time.Duration, len(modes))
	for rep := 0; rep < pairs; rep++ {
		for k := range modes {
			i := (rep + k) % len(modes)
			runtime.GC()
			start := time.Now()
			modes[i]()
			times[i] = append(times[i], time.Since(start))
		}
	}
	return times
}

// ratios returns the per-rep ratios t/base.
func ratios(t, base []time.Duration) []float64 {
	r := make([]float64, len(t))
	for i := range t {
		r[i] = float64(t[i]) / float64(base[i])
	}
	return r
}

// quartiles returns the 25th, 50th and 75th percentiles of xs.
func quartiles[T float64 | time.Duration](xs []T) [3]T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return [3]T{s[n/4], s[n/2], s[3*n/4]}
}

// gate exits 1 under MIXBENCH_ENFORCE=1 when a median ratio exceeds
// its bound.
func gate(w *tabwriter.Writer, table, what string, median, bound float64) {
	if os.Getenv("MIXBENCH_ENFORCE") == "1" && median > bound {
		w.Flush()
		fmt.Fprintf(os.Stderr, "mixbench: %s %s median %.3f exceeds %.2f\n", table, what, median, bound)
		os.Exit(1)
	}
}

// tableX8 — veritesting-style state merging (DESIGN.md section 12):
// -merge off vs joins at workers=1. The ladder family is the worst
// case merging targets (2^k forked paths collapse to one merged state
// per rung); the synthetic vsftpd MIXY workload is branch-light, so
// merging must not slow it down. The median joins/off ratio must stay
// at or below 1 on a ladder and 1.05 on vsftpd-12x2.
func tableX8() {
	fmt.Printf("X8 — state merging: -merge off vs joins (workers=1, %d paired reps)\n", pairs)
	fmt.Println("claims: guarded joins collapse ladder-k from 2^k paths to O(1) with large speedups; branch-light code is unaffected (<=5%)")
	w := newTab()
	fmt.Fprintln(w, "bench\tmerge\tpaths\tmerges\tmedian time\tjoins/off median [quartiles]")

	ladder := func(n int) func(string) (string, int) {
		src, env := corpus.Ladder(n)
		em := envMap(env)
		return func(merge string) (string, int) {
			res := mix.Check(src, mix.Config{Mode: mix.StartSymbolic, Env: em, Workers: 1, Merge: merge})
			must(res.Err)
			return strconv.Itoa(res.Paths), res.Merges
		}
	}
	vsftpd := corpus.SyntheticVsftpd(12, 2)
	for _, b := range []struct {
		name  string
		bound float64 // largest median joins/off ratio the claim allows
		run   func(merge string) (paths string, merges int)
	}{
		{"ladder-10", 1, ladder(10)},
		{"ladder-14", 1, ladder(14)},
		{"vsftpd-12x2", 1.05, func(merge string) (string, int) {
			res, err := mix.AnalyzeC(vsftpd, mix.CConfig{Merge: merge})
			must(err)
			return "-", res.Merges
		}},
	} {
		var paths [2]string
		var merges [2]int
		times := paired(
			func() { paths[0], merges[0] = b.run("off") },
			func() { paths[1], merges[1] = b.run("joins") },
		)
		q := quartiles(ratios(times[1], times[0]))
		fmt.Fprintf(w, "%s\toff\t%s\t%d\t%v\t-\n",
			b.name, paths[0], merges[0], quartiles(times[0])[1].Round(time.Microsecond))
		fmt.Fprintf(w, "%s\tjoins\t%s\t%d\t%v\t%.3f [%.3f–%.3f]\n",
			b.name, paths[1], merges[1], quartiles(times[1])[1].Round(time.Microsecond), q[1], q[0], q[2])
		gate(w, "X8", b.name+" joins/off", q[1], b.bound)
	}
	w.Flush()
}

// tableX9 — compositional function summaries (DESIGN.md section 14) on
// shared-2x3: calls inlined, answered from freshly computed summaries,
// and answered from a summary store warm from disk. Inline cost
// compounds per call site (every call re-explores its helper against
// an ever-larger path condition); summaries pay each helper's
// exploration once. Both summary modes must run at most half as long
// as inlining (median ratio <= 0.5). shared-2x4 stays out of the table
// while its inline leg takes tens of seconds (ROADMAP.md).
func tableX9() {
	fmt.Printf("X9 — function summaries: inline vs summaries vs summaries warm from disk (%d paired reps)\n", pairs)
	fmt.Println("claims: analyzing each shared helper once and instantiating its arms at call sites beats re-inlining by >=2x; a disk-warm store also skips the one-time summarization")
	const name = "shared-2x3"
	src := corpus.SharedHelpers(2, 3)

	// The warm-disk mode reads a store primed by an untimed run; each
	// rep opens a fresh Store on the directory, so it starts
	// memory-cold and must load from disk.
	dir, err := os.MkdirTemp("", "mixbench-x9-")
	must(err)
	defer os.RemoveAll(dir)
	base := mix.CConfig{Entry: "entry", Merge: "joins", MergeCap: 8}
	prime := base
	prime.Summaries, prime.SummaryStore = true, summary.NewStore(dir)
	_, err = mix.AnalyzeC(src, prime)
	must(err)

	modes := []string{"inline", "summaries", "summaries-warm"}
	last := make([]mix.CResult, len(modes))
	var warnings string
	run := func(i int) func() {
		return func() {
			cfg := base
			cfg.Summaries = modes[i] != "inline"
			if modes[i] == "summaries-warm" {
				cfg.SummaryStore = summary.NewStore(dir)
			}
			res, err := mix.AnalyzeC(src, cfg)
			must(err)
			if res.Degraded {
				must(fmt.Errorf("X9 %s %s degraded: %s", name, modes[i], res.FaultDetail))
			}
			got := fmt.Sprint(res.Warnings)
			if warnings == "" {
				warnings = got
			} else if got != warnings {
				must(fmt.Errorf("X9 %s %s verdict drift: %q vs %q", name, modes[i], got, warnings))
			}
			last[i] = res
		}
	}
	times := paired(run(0), run(1), run(2))

	w := newTab()
	fmt.Fprintln(w, "bench\tmode\tsummaries\tdisk hits\tinstantiated\tmedian time\tmode/inline median [quartiles]")
	for i, mode := range modes {
		r := last[i]
		vs := "-"
		var q [3]float64
		if i > 0 {
			q = quartiles(ratios(times[i], times[0]))
			vs = fmt.Sprintf("%.4f [%.4f–%.4f]", q[1], q[0], q[2])
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%v\t%s\n", name, mode, r.SummaryComputed,
			r.SummaryDiskHits, r.SummaryInstantiated, quartiles(times[i])[1].Round(time.Microsecond), vs)
		if i > 0 {
			gate(w, "X9", name+" "+mode+"/inline", q[1], 0.5)
		}
	}
	w.Flush()
}
