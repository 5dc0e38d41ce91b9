package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"

	"mix"
	"mix/internal/cexec"
	"mix/internal/cgen"
	"mix/internal/concrete"
	"mix/internal/core"
	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/lang"
	"mix/internal/langgen"
	"mix/internal/microc"
	"mix/internal/mixy"
	"mix/internal/obs"
	"mix/internal/summary"
	"mix/internal/symexec"
	"mix/internal/types"
)

// Pool composition. Every family is in every seed's pool in the same
// proportion, so a seed changes the generated programs and the order,
// not the mix. Each pool is weighted so that its median check sits well
// inside one cost class and its p99 inside the most expensive one; a
// quantile on the boundary between two classes would jump with small
// shifts in the generated programs' cost.
//
// core-explore, 50 checks a pass: 33 fork-heavy checks (ladder-8 16
// times, ladder-9 8, ladder-10 4, ladder-11 2, and the three
// pure-symbolic deep conditionals) and 17 cheap ones (the three mixed
// deep conditionals, the 10 idioms, 4 langgen programs). The median is
// a ladder-8 check (rank 25 of 50; 17 cheap checks and deep-8 sit
// below the 16 copies), the p99 a ladder-11 check.
//
// mixy-solve, 45 checks a pass: the 21 synthetic vsftpd programs, with
// vsftpd-8x2 in 12 copies, the 4 cases and vsftpd-mini, 2 shared-helper
// programs and 6 cgen programs. The median is a vsftpd-8x2 check (18
// cheaper checks, then the 12 copies), the p99 a vsftpd-13x3 or -14x3
// check.
var ladderCopies = map[int]int{8: 16, 9: 8, 10: 4, 11: 2}

const (
	anchorN, anchorK, anchorCopies = 8, 2, 12
	langgenPrograms                = 4
	cgenPrograms                   = 6
	cgenStmts                      = 3
)

// verdict is what one check decided, in the same shape whichever path
// produced it.
type verdict struct {
	Type     string
	Error    string
	Reports  []string
	Paths    int
	Warnings []string
	Queries  int
	Degraded bool
}

// coreInput is a core-language program and the outermost mode and free
// variables it is checked with.
type coreInput struct {
	src  string
	mode mix.Mode
	env  map[string]string
}

// input is one program of a workload and its reference.
type input struct {
	name string
	core *coreInput // nil for MicroC programs
	src  string     // MicroC source
	ref  func(verdict) string
}

// facade runs the check through the public entry point with the
// workload's options: core-explore uses mix.Check with Workers 1 and
// merging off; mixy-solve uses mix.AnalyzeC with Workers 1, Merge
// "joins" and Summaries.
func (in *input) facade() (verdict, error) {
	if c := in.core; c != nil {
		res := mix.Check(c.src, mix.Config{Mode: c.mode, Env: c.env, Workers: 1})
		v := verdict{Type: res.Type, Reports: res.Reports, Paths: res.Paths, Queries: res.SolverQueries, Degraded: res.Degraded}
		if res.Err != nil {
			v.Error = res.Err.Error()
		}
		return v, nil
	}
	res, err := mix.AnalyzeC(in.src, mix.CConfig{Workers: 1, Merge: "joins", Summaries: true})
	if err != nil {
		return verdict{}, err
	}
	return verdict{Warnings: res.Warnings, Queries: res.SolverQueries, Degraded: res.Degraded}, nil
}

// traced runs the same check layer by layer, configured as the facade
// configures it, with a span around each layer call under parent.
func (in *input) traced(tr *tracer, parent int, ls *layerStats) (verdict, error) {
	id := tr.spans[parent].Check
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Workers: 1, Metrics: reg})
	defer eng.Close()
	if c := in.core; c != nil {
		s := tr.begin(id, parent, "lang.parse")
		e, err := lang.Parse(c.src)
		tr.end(s)
		if err != nil {
			return verdict{}, err
		}
		env, err := coreEnv(c.env)
		if err != nil {
			return verdict{}, err
		}
		checker := core.New(core.Options{Engine: eng})
		s = tr.begin(id, parent, "core.check")
		var ty types.Type
		if c.mode == mix.StartSymbolic {
			ty, err = checker.CheckSymbolic(env, e)
		} else {
			ty, err = checker.Check(env, e)
		}
		tr.end(s)
		st := checker.Executor().Stats
		v := verdict{Paths: st.Paths, Queries: checker.Solver().Stats.SatQueries + int(eng.Snapshot().SolverQueries)}
		if fault.Degradable(err) {
			v.Degraded = true
		} else if err != nil {
			v.Error = err.Error()
		}
		if ty != nil {
			v.Type = ty.String()
		}
		for _, r := range checker.Reports {
			v.Reports = append(v.Reports, r.String())
		}
		eng.PublishMetrics()
		reg.Gauge("sym.paths").Set(int64(st.Paths))
		reg.Gauge("sym.merges").Set(int64(st.Merges))
		ls.add(reg)
		return v, nil
	}
	s := tr.begin(id, parent, "microc.parse")
	prog, err := microc.Parse(in.src)
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}
	merge, err := engine.ParseMergeMode("joins")
	if err != nil {
		return verdict{}, err
	}
	s = tr.begin(id, parent, "summary.precompute")
	sums := summary.NewStore("").Precompute(prog, 0)
	tr.end(s)
	c0, sh0, w0 := symexec.MemoryStats()
	s = tr.begin(id, parent, "mixy.run")
	a, err := mixy.Run(prog, mixy.Options{Merge: merge, Engine: eng, Summaries: sums})
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}
	c1, sh1, w1 := symexec.MemoryStats()
	v := verdict{Queries: a.Stats.SolverQueries, Degraded: a.Degraded() != nil}
	for _, w := range a.Warnings {
		v.Warnings = append(v.Warnings, w.String())
	}
	eng.PublishMetrics()
	for name, n := range map[string]int64{
		"mixy.blocks_analyzed":        int64(a.Stats.BlocksAnalyzed),
		"mixy.cache_hits":             int64(a.Stats.CacheHits),
		"mixy.fixpoint_iters":         int64(a.Stats.FixpointIters),
		"symexec.mem.clones":          c1 - c0,
		"symexec.mem.shared_cells":    sh1 - sh0,
		"symexec.mem.writes":          w1 - w0,
		"mixy.summaries.computed":     int64(sums.Computed),
		"mixy.summaries.instantiated": sums.Instantiated(),
		"mixy.summaries.fallbacks":    sums.Fallbacks(),
	} {
		reg.Gauge(name).Set(n)
	}
	ls.add(reg)
	return v, nil
}

// coreEnv builds the type environment in sorted order, as mix.Check
// does (fresh symbolic variable ids follow binding order).
func coreEnv(m map[string]string) (*types.Env, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	env := types.EmptyEnv()
	for _, name := range names {
		te, err := lang.ParseType(m[name])
		if err != nil {
			return nil, err
		}
		t, err := types.FromExpr(te)
		if err != nil {
			return nil, err
		}
		env = env.Extend(name, t)
	}
	return env, nil
}

//go:embed expected.json
var expectedJSON []byte

// expectation is one hand-written expected verdict.
type expectation struct {
	Accept      *bool    `json:"accept"`
	Type        string   `json:"type"`
	Paths       int      `json:"paths"`
	Warnings    *int     `json:"warnings"`
	MinWarnings int      `json:"min_warnings"`
	MaxWarnings *int     `json:"max_warnings"`
	Mentions    []string `json:"each_warning_mentions"`
	Via         []string `json:"each_warning_via"`
}

func (e expectation) check(v verdict) string {
	if e.Accept != nil && (v.Error == "") != *e.Accept {
		return fmt.Sprintf("accepted=%t, want %t (%s)", v.Error == "", *e.Accept, v.Error)
	}
	if e.Type != "" && v.Type != e.Type {
		return fmt.Sprintf("type %q, want %q", v.Type, e.Type)
	}
	if e.Paths != 0 && v.Paths != e.Paths {
		return fmt.Sprintf("%d paths, want %d", v.Paths, e.Paths)
	}
	if e.Warnings != nil && len(v.Warnings) != *e.Warnings {
		return fmt.Sprintf("%d warnings, want %d: %q", len(v.Warnings), *e.Warnings, v.Warnings)
	}
	if len(v.Warnings) < e.MinWarnings {
		return fmt.Sprintf("%d warnings, want at least %d", len(v.Warnings), e.MinWarnings)
	}
	if e.MaxWarnings != nil && len(v.Warnings) > *e.MaxWarnings {
		return fmt.Sprintf("%d warnings, want at most %d: %q", len(v.Warnings), *e.MaxWarnings, v.Warnings)
	}
	seen := map[string]bool{}
	for _, w := range v.Warnings {
		if len(e.Mentions) > 0 && !mentionsAny(w, e.Mentions) {
			return fmt.Sprintf("warning %q names none of %q", w, e.Mentions)
		}
		if len(e.Via) == 0 {
			continue
		}
		m := viaSource.FindStringSubmatch(w)
		if m == nil || !slices.Contains(e.Via, m[1]) {
			return fmt.Sprintf("warning %q has a null source outside %q", w, e.Via)
		}
		if m[1] != "NULL" && seen[m[1]] {
			return fmt.Sprintf("two warnings through %s", m[1])
		}
		seen[m[1]] = true
	}
	return ""
}

// viaSource is the null source a warning names: a variable, or NULL for
// a NULL literal (written NULL@line:col).
var viaSource = regexp.MustCompile(`\bvia ([A-Za-z_][A-Za-z_0-9]*)`)

func mentionsAny(s string, words []string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// catalog builds the inputs of every family, each with its reference:
// the hand-written expected.json for corpus programs, a concrete run for
// generated ones.
type catalog struct {
	core, microc map[string]expectation
	missing      []string
}

func newCatalog() (*catalog, error) {
	var exp struct {
		Core   map[string]expectation `json:"core"`
		MicroC map[string]expectation `json:"microc"`
	}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &catalog{core: exp.Core, microc: exp.MicroC}, nil
}

func (c *catalog) lookup(m map[string]expectation, key string) func(verdict) string {
	e, ok := m[key]
	if !ok {
		c.missing = append(c.missing, key)
	}
	return e.check
}

// err reports the corpus programs expected.json has no verdict for.
func (c *catalog) err() error {
	if len(c.missing) > 0 {
		return fmt.Errorf("expected.json has no verdict for %q", c.missing)
	}
	return nil
}

func (c *catalog) coreInput(name, key, src string, env [][2]string, mode mix.Mode) *input {
	ci := &coreInput{src: src, mode: mode, env: map[string]string{}}
	for _, p := range env {
		ci.env[p[0]] = p[1]
	}
	return &input{name: name, core: ci, ref: c.lookup(c.core, key)}
}

func (c *catalog) cInput(name, key, src string) *input {
	return &input{name: name, src: src, ref: c.lookup(c.microc, key)}
}

func (c *catalog) ladder(n int) *input {
	src, env := corpus.Ladder(n)
	name := fmt.Sprintf("ladder-%d", n)
	return c.coreInput(name, name, src, env, mix.StartSymbolic)
}

// deep is corpus.DeepConditionals(n) in its pure-symbolic form, which
// forks, and its mixed form, which does not.
func (c *catalog) deep(n int) (pure, mixed *input) {
	plain, mixedSrc, env := corpus.DeepConditionals(n)
	return c.coreInput(fmt.Sprintf("deep-%d-pure-symbolic", n), "deep-pure-symbolic", plain, env, mix.StartSymbolic),
		c.coreInput(fmt.Sprintf("deep-%d-mixed", n), "deep-mixed", mixedSrc, env, mix.StartTyped)
}

func (c *catalog) idioms() []*input {
	var ins []*input
	for _, id := range corpus.CoreIdioms {
		ins = append(ins, c.coreInput("idiom/"+id.Name, id.Name, id.Source, id.Env, mix.StartTyped))
	}
	return ins
}

// cases is the paper's four case studies and vsftpd-mini.
func (c *catalog) cases() []*input {
	var ins []*input
	for _, cs := range append(append([]corpus.Case(nil), corpus.Cases...), corpus.VsftpdMini) {
		ins = append(ins, c.cInput(cs.Name, cs.Name, cs.Source))
	}
	return ins
}

func (c *catalog) shared(k int) *input {
	return c.cInput(fmt.Sprintf("shared-2x%d", k), "shared-helpers", corpus.SharedHelpers(2, k))
}

// vsftpd is corpus.SyntheticVsftpd(n, k), judged by its expected.json
// entry and by a concrete run.
func (c *catalog) vsftpd(n, k int) (*input, error) {
	name := fmt.Sprintf("vsftpd-%dx%d", n, k)
	src := corpus.SyntheticVsftpd(n, k)
	concrete, ok := cexecOracle(src)
	if !ok {
		return nil, fmt.Errorf("%s: concrete run failed", name)
	}
	exp := c.lookup(c.microc, name)
	ref := func(v verdict) string {
		if msg := exp(v); msg != "" {
			return msg
		}
		return concrete(v)
	}
	return &input{name: name, src: src, ref: ref}, nil
}

// langgen draws n closed core programs that the concrete evaluator can
// run. Depth 3 keeps every one cheap beside the ladders, so the seed
// cannot swing the pool's cost.
func (c *catalog) langgen(seed int64, n int, prefix string) []*input {
	cfg := langgen.DefaultConfig()
	cfg.MaxDepth = 3
	gen := langgen.New(seed, cfg)
	var ins []*input
	for tries := 0; len(ins) < n && tries < 100*n; tries++ {
		src := gen.Closed().String()
		if ref, ok := concreteOracle(src); ok {
			ins = append(ins, &input{name: fmt.Sprintf("%slanggen-%d", prefix, len(ins)), core: &coreInput{src: src}, ref: ref})
		}
	}
	return ins
}

// cgen draws n MicroC programs with a symbolic entry and int helpers
// that the concrete interpreter can run. Three statements, not the
// generator's default eight, bound the cost tail: at six, about one
// program in three hundred runs for over a second; at four, one in six
// hundred ran for 200 ms, and in serve-mixed, then an open loop,
// thirty requests queued behind it; at three, none of 600 ran past
// 8 ms.
func (c *catalog) cgen(seed int64, n int, prefix string) []*input {
	cfg := cgen.DefaultConfig()
	cfg.SymbolicEntry = true
	cfg.IntHelpers = 2
	cfg.Stmts = cgenStmts
	gen := cgen.New(seed, cfg)
	var ins []*input
	for tries := 0; len(ins) < n && tries < 100*n; tries++ {
		src := explicitNull.ReplaceAllString(gen.Program(), "int *$1 = NULL;")
		if ref, ok := cexecOracle(src); ok {
			ins = append(ins, &input{name: fmt.Sprintf("%scgen-%d", prefix, len(ins)), src: src, ref: ref})
		}
	}
	return ins
}

// buildInputs generates core-explore's or mixy-solve's pool for seed, in the
// proportions described at the top of this file.
func buildInputs(workload string, seed int64) ([]*input, error) {
	c, err := newCatalog()
	if err != nil {
		return nil, err
	}
	var ins []*input
	switch workload {
	case "core-explore":
		for n := 8; n <= 11; n++ {
			for i := 0; i < ladderCopies[n]; i++ {
				ins = append(ins, c.ladder(n))
			}
		}
		for n := 8; n <= 10; n++ {
			pure, mixed := c.deep(n)
			ins = append(ins, pure, mixed)
		}
		ins = append(ins, c.idioms()...)
		ins = append(ins, c.langgen(seed, langgenPrograms, "")...)
	case "mixy-solve":
		for n := 8; n <= 14; n++ {
			for k := 1; k <= 3; k++ {
				copies := 1
				if n == anchorN && k == anchorK {
					copies = anchorCopies
				}
				for i := 0; i < copies; i++ {
					in, err := c.vsftpd(n, k)
					if err != nil {
						return nil, err
					}
					ins = append(ins, in)
				}
			}
		}
		ins = append(ins, c.cases()...)
		ins = append(ins, c.shared(3), c.shared(4))
		ins = append(ins, c.cgen(seed, cgenPrograms, "")...)
	default:
		return nil, fmt.Errorf("no pool for workload %q", workload)
	}
	return ins, c.err()
}

// explicitNull matches a pointer global without an initializer. The
// benchmark writes C's zero initialization out as "= NULL", which
// leaves the concrete semantics unchanged and lets MIXY's default mode,
// which tracks explicit NULLs, see the same null sources the concrete
// run does.
var explicitNull = regexp.MustCompile(`(?m)^int \*(g\d+);$`)

// concreteOracle evaluates a closed program with the big-step semantics
// of internal/concrete. A run-time type error means a sound checker
// must reject; an accepted program's type must hold the value.
func concreteOracle(src string) (func(verdict) string, bool) {
	e, err := lang.Parse(src)
	if err != nil {
		return nil, false
	}
	val, err := concrete.NewEvaluator().Eval(concrete.EmptyEnv(), concrete.NewMemory(), e)
	crashed := errors.Is(err, concrete.ErrTypeError)
	if err != nil && !crashed {
		return nil, false
	}
	return func(v verdict) string {
		switch accepted := v.Error == ""; {
		case crashed && accepted:
			return "accepted a program whose concrete run hits a type error"
		case accepted && !inhabits(val, v.Type):
			return fmt.Sprintf("accepted at type %s but the program evaluates to %s", v.Type, val)
		}
		return ""
	}, true
}

func inhabits(v concrete.Value, ty string) bool {
	switch v.(type) {
	case concrete.IntV:
		return ty == "int"
	case concrete.BoolV:
		return ty == "bool"
	case concrete.LocV:
		return strings.HasSuffix(ty, " ref")
	case concrete.ClosV:
		return strings.Contains(ty, "->")
	}
	return false
}

// cexecOracle runs a generated MicroC program concretely (generated
// programs are deterministic): a null dereference must be warned about.
func cexecOracle(src string) (func(verdict) string, bool) {
	prog, err := microc.Parse(src)
	if err != nil {
		return nil, false
	}
	_, err = cexec.New(prog, 1).Run("main")
	crashed := errors.Is(err, cexec.ErrNullDeref)
	if err != nil && !crashed {
		return nil, false
	}
	return func(v verdict) string {
		if crashed && len(v.Warnings) == 0 {
			return "no warning on a program whose concrete run dereferences null"
		}
		return ""
	}, true
}
