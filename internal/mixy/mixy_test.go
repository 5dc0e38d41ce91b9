package mixy

import (
	"strings"
	"testing"

	"mix/internal/corpus"
	"mix/internal/microc"
)

// analyze runs MIXY on src.
func analyze(t *testing.T, src string, opts Options) *Analysis {
	t.Helper()
	prog := mustParse(src)
	a, err := Run(prog, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return a
}

func nullWarnings(a *Analysis) []Warning {
	var out []Warning
	for _, w := range a.Warnings {
		if strings.Contains(w.Msg, "null") || strings.Contains(w.Msg, "nonnull") {
			out = append(out, w)
		}
	}
	return out
}

func fnptrWarnings(a *Analysis) []Warning {
	var out []Warning
	for _, w := range a.Warnings {
		if strings.Contains(w.Msg, "function pointer") {
			out = append(out, w)
		}
	}
	return out
}

func TestCase1(t *testing.T) {
	// Pure qualifier inference: false positive.
	base := analyze(t, corpus.Case1.Source, Options{IgnoreAnnotations: true})
	if len(nullWarnings(base)) == 0 {
		t.Fatalf("baseline should warn (flow/path insensitivity): %v", base.Warnings)
	}
	// MIXY with the MIX(symbolic) annotation: warning eliminated.
	mixed := analyze(t, corpus.Case1.Source, Options{})
	if got := nullWarnings(mixed); len(got) != 0 {
		t.Fatalf("MIXY should eliminate the warning, got %v", got)
	}
}

func TestCase2(t *testing.T) {
	base := analyze(t, corpus.Case2.Source, Options{IgnoreAnnotations: true})
	if len(nullWarnings(base)) == 0 {
		t.Fatalf("baseline should warn (context insensitivity): %v", base.Warnings)
	}
	mixed := analyze(t, corpus.Case2.Source, Options{})
	if got := nullWarnings(mixed); len(got) != 0 {
		t.Fatalf("MIXY should eliminate the warning, got %v", got)
	}
}

func TestCase3(t *testing.T) {
	base := analyze(t, corpus.Case3.Source, Options{IgnoreAnnotations: true})
	if len(nullWarnings(base)) == 0 {
		t.Fatalf("baseline should warn (two null sources): %v", base.Warnings)
	}
	mixed := analyze(t, corpus.Case3.Source, Options{})
	if got := nullWarnings(mixed); len(got) != 0 {
		t.Fatalf("MIXY should eliminate the warnings, got %v", got)
	}
	// The die() branch must have been proved unreachable: no
	// function-pointer failure.
	if got := fnptrWarnings(mixed); len(got) != 0 {
		t.Fatalf("gethostbyname model should keep die() unreachable: %v", got)
	}
}

func TestCase4(t *testing.T) {
	// Without the typed block: the executor hits the symbolic function
	// pointer.
	bare := analyze(t, corpus.Case4NoTyped.Source, Options{})
	if len(fnptrWarnings(bare)) == 0 {
		t.Fatalf("expected fnptr failure without typed block: %v", bare.Warnings)
	}
	// With MIX(typed) on sysutil_exit_BLOCK: analyzed conservatively.
	mixed := analyze(t, corpus.Case4.Source, Options{})
	if got := fnptrWarnings(mixed); len(got) != 0 {
		t.Fatalf("typed block should cover the fnptr call: %v", got)
	}
}

func TestVsftpdMiniCombined(t *testing.T) {
	// All four case patterns in one translation unit. MIXY reduces the
	// warning count but — faithfully to the paper's Section 4.6 — does
	// not reach zero: sockaddr_clear now has two calling contexts, and
	// the context-insensitive pointer analysis conflates its targets,
	// so the NULL written for &g_sock also pollutes p_addr.
	base := analyze(t, corpus.VsftpdMini.Source, Options{IgnoreAnnotations: true})
	if len(base.Warnings) < 2 {
		t.Fatalf("baseline should produce several warnings, got %v", base.Warnings)
	}
	mixed := analyze(t, corpus.VsftpdMini.Source, Options{})
	if len(mixed.Warnings) >= len(base.Warnings) {
		t.Fatalf("MIXY should reduce warnings: %d vs %d",
			len(mixed.Warnings), len(base.Warnings))
	}
	// The residual warnings must be the documented conflation, not a
	// regression of the individual cases.
	for _, w := range mixed.Warnings {
		if !strings.Contains(w.Msg, "p_addr") && !strings.Contains(w.Msg, "g_sock") {
			t.Fatalf("unexpected residual warning: %v", w)
		}
	}
	if mixed.Stats.BlocksAnalyzed < 3 {
		t.Fatalf("expected several symbolic blocks analyzed, stats %+v", mixed.Stats)
	}
}

func TestTruePositiveKept(t *testing.T) {
	// Case 1 with the null check removed is a real bug (cexec crashes
	// on it); the symbolic block must NOT suppress the warning.
	src := `
struct sockaddr { int family; };
void sysutil_free(void *nonnull p_ptr) MIX(typed) { return; }
void buggy_clear(struct sockaddr **p_sock) MIX(symbolic) {
  sysutil_free(*p_sock);
  *p_sock = NULL;
}
struct sockaddr *g_sock;
int main(void) {
  buggy_clear(&g_sock);
  return 0;
}
`
	a := analyze(t, src, Options{})
	if len(a.Warnings) == 0 {
		t.Fatal("UNSOUND: the real bug was suppressed")
	}
	found := false
	for _, w := range a.Warnings {
		if strings.Contains(w.Msg, "null-arg") || strings.Contains(w.Msg, "nonnull") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a nonnull violation warning, got %v", a.Warnings)
	}
}

func TestFixpointIterates(t *testing.T) {
	// A symbolic block that nulls a global used by a later typed call
	// forces at least two fixed-point iterations.
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int *g;
void blk(void) MIX(symbolic) {
  g = NULL;
}
int main(void) {
  blk();
  sink(g);
  return 0;
}
`
	a := analyze(t, src, Options{})
	if a.Stats.FixpointIters < 2 {
		t.Fatalf("expected ≥2 fixpoint iterations, got %d", a.Stats.FixpointIters)
	}
	// The discovered nullness must produce the warning in the typed
	// region.
	ws := nullWarnings(a)
	if len(ws) == 0 {
		t.Fatalf("g=NULL in symbolic block must reach sink: %v", a.Warnings)
	}
	if want := "(source: symbolic block blk leaves g possibly null)"; !strings.HasSuffix(ws[0].Msg, want) {
		t.Fatalf("warning %q does not end with the constraint's reason %q", ws[0].Msg, want)
	}
}

func TestSymbolicBlockRepairsNull(t *testing.T) {
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int *g;
void blk(void) MIX(symbolic) {
  g = NULL;
  g = malloc(sizeof(int));
}
int main(void) {
  blk();
  sink(g);
  return 0;
}
`
	a := analyze(t, src, Options{})
	if got := nullWarnings(a); len(got) != 0 {
		t.Fatalf("repaired null must not warn: %v", got)
	}
}

func TestCachingHits(t *testing.T) {
	// The same block called from many sites with the same context is
	// analyzed once.
	src := `
int *g;
void blk(void) MIX(symbolic) {
  g = malloc(sizeof(int));
}
void a(void) { blk(); }
void b(void) { blk(); }
void c(void) { blk(); }
int main(void) { a(); b(); c(); return 0; }
`
	withCache := analyze(t, src, Options{})
	if withCache.Stats.BlocksAnalyzed != 1 {
		t.Fatalf("BlocksAnalyzed = %d, want 1", withCache.Stats.BlocksAnalyzed)
	}
}

func TestCacheHitsOnTypedReentry(t *testing.T) {
	// Typed functions re-entering the same symbolic block with a
	// compatible context must hit the cache (Section 4.3).
	src := `
int *g;
void blk(void) MIX(symbolic) { g = NULL; g = malloc(sizeof(int)); }
void t0(void) MIX(typed) { blk(); }
void t1(void) MIX(typed) { blk(); }
void t2(void) MIX(typed) { blk(); }
void outer(void) MIX(symbolic) { t0(); t1(); t2(); }
int main(void) { outer(); return 0; }
`
	cached := analyze(t, src, Options{})
	if cached.Stats.CacheHits == 0 {
		t.Fatalf("expected cache hits, stats %+v", cached.Stats)
	}
	uncached := analyze(t, src, Options{NoCache: true})
	if uncached.Stats.BlocksAnalyzed <= cached.Stats.BlocksAnalyzed {
		t.Fatalf("cache must reduce analyses: %d vs %d",
			cached.Stats.BlocksAnalyzed, uncached.Stats.BlocksAnalyzed)
	}
}

func TestCacheDisabledReanalyzes(t *testing.T) {
	src := corpus.SyntheticVsftpd(6, 2)
	withCache := analyze(t, src, Options{})
	noCache := analyze(t, src, Options{NoCache: true})
	if noCache.Stats.BlocksAnalyzed < withCache.Stats.BlocksAnalyzed {
		t.Fatalf("cache off should analyze at least as many blocks: %d vs %d",
			noCache.Stats.BlocksAnalyzed, withCache.Stats.BlocksAnalyzed)
	}
	if withCache.Stats.CacheHits+withCache.Stats.CacheMisses == 0 {
		t.Fatal("cache statistics not recorded")
	}
}

func TestRecursionBetweenBlocks(t *testing.T) {
	// A symbolic block calls a typed function that calls the symbolic
	// block again (Section 4.4); analysis must terminate.
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
	a := analyze(t, src, Options{})
	if a.Stats.RecursionCuts == 0 {
		t.Fatalf("expected recursion to be detected, stats %+v", a.Stats)
	}
	// The block's effect must still be discovered.
	found := false
	for _, w := range a.Warnings {
		_ = w
	}
	g, _ := a.Prog.Global("g")
	if a.Inf.IsNull(a.Inf.VarQ(g).Ptr) {
		found = true
	}
	if !found {
		t.Fatal("g's nullness lost through recursion")
	}
}

func TestSyntheticScales(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		src := corpus.SyntheticVsftpd(8, k)
		a := analyze(t, src, Options{})
		if k == 0 && a.Stats.BlocksAnalyzed != 0 {
			t.Fatalf("k=0 should analyze no blocks: %+v", a.Stats)
		}
		if k > 0 && a.Stats.BlocksAnalyzed < k {
			t.Fatalf("k=%d: BlocksAnalyzed = %d", k, a.Stats.BlocksAnalyzed)
		}
	}
}

func TestSolverQueriesGrowWithBlocks(t *testing.T) {
	src0 := corpus.SyntheticVsftpd(8, 0)
	src2 := corpus.SyntheticVsftpd(8, 2)
	a0 := analyze(t, src0, Options{})
	a2 := analyze(t, src2, Options{})
	if a2.Stats.SolverQueries <= a0.Stats.SolverQueries {
		t.Fatalf("symbolic blocks must cost solver queries: %d vs %d",
			a0.Stats.SolverQueries, a2.Stats.SolverQueries)
	}
}

func TestEntryMissing(t *testing.T) {
	prog := mustParse("int f(void) { return 0; }")
	if _, err := Run(prog, Options{}); err == nil {
		t.Fatal("missing main should error")
	}
}

func TestSymbolicEntry(t *testing.T) {
	// Starting in symbolic mode (entry annotated MIX(symbolic)).
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int main(void) MIX(symbolic) {
  int *p = NULL;
  if (p != NULL) {
    sink(p);
  }
  return 0;
}
`
	a := analyze(t, src, Options{})
	if got := nullWarnings(a); len(got) != 0 {
		t.Fatalf("guarded call must not warn: %v", got)
	}
}

func TestSymbolicEntryUnguarded(t *testing.T) {
	src := `
void sink(int *nonnull q) MIX(typed) { return; }
int main(void) MIX(symbolic) {
  int *p = NULL;
  sink(p);
  return 0;
}
`
	a := analyze(t, src, Options{})
	if got := nullWarnings(a); len(got) == 0 {
		t.Fatalf("unguarded null argument must warn: %v", a.Warnings)
	}
}

// mustParse parses a MicroC test fixture, panicking on error; the
// library itself reports parse errors through the normal return path,
// fixtures are expected to be valid.
func mustParse(src string) *microc.Program {
	prog, err := microc.Parse(src)
	if err != nil {
		panic("bad MicroC fixture: " + err.Error())
	}
	return prog
}
