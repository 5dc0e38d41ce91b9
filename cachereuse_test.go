package mix

import (
	"fmt"
	"testing"

	"mix/internal/corpus"
	"mix/internal/engine"
)

// reuseSrc has type errors on infeasible paths guarded by two-variable
// inequalities: the report-feasibility checks escape the interval fast
// path and exercise the memo, so a warm rerun can actually hit it.
const reuseSrc = `{s if x < y then (if y < x then {t 1 + true t} else 1)
	else (if y < x then 2 else (if x < y then {t 1 + true t} else 3)) s}`

var reuseEnv = map[string]string{"x": "int", "y": "int"}

// verdictKey flattens everything verdict-bearing about a Result —
// type, error, findings, and path/merge counts — leaving out the
// cache/timing statistics that legitimately differ warm vs cold.
func verdictKey(r Result) string {
	errs := ""
	if r.Err != nil {
		errs = r.Err.Error()
	}
	return fmt.Sprintf("type=%q err=%q reports=%q paths=%d merges=%d degraded=%v fault=%q",
		r.Type, errs, r.Reports, r.Paths, r.Merges, r.Degraded, r.Fault)
}

func cVerdictKey(r CResult) string {
	return fmt.Sprintf("warnings=%q merges=%d degraded=%v fault=%q",
		r.Warnings, r.Merges, r.Degraded, r.Fault)
}

// TestCheckCacheReuse pins the warm-serving contract on the core
// language: two back-to-back checks sharing an engine.Cache return
// byte-identical verdicts to a cold check, and the second run's memo
// hit counter strictly increases (it answered from the shared cache).
func TestCheckCacheReuse(t *testing.T) {
	mkCfg := func(c *engine.Cache) Config {
		return Config{Mode: StartSymbolic, Env: reuseEnv, Workers: 1, Cache: c}
	}

	cold := Check(reuseSrc, Config{Mode: StartSymbolic, Env: reuseEnv, Workers: 1})
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.MemoMisses == 0 {
		t.Fatalf("cold run has no memo traffic (misses=0); the corpus no longer exercises the cache")
	}

	cache := engine.NewCache(engine.CacheOptions{})
	first := Check(reuseSrc, mkCfg(cache))
	second := Check(reuseSrc, mkCfg(cache))

	if got, want := verdictKey(first), verdictKey(cold); got != want {
		t.Fatalf("first shared-cache run diverged from cold:\n got %s\nwant %s", got, want)
	}
	if got, want := verdictKey(second), verdictKey(cold); got != want {
		t.Fatalf("warm shared-cache run diverged from cold:\n got %s\nwant %s", got, want)
	}
	if second.MemoHits <= first.MemoHits {
		t.Fatalf("warm MemoHits = %d, want strictly more than first run's %d",
			second.MemoHits, first.MemoHits)
	}
	cs := cache.Stats()
	if cs.MemoHits == 0 || cs.MemoEntries == 0 {
		t.Fatalf("cache lifetime stats = %+v, want hits and entries after two runs", cs)
	}
}

// TestAnalyzeCCacheReuse is the MicroC twin: a shared cache across two
// AnalyzeC runs leaves warnings byte-identical and strictly increases
// the combined memo+counterexample hit count.
func TestAnalyzeCCacheReuse(t *testing.T) {
	src, entry := corpus.VsftpdMini.Source, corpus.VsftpdMini.Entry
	mkCfg := func(c *engine.Cache) CConfig {
		return CConfig{Workers: 1, Entry: entry, Cache: c}
	}

	cold, err := AnalyzeC(src, CConfig{Workers: 1, Entry: entry})
	if err != nil {
		t.Fatal(err)
	}
	if cold.MemoMisses == 0 {
		t.Fatalf("cold run has no memo traffic (misses=0); the corpus no longer exercises the cache")
	}

	cache := engine.NewCache(engine.CacheOptions{})
	first, err := AnalyzeC(src, mkCfg(cache))
	if err != nil {
		t.Fatal(err)
	}
	second, err := AnalyzeC(src, mkCfg(cache))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := cVerdictKey(first), cVerdictKey(cold); got != want {
		t.Fatalf("first shared-cache run diverged from cold:\n got %s\nwant %s", got, want)
	}
	if got, want := cVerdictKey(second), cVerdictKey(cold); got != want {
		t.Fatalf("warm shared-cache run diverged from cold:\n got %s\nwant %s", got, want)
	}
	if second.MemoHits+second.CexHits <= first.MemoHits+first.CexHits {
		t.Fatalf("warm memo+cex hits = %d+%d, want strictly more than first run's %d+%d",
			second.MemoHits, second.CexHits, first.MemoHits, first.CexHits)
	}
}
