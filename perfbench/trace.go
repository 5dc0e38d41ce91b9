package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mix/internal/obs"
)

// span is one timed layer call. The spans of one check share its id;
// parent indexes the enclosing span, -1 for the check itself.
type span struct {
	Check  int    `json:"check"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory; write saves them at the end.
// begin and end may be called from several clients at once.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(check, parent int, name string) int {
	s := span{Check: check, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// layerTime is one span name's summed busy time and self time (busy
// minus the child spans inside it).
type layerTime struct{ busy, self time.Duration }

func (t *tracer) layers() map[string]layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.busy += s.dur()
		lt.self += s.dur() - child[i]
		out[s.Name] = lt
	}
	return out
}

// coverage is the share of the checks' time that the layer spans
// directly inside them cover.
func (t *tracer) coverage() float64 {
	var total, covered time.Duration
	for _, s := range t.spans {
		switch {
		case s.Parent < 0:
			total += s.dur()
		case t.spans[s.Parent].Parent < 0:
			covered += s.dur()
		}
	}
	return ratio(float64(covered), float64(total), 0)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats merges the traced checks' metric registries. Merging adds
// gauges, and every gauge the program publishes is a run total, so the
// merged registry holds sums over the traced checks.
type layerStats struct {
	reg      *obs.Registry
	checks   int
	maxSlice int64
}

func newLayerStats() *layerStats { return &layerStats{reg: obs.NewRegistry()} }

func (ls *layerStats) add(reg *obs.Registry) {
	ls.checks++
	ls.maxSlice = max(ls.maxSlice, reg.Gauge("solver.max_slice").Value())
	ls.reg.Merge(reg.Snapshot())
}

// perLayer is every per-layer metric, in BENCHMARK.json order. A layer
// the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"lang.parse_ms", "ms"},
	{"core.check_ms", "ms"},
	{"core.self_ms", "ms"},
	{"sym.paths", "count"},
	{"sym.merges", "count"},
	{"engine.forks", "count"},
	{"microc.parse_ms", "ms"},
	{"summary.precompute_ms", "ms"},
	{"summary.computed", "count"},
	{"summary.instantiated", "count"},
	{"summary.fallbacks", "count"},
	{"mixy.run_ms", "ms"},
	{"mixy.self_ms", "ms"},
	{"mixy.blocks_analyzed", "count"},
	{"mixy.block_cache_hits", "count"},
	{"mixy.fixpoint_iters", "count"},
	{"symexec.mem.clones", "count"},
	{"symexec.mem.shared_cells", "count"},
	{"symexec.mem.writes", "count"},
	{"solver.queries", "count"},
	{"solver.quick_frac", "ratio"},
	{"solver.slices", "count"},
	{"solver.max_slice", "count"},
	{"solver.memo_hit_frac", "ratio"},
	{"solver.cex_hit_frac", "ratio"},
	{"solver.time_ms", "ms"},
	{"solver.query_p50_us", "us"},
	{"solver.search_ms", "ms"},
	{"serve.rtt_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.verdict_hit_frac", "ratio"},
	{"serve.solvercache.memo_hit_frac", "ratio"},
	{"serve.solvercache.memo_entries", "count"},
	{"serve.solvercache.evictions", "count"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"go.alloc_mb_per_check", "MiB"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics derives the per-layer metrics, per traced check, from the
// spans and the merged registries.
func layerMetrics(tr *tracer, ls *layerStats) map[string]float64 {
	n := float64(ls.checks)
	sum := func(name string) float64 { return float64(ls.reg.Gauge(name).Value()) }
	per := func(name string) float64 { return sum(name) / n }
	lts := tr.layers()
	spanMs := func(name string) float64 { return ms(lts[name].busy) / n }
	solverMs := sum("solver.time_ns") / 1e6 / n
	m := map[string]float64{
		"lang.parse_ms":            spanMs("lang.parse"),
		"core.check_ms":            spanMs("core.check"),
		"microc.parse_ms":          spanMs("microc.parse"),
		"summary.precompute_ms":    spanMs("summary.precompute"),
		"mixy.run_ms":              spanMs("mixy.run"),
		"sym.paths":                per("sym.paths"),
		"sym.merges":               per("sym.merges"),
		"engine.forks":             per("engine.forks"),
		"summary.computed":         per("mixy.summaries.computed"),
		"summary.instantiated":     per("mixy.summaries.instantiated"),
		"summary.fallbacks":        per("mixy.summaries.fallbacks"),
		"mixy.blocks_analyzed":     per("mixy.blocks_analyzed"),
		"mixy.block_cache_hits":    per("mixy.cache_hits"),
		"mixy.fixpoint_iters":      per("mixy.fixpoint_iters"),
		"symexec.mem.clones":       per("symexec.mem.clones"),
		"symexec.mem.shared_cells": per("symexec.mem.shared_cells"),
		"symexec.mem.writes":       per("symexec.mem.writes"),
		"solver.queries":           per("solver.queries"),
		"solver.quick_frac":        ratio(sum("solver.quick"), sum("solver.queries"), 0),
		"solver.slices":            per("solver.slices"),
		"solver.max_slice":         float64(ls.maxSlice),
		"solver.memo_hit_frac":     ratio(sum("solver.memo.hits"), sum("solver.memo.hits")+sum("solver.memo.misses"), 0),
		"solver.cex_hit_frac":      ratio(sum("solver.cex_hits"), sum("solver.slices"), 0),
		"solver.time_ms":           solverMs,
		"solver.query_p50_us":      histQuantile(ls.reg, "solver.query.ns", 0.5) / 1e3,
		// The program's solver.dpll.ns histogram times the CDCL search.
		"solver.search_ms": float64(ls.reg.Histogram("solver.dpll.ns").Sum()) / 1e6 / n,
	}
	// Self time of an analysis layer is its span minus the solver time
	// spent inside it.
	if m["core.check_ms"] > 0 {
		m["core.self_ms"] = m["core.check_ms"] - solverMs
	}
	if m["mixy.run_ms"] > 0 {
		m["mixy.self_ms"] = m["mixy.run_ms"] - solverMs
	}
	return m
}

// histQuantile estimates the q-quantile of a registry histogram,
// interpolating inside the bucket that holds it (bucket i > 0 spans
// [256·2^(i-1), 256·2^i), bucket 0 everything below 256).
func histQuantile(reg *obs.Registry, name string, q float64) float64 {
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != name || m.Count == 0 {
			continue
		}
		target := q * float64(m.Count)
		var cum float64
		for i, b := range m.Buckets {
			if b > 0 && cum+float64(b) >= target {
				lo, hi := 0.0, 256.0
				if i > 0 {
					lo = 256 * math.Exp2(float64(i-1))
					hi = 2 * lo
				}
				return lo + (hi-lo)*(target-cum)/float64(b)
			}
			cum += float64(b)
		}
	}
	return 0
}
