package obs

import (
	"io"
	"testing"
)

// TestNilReceiversAllocateNothing pins what "disabled instrumentation
// is nil checks only" means: with no tracer and no registry, every
// call the instrumented code makes returns without allocating.
// WriteJSON and WriteProm are left out: they render a document (an
// empty one on nil) once at exit, not per event.
func TestNilReceiversAllocateNothing(t *testing.T) {
	var (
		tr *Tracer
		sp *Span
		r  *Registry
		c  *Counter
		g  *Gauge
		h  *Histogram
	)
	for name, call := range map[string]func(){
		"Tracer.Deterministic":  func() { _ = tr.Deterministic() },
		"Tracer.Now":            func() { _ = tr.Now() },
		"Tracer.Dropped":        func() { _ = tr.Dropped() },
		"Tracer.Root":           func() { _ = tr.Root("f") },
		"Tracer.Events":         func() { _ = tr.Events() },
		"Tracer.WriteJSONL":     func() { _ = tr.WriteJSONL(io.Discard) },
		"Span.Child":            func() { _ = sp.Child() },
		"Span.Path":             func() { _ = sp.Path() },
		"Span.Fork":             func() { sp.Fork(2) },
		"Span.Join":             func() { sp.Join() },
		"Span.Solve":            func() { sp.Solve("sat", 10) },
		"Span.Stage":            func() { sp.Stage("search", "sat", 10) },
		"Span.MemoHit":          func() { sp.MemoHit() },
		"Span.CexHit":           func() { sp.CexHit() },
		"Span.Merge":            func() { sp.Merge("site", 3, 1) },
		"Span.Degrade":          func() { sp.Degrade("timeout", "x") },
		"Span.Emit":             func() { sp.Emit(Event{Kind: KindIter}) },
		"Registry.Counter":      func() { _ = r.Counter("a") },
		"Registry.Gauge":        func() { _ = r.Gauge("b") },
		"Registry.Histogram":    func() { _ = r.Histogram("c") },
		"Registry.Merge":        func() { r.Merge(MetricsSnapshot{}) },
		"Registry.RemovePrefix": func() { _ = r.RemovePrefix("a") },
		"Registry.Snapshot":     func() { _ = r.Snapshot() },
		"Registry.WriteStats":   func() { _ = r.WriteStats(io.Discard) },
		"Counter.Add":           func() { c.Add(5) },
		"Counter.Inc":           func() { c.Inc() },
		"Counter.Value":         func() { _ = c.Value() },
		"Gauge.Set":             func() { g.Set(7) },
		"Gauge.Add":             func() { g.Add(7) },
		"Gauge.Max":             func() { g.Max(9) },
		"Gauge.Value":           func() { _ = g.Value() },
		"Histogram.Observe":     func() { h.Observe(100) },
		"Histogram.Count":       func() { _ = h.Count() },
		"Histogram.Sum":         func() { _ = h.Sum() },
	} {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("nil %s: %v allocations per call, want 0", name, n)
		}
	}
}
