// Package obs is the unified observability layer of the analysis
// stack: a typed metrics registry, a structured event tracer, and the
// rendering helpers behind the -stats/-metrics/-trace flags.
//
// It is a zero-dependency leaf (standard library only), like
// internal/fault, so the engine, the solver pipeline, both executors,
// and MIXY can all record into one substrate without import cycles.
//
// Three design rules govern the package:
//
//   - Nil is off. A nil *Registry hands out nil handles, and every
//     method on a nil handle is an inert no-op, so instrumented code
//     pays one pointer test when observability is disabled — the same
//     contract as a nil *engine.Engine or a nil *fault.Counters.
//
//   - Names are dotted paths ("engine.forks", "solver.stage.dpll.ns")
//     and every snapshot is sorted by name, so two renderings of the
//     same state are byte-identical and the -stats output of mix and
//     mixy share one stable schema.
//
//   - Recording is lock-free (atomics); only registration and
//     snapshotting take the registry lock. Handles are meant to be
//     looked up once and cached in struct fields.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricsSchemaVersion stamps metrics snapshots; bump on any change to
// the snapshot shape.
const MetricsSchemaVersion = 1

// Counter is a monotone counter. All methods are safe for concurrent
// use and inert on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value. All methods are safe
// for concurrent use and inert on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add increments the gauge by n. Gauges are last-write-wins for
// owners that Set them; Add exists for Registry.Merge, where a gauge
// that records a run total (paths explored, forks charged) must
// accumulate across the merged registries.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Max raises the gauge to v if v is larger (CAS loop).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every Histogram. Buckets
// are exponential: bucket i counts observations in
// [256·2^(i-1), 256·2^i) ns-scale units, with bucket 0 holding
// everything below 256 and the last bucket open-ended. 24 doublings
// from 256ns reach ~2.1s, which brackets every per-query duration the
// stack produces.
const histBuckets = 24

// histBase is the upper bound of bucket 0.
const histBase = 256

// Histogram is a fixed-bucket histogram (counts, sum, total). All
// methods are safe for concurrent use and inert on a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps an observation to its bucket index.
func bucketFor(v int64) int {
	if v < histBase {
		return 0
	}
	// 256 = 1<<8; doublings beyond it index the remaining buckets.
	b := bits.Len64(uint64(v)) - 8
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketFor(v)].Add(1)
}

// Count reports the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds metrics by dotted name. Construct with NewRegistry; a
// nil *Registry hands out nil (inert) handles, so callers can thread
// one pointer and never branch. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry: package-scoped instrumentation
// with no run to attach to (e.g. the symbolic executor's memory-fork
// counters) registers here. Run-scoped metrics belong in a per-run
// registry (engine.Options.Metrics).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Merge folds a snapshot from another registry (typically one check's)
// into this one: counters and histograms (counts, sums, buckets) add,
// and gauges add too — every gauge the analysis stack publishes is a
// run total (paths, forks, solver query time), so summing per-check
// readings reconstructs the total over all of them. Adding is
// commutative and associative, so merging snapshots in any order
// yields the same registry state; a benchmark harness relies on that
// to sum the registries of many checks. A nil registry ignores the
// merge.
func (r *Registry) Merge(s MetricsSnapshot) {
	if r == nil {
		return
	}
	for _, m := range s.Metrics {
		switch m.Type {
		case "counter":
			r.Counter(m.Name).Add(m.Value)
		case "gauge":
			r.Gauge(m.Name).Add(m.Value)
		case "histogram":
			h := r.Histogram(m.Name)
			h.count.Add(m.Count)
			h.sum.Add(m.Sum)
			for i, b := range m.Buckets {
				if i >= histBuckets {
					break
				}
				h.buckets[i].Add(b)
			}
		}
	}
}

// RemovePrefix drops every metric whose dotted name starts with
// prefix and reports how many were removed. Cached handles to removed
// metrics keep working but record into orphans the next snapshot no
// longer sees — callers that evict (the per-tenant serving metrics)
// must re-look-up handles after eviction.
func (r *Registry) RemovePrefix(prefix string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.counters {
		if strings.HasPrefix(name, prefix) {
			delete(r.counters, name)
			n++
		}
	}
	for name := range r.gauges {
		if strings.HasPrefix(name, prefix) {
			delete(r.gauges, name)
			n++
		}
	}
	for name := range r.hists {
		if strings.HasPrefix(name, prefix) {
			delete(r.hists, name)
			n++
		}
	}
	return n
}

// Metric is one snapshotted metric. For counters and gauges Value
// holds the reading; for histograms Count/Sum/Buckets do.
type Metric struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"` // "counter", "gauge", "histogram"
	Value   int64   `json:"value,omitempty"`
	Count   int64   `json:"count,omitempty"`
	Sum     int64   `json:"sum,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// MetricsSnapshot is a point-in-time copy of a registry, sorted by
// metric name.
type MetricsSnapshot struct {
	SchemaVersion int      `json:"schema_version"`
	Metrics       []Metric `json:"metrics"`
}

// Snapshot copies the registry's current state, sorted by name. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{SchemaVersion: MetricsSchemaVersion}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Metrics = append(s.Metrics, Metric{Name: name, Type: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Metrics = append(s.Metrics, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Type: "histogram", Count: h.count.Load(), Sum: h.sum.Load()}
		// Trailing zero buckets are trimmed so snapshots stay compact;
		// bucket i's bound is implicit (256·2^i ns-scale units).
		last := -1
		var buckets [histBuckets]int64
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] != 0 {
				last = i
			}
		}
		if last >= 0 {
			m.Buckets = append(m.Buckets, buckets[:last+1]...)
		}
		s.Metrics = append(s.Metrics, m)
	}
	r.mu.Unlock()
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON (sorted by name, so
// two writes of the same state are byte-identical).
func (r *Registry) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// WriteStats renders the snapshot as the unified -stats schema shared
// by mix and mixy: one "name value" line per metric, sorted by name.
// Histograms render as two derived scalars, "<name>.count" and
// "<name>.sum". The schema is documented in README.md ("Statistics
// and metrics").
func (r *Registry) WriteStats(w io.Writer) error {
	for _, m := range r.Snapshot().Metrics {
		var err error
		if m.Type == "histogram" {
			_, err = fmt.Fprintf(w, "%s.count %d\n%s.sum %d\n", m.Name, m.Count, m.Name, m.Sum)
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
