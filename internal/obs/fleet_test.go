package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// This suite pins the registry primitives behind aggregation and
// exposition: Merge's commutativity (a harness folds per-check
// registries in whatever order it gets them), RemovePrefix, and the
// Prometheus exposition rendering.

// fleetSnapshots builds two overlapping per-check snapshots.
func fleetSnapshots() (MetricsSnapshot, MetricsSnapshot) {
	a := NewRegistry()
	a.Counter("shared.counter").Add(3)
	a.Counter("only.a").Add(1)
	a.Gauge("shared.gauge").Set(10)
	a.Histogram("shared.hist").Observe(100)
	a.Histogram("shared.hist").Observe(5000)

	b := NewRegistry()
	b.Counter("shared.counter").Add(4)
	b.Gauge("shared.gauge").Set(32)
	b.Gauge("only.b").Set(7)
	b.Histogram("shared.hist").Observe(120)
	return a.Snapshot(), b.Snapshot()
}

func TestMergeIsCommutative(t *testing.T) {
	sa, sb := fleetSnapshots()
	ab := NewRegistry()
	ab.Merge(sa)
	ab.Merge(sb)
	ba := NewRegistry()
	ba.Merge(sb)
	ba.Merge(sa)
	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatalf("merge order changed the result:\nA,B: %+v\nB,A: %+v", ab.Snapshot(), ba.Snapshot())
	}
}

func TestMergeAddsEveryKind(t *testing.T) {
	sa, sb := fleetSnapshots()
	r := NewRegistry()
	r.Gauge("shared.gauge").Set(5) // pre-existing local reading
	r.Merge(sa)
	r.Merge(sb)
	if v := r.Counter("shared.counter").Value(); v != 7 {
		t.Fatalf("shared.counter = %d, want 3+4", v)
	}
	if v := r.Counter("only.a").Value(); v != 1 {
		t.Fatalf("only.a = %d, want 1", v)
	}
	// Gauges sum under merge: every published gauge is a run total, so
	// the merged reading is the sum of every registry's.
	if v := r.Gauge("shared.gauge").Value(); v != 5+10+32 {
		t.Fatalf("shared.gauge = %d, want 5+10+32", v)
	}
	if v := r.Gauge("only.b").Value(); v != 7 {
		t.Fatalf("only.b = %d, want 7", v)
	}
	h := r.Histogram("shared.hist")
	if h.Count() != 3 || h.Sum() != 100+5000+120 {
		t.Fatalf("shared.hist count=%d sum=%d, want 3 and %d", h.Count(), h.Sum(), 100+5000+120)
	}
	// Bucket-level addition: two observations landed below 256 and one
	// at 5000; a snapshot of the merged registry must see both buckets.
	var m Metric
	for _, mm := range r.Snapshot().Metrics {
		if mm.Name == "shared.hist" {
			m = mm
		}
	}
	if m.Buckets[0] != 2 || m.Buckets[bucketFor(5000)] != 1 {
		t.Fatalf("merged buckets = %v, want 2 low + 1 at bucket %d", m.Buckets, bucketFor(5000))
	}
}

func TestMergeNilRegistryIsInert(t *testing.T) {
	var r *Registry
	sa, _ := fleetSnapshots()
	r.Merge(sa) // must not panic
	if n := r.RemovePrefix("shared."); n != 0 {
		t.Fatalf("nil RemovePrefix = %d, want 0", n)
	}
}

func TestRemovePrefixDropsOnlyMatches(t *testing.T) {
	r := NewRegistry()
	r.Counter("tenant.a.requests").Inc()
	r.Gauge("tenant.a.inflight").Set(1)
	r.Histogram("tenant.a.latency").Observe(5)
	r.Counter("tenant.ab.requests").Inc()
	r.Counter("global.requests").Inc()
	if n := r.RemovePrefix("tenant.a."); n != 3 {
		t.Fatalf("removed %d, want the 3 tenant.a. metrics", n)
	}
	var names []string
	for _, m := range r.Snapshot().Metrics {
		names = append(names, m.Name)
	}
	want := []string{"global.requests", "tenant.ab.requests"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("survivors = %v, want %v", names, want)
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"engine.paths":        "engine_paths",
		"fault.cache-corrupt": "fault_cache_corrupt",
		"solver.query.ns":     "solver_query_ns",
		"0weird":              "_0weird",
		"ok_name:x":           "ok_name:x",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePromExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.rejected").Add(3)
	r.Gauge("engine.paths").Set(12)
	h := r.Histogram("solver.query.ns")
	h.Observe(100)  // bucket 0
	h.Observe(100)  // bucket 0
	h.Observe(2000) // bucket 3
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	// Every family gets # HELP then # TYPE, and families are sorted by
	// exposition name.
	var families []string
	for i, l := range lines {
		if strings.HasPrefix(l, "# HELP ") {
			fam := strings.Fields(l)[2]
			families = append(families, fam)
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+fam+" ") {
				t.Fatalf("HELP for %s not followed by its TYPE line", fam)
			}
		}
	}
	want := []string{"engine_paths", "serve_rejected", "solver_query_ns"}
	if !reflect.DeepEqual(families, want) {
		t.Fatalf("families = %v, want sorted %v", families, want)
	}

	for _, mustHave := range []string{
		"# TYPE serve_rejected counter\n",
		"serve_rejected 3\n",
		"# TYPE engine_paths gauge\n",
		"engine_paths 12\n",
		"# TYPE solver_query_ns histogram\n",
		// Cumulative buckets with exact integer le bounds: bucket 0 is
		// [0,256), so le="255" holds both sub-256 observations; by
		// bucket 3 ([1024,2048), le="2047") all three are in.
		"solver_query_ns_bucket{le=\"255\"} 2\n",
		"solver_query_ns_bucket{le=\"2047\"} 3\n",
		"solver_query_ns_bucket{le=\"+Inf\"} 3\n",
		"solver_query_ns_sum 2200\n",
		"solver_query_ns_count 3\n",
	} {
		if !strings.Contains(out, mustHave) {
			t.Fatalf("exposition output missing %q:\n%s", mustHave, out)
		}
	}

	// Deterministic rendering: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two renderings of the same state differ")
	}
}
