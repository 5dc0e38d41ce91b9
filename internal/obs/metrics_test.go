package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Max(9)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %d metrics", len(got.Metrics))
	}
	var buf bytes.Buffer
	if err := r.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry stats must be empty, got %q", buf.String())
	}
}

func TestRegistryGetOrCreateIsStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return same counter")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("same name must return same gauge")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatal("same name must return same histogram")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.forks")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("engine.max_slice")
	g.Set(3)
	g.Max(10)
	g.Max(2)
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10", g.Value())
	}
	h := r.Histogram("solver.query.ns")
	h.Observe(100)     // bucket 0 (<256)
	h.Observe(300)     // bucket 1
	h.Observe(1 << 40) // clamps into last bucket
	h.Observe(-5)      // clamps to 0
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 100+300+(1<<40) {
		t.Fatalf("hist sum = %d", h.Sum())
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {255, 0}, {256, 1}, {511, 1}, {512, 2}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Gauge("a.first").Set(2)
	r.Histogram("m.mid").Observe(300)
	s := r.Snapshot()
	if len(s.Metrics) != 3 {
		t.Fatalf("got %d metrics, want 3", len(s.Metrics))
	}
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i-1].Name >= s.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s.Metrics[i-1].Name, s.Metrics[i].Name)
		}
	}
	var one, two bytes.Buffer
	if err := r.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("two snapshots of the same state must be byte-identical")
	}
	if !strings.Contains(one.String(), `"schema_version": 1`) {
		t.Fatalf("snapshot missing schema_version: %s", one.String())
	}
}

func TestWriteStatsSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("a.val").Set(1)
	r.Histogram("c.ns").Observe(1000)
	var buf bytes.Buffer
	if err := r.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a.val 1\nb.count 2\nc.ns.count 1\nc.ns.sum 1000\n"
	if buf.String() != want {
		t.Fatalf("stats schema mismatch:\ngot:  %q\nwant: %q", buf.String(), want)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Max(int64(j))
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Fatalf("gauge max = %d, want 999", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}
