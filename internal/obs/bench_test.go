package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkTracerEmit emits solve events through one span of a timed
// tracer, the most expensive mode: a clock read and a global sequence
// number per event.
func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(TraceOptions{Cap: 1 << 20})
	sp := tr.Root("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Solve("sat", 1)
	}
}

// BenchmarkRegistrySnapshot snapshots a registry holding the few dozen
// series a mix or mixy run registers.
func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 48; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i))
		reg.Gauge(fmt.Sprintf("bench.gauge.%02d", i)).Set(int64(i))
	}
	for i := 0; i < 8; i++ {
		reg.Histogram(fmt.Sprintf("bench.hist.%02d", i)).Observe(int64(i) << 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Snapshot()
	}
}

// BenchmarkPromRender renders the Prometheus exposition of a busy
// daemon's registry: 48 engine series plus the RED series of 256
// tenants.
func BenchmarkPromRender(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 48; i++ {
		reg.Counter(fmt.Sprintf("engine.counter.%02d", i)).Add(int64(i + 1))
	}
	for t := 0; t < 256; t++ {
		stem := fmt.Sprintf("serve.tenant.t%03d.", t)
		reg.Counter(stem + "requests").Add(100)
		reg.Counter(stem + "errors").Add(1)
		reg.Histogram(stem + "latency.ns").Observe(int64(t+1) << 10)
	}
	snap := reg.Snapshot()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePromSnapshot(&buf, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
