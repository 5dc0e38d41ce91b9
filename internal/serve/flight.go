package serve

import (
	"encoding/json"
	"io"
	"sync"
)

// FlightEntry is one request's summary in the flight recorder: enough
// to reconstruct what the daemon was doing in its last moments (or
// minutes) without a tracing run — who asked, what came back, how
// long it took, and which fault class degraded it.
type FlightEntry struct {
	// TNs is the request's arrival time (unix nanoseconds).
	TNs int64 `json:"t_unix_ns"`
	// Tenant is the admission bucket ("" when the request never got as
	// far as naming one — e.g. an undecodable body).
	Tenant string `json:"tenant,omitempty"`
	// Kind is "core" or "microc".
	Kind string `json:"kind"`
	// Status is the HTTP status answered.
	Status int `json:"status"`
	// Verdict summarizes a 200: "ok", "reject" (the analysis rejected
	// the program), or "degraded". Empty on non-200s — the status
	// carries the story there.
	Verdict string `json:"verdict,omitempty"`
	// Fault is the fault class of a degraded verdict.
	Fault string `json:"fault,omitempty"`
	// Cached reports a verdict-cache hit.
	Cached bool `json:"cached,omitempty"`
	// LatencyNS is the server-side processing time.
	LatencyNS int64 `json:"latency_ns"`
}

// defaultFlightSize is the default ring capacity: at a sustained
// 100 req/s it holds the last ~10 seconds, and it costs ~100KB.
const defaultFlightSize = 1024

// flightRecorder is a bounded, always-on ring of recent request
// summaries. Recording is one mutex-protected slot write — cheap
// enough to stay on for every request — and the dump walks the ring
// oldest-first. A nil recorder is inert.
type flightRecorder struct {
	mu  sync.Mutex
	buf []FlightEntry
	n   int64 // total entries ever recorded
}

// newFlightRecorder sizes a recorder: 0 means defaultFlightSize,
// negative disables (returns nil).
func newFlightRecorder(size int) *flightRecorder {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = defaultFlightSize
	}
	return &flightRecorder{buf: make([]FlightEntry, size)}
}

func (f *flightRecorder) record(e FlightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.n%int64(len(f.buf))] = e
	f.n++
	f.mu.Unlock()
}

// WriteJSONL dumps the ring oldest-first, one JSON object per line —
// the GET /debug/flight payload and the SIGTERM final dump.
func (f *flightRecorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	var entries []FlightEntry
	if f.n <= int64(len(f.buf)) {
		entries = append(entries, f.buf[:f.n]...)
	} else {
		idx := f.n % int64(len(f.buf))
		entries = append(entries, f.buf[idx:]...)
		entries = append(entries, f.buf[:idx]...)
	}
	f.mu.Unlock()
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
