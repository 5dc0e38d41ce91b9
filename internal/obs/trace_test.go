package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if tr.Deterministic() || tr.Now() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must read zero")
	}
	s := tr.Root("f")
	if s != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	s.Fork(2)
	s.Join()
	s.Solve("sat", 10)
	s.Stage("search", "sat", 10)
	s.MemoHit()
	s.CexHit()
	s.Degrade("timeout", "x")
	s.Emit(Event{Kind: KindIter})
	if c := s.Child(); c != nil {
		t.Fatal("nil span child must be nil")
	}
	if s.Path() != "" {
		t.Fatal("nil span path must be empty")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatal("nil tracer events must be nil")
	}
}

// walk explores a binary tree of the given depth, emitting the same
// fork/solve/join shape on every run.
func walk(s *Span, depth int) {
	if depth == 0 {
		s.Solve("sat", 0)
		return
	}
	s.Fork(2)
	l, r := s.Child(), s.Child()
	walk(l, depth-1)
	walk(r, depth-1)
	s.Join()
}

func deterministicTrace(t *testing.T) string {
	t.Helper()
	tr := NewTracer(TraceOptions{Deterministic: true})
	walk(tr.Root("main"), 5)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDeterministicTraceScheduleIndependent: a check runs on one
// goroutine, so a deterministic trace depends on the explored tree
// alone; run after run, the same walk flushes the same bytes.
func TestDeterministicTraceScheduleIndependent(t *testing.T) {
	first := deterministicTrace(t)
	for i := 0; i < 5; i++ {
		if again := deterministicTrace(t); again != first {
			t.Fatalf("deterministic trace differs between runs of one walk:\nfirst:\n%s\nagain:\n%s", first, again)
		}
	}
}

func TestDeterministicTraceShape(t *testing.T) {
	tr := NewTracer(TraceOptions{Deterministic: true})
	root := tr.Root("main")
	root.Fork(2)
	l, r := root.Child(), root.Child()
	l.Solve("sat", 0)
	r.Degrade("timeout", "truncated")
	root.Join()

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	// Subtree order: root events (pseq order), then child ".0", then ".1".
	wantPaths := []string{"r00000", "r00000", "r00000", "r00000.0", "r00000.1"}
	wantKinds := []string{KindRoot, KindFork, KindJoin, KindSolve, KindDegrade}
	for i, e := range evs {
		if e.Path != wantPaths[i] || e.Kind != wantKinds[i] {
			t.Fatalf("event %d = {path %q kind %q}, want {path %q kind %q}", i, e.Path, e.Kind, wantPaths[i], wantKinds[i])
		}
		if e.Seq != int64(i) {
			t.Fatalf("event %d seq = %d, want %d (renumbered)", i, e.Seq, i)
		}
		if e.TNs != 0 || e.DurNs != 0 {
			t.Fatalf("deterministic event %d carries wall clock: %+v", i, e)
		}
	}
	if evs[3].Parent != "r00000" || evs[4].Parent != "r00000" {
		t.Fatalf("child parent links wrong: %+v", evs[3:])
	}
}

func TestDeterministicModeSuppressesScheduleDependentKinds(t *testing.T) {
	tr := NewTracer(TraceOptions{Deterministic: true})
	s := tr.Root("f")
	s.MemoHit()
	s.CexHit()
	s.Stage("search", "sat", 100)
	s.Solve("sat", 0)
	for _, e := range tr.Events() {
		switch e.Kind {
		case KindMemoHit, KindCexHit, KindStage:
			t.Fatalf("schedule-dependent kind %q leaked into deterministic trace", e.Kind)
		}
	}
}

func TestTimingModeRecordsClockAndStages(t *testing.T) {
	tr := NewTracer(TraceOptions{})
	s := tr.Root("f")
	s.Stage("search", "sat", 1234)
	s.MemoHit()
	s.Solve("sat", 5678)
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	var sawStage, sawMemo bool
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("timing events must sort by emit seq, got %d at %d", e.Seq, i)
		}
		switch e.Kind {
		case KindStage:
			sawStage = true
			if e.DurNs != 1234 || e.Detail != "search" {
				t.Fatalf("stage event wrong: %+v", e)
			}
		case KindMemoHit:
			sawMemo = true
		}
	}
	if !sawStage || !sawMemo {
		t.Fatal("timing mode must record stage and memo-hit events")
	}
	if tr.Now() <= 0 {
		t.Fatal("timing-mode Now must advance")
	}
}

func TestRingOverwriteKeepsTailAndCountsDropped(t *testing.T) {
	tr := NewTracer(TraceOptions{Cap: 1})
	s := tr.Root("f")
	const n = 200
	for i := 0; i < n; i++ {
		s.Solve("sat", 0)
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring wrap must count dropped events")
	}
	evs := tr.Events()
	// The tail must survive: the last emitted event has pseq n (root
	// event was pseq 0).
	last := evs[len(evs)-1]
	if last.PSeq != n {
		t.Fatalf("tail lost: last pseq = %d, want %d", last.PSeq, n)
	}
}

// TestRingKeepsNewestCapEvents pins the overflow rule in both modes:
// a ring of capacity N keeps exactly the newest N events, in emit
// order, and Dropped counts the rest.
func TestRingKeepsNewestCapEvents(t *testing.T) {
	const capacity, emitted = 256, 1000
	for _, det := range []bool{false, true} {
		tr := NewTracer(TraceOptions{Deterministic: det, Cap: capacity})
		s := tr.Root("f") // pseq 0
		for i := 1; i < emitted; i++ {
			s.Solve("sat", 0)
		}
		evs := tr.Events()
		if len(evs) != capacity {
			t.Fatalf("det=%v: kept %d events, want %d", det, len(evs), capacity)
		}
		if got := tr.Dropped(); got != emitted-capacity {
			t.Fatalf("det=%v: Dropped() = %d, want %d", det, got, emitted-capacity)
		}
		for i, e := range evs {
			if want := int64(emitted - capacity + i); e.PSeq != want {
				t.Fatalf("det=%v: event %d has pseq %d, want %d", det, i, e.PSeq, want)
			}
			if !det && e.Seq != e.PSeq {
				t.Fatalf("timing event %d has seq %d, want its emit index %d", i, e.Seq, e.PSeq)
			}
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(TraceOptions{Deterministic: true})
	walk(tr.Root("main"), 3)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var parsed []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		parsed = append(parsed, e)
	}
	want := tr.Events()
	if len(parsed) != len(want) {
		t.Fatalf("round trip lost events: %d vs %d", len(parsed), len(want))
	}
	for i := range parsed {
		if parsed[i] != want[i] {
			t.Fatalf("event %d round-trip mismatch: %+v vs %+v", i, parsed[i], want[i])
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(TraceOptions{Deterministic: true})
	walk(tr.Root("main"), 2)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome output empty")
	}
	for _, e := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "pid", "tid", "ts"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("chrome event missing %q: %v", field, e)
			}
		}
		if e["ph"] != "i" {
			t.Fatalf("deterministic trace must emit instant events, got ph=%v", e["ph"])
		}
	}

	// Timing mode with durations produces complete ("X") slices.
	tr2 := NewTracer(TraceOptions{})
	s := tr2.Root("f")
	s.Solve("sat", 5000)
	buf.Reset()
	if err := WriteChrome(&buf, tr2.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Fatalf("timed trace must contain complete events: %s", buf.String())
	}
}
