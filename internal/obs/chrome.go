package obs

import (
	"encoding/json"
	"io"
	"strings"
)

// chromeEvent is one entry of the Chrome trace_event format (the
// JSON-array flavour), which Perfetto and chrome://tracing consume
// directly. Timestamps are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome converts a slice of trace events (as produced by
// Tracer.Events or parsed back from JSONL) into Chrome trace_event
// JSON. Timing-mode events with a duration become complete ("X")
// slices placed at their wall-clock offset; everything else becomes
// an instant ("i") event. Wall-clock-free (deterministic) traces are
// laid out by sequence number instead, one microsecond per event, so
// the DFS preorder reads left-to-right in Perfetto. Events from the
// same root land on the same track (tid), so each explored function's
// path tree gets its own row.
func WriteChrome(w io.Writer, events []Event) error {
	// A trace is wall-clock-free iff no event carries a timestamp.
	timed := false
	for _, e := range events {
		if e.TNs != 0 || e.DurNs != 0 {
			timed = true
			break
		}
	}
	tids := map[string]int{}
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		root := e.Path
		if i := strings.IndexByte(root, '.'); i >= 0 {
			root = root[:i]
		}
		tid, ok := tids[root]
		if !ok {
			tid = len(tids) + 1
			tids[root] = tid
		}
		ce := chromeEvent{
			Name:  e.Kind,
			Cat:   "mix",
			Phase: "i",
			PID:   1,
			TID:   tid,
		}
		if timed {
			ce.TS = float64(e.TNs) / 1e3
		} else {
			ce.TS = float64(e.Seq)
		}
		if e.DurNs > 0 {
			ce.Phase = "X"
			ce.Dur = float64(e.DurNs) / 1e3
		}
		args := map[string]any{"path": e.Path, "pseq": e.PSeq}
		if e.Parent != "" {
			args["parent"] = e.Parent
		}
		if e.Verdict != "" {
			args["verdict"] = e.Verdict
		}
		if e.Class != "" {
			args["class"] = e.Class
		}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.N != 0 {
			args["n"] = e.N
		}
		ce.Args = args
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}
