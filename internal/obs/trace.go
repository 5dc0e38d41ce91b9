package obs

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceSchemaVersion stamps the JSONL event schema; the checked-in
// validator (cmd/mixtrace, testdata/trace_schema.json) pins it.
// Version 3 dropped the distributed-exploration event kind, its fault
// classes and the worker-origin "item" field of version 2.
const TraceSchemaVersion = 3

// Event is one structured trace event, serialized as a single JSONL
// line. Field presence varies by kind and mode:
//
//   - seq is the global total order: assigned at emit time in timing
//     mode, reassigned at flush in deterministic mode (sorted by
//     (path, pseq), which is schedule-independent).
//   - path is the hierarchical path ID: roots are "rNNNNN" and each
//     fork child appends ".<index>", so a path's parent is a strict
//     prefix and lexicographic order groups each subtree together.
//   - pseq orders events within one span (spans are single-goroutine,
//     so pseq needs no synchronisation).
//   - t_ns/dur_ns are wall-clock offsets/durations, present only in
//     timing mode; deterministic traces are wall-clock-free.
type Event struct {
	Seq     int64  `json:"seq"`
	Path    string `json:"path"`
	PSeq    int64  `json:"pseq"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Verdict string `json:"verdict,omitempty"`
	Class   string `json:"class,omitempty"`
	Detail  string `json:"detail,omitempty"`
	N       int64  `json:"n,omitempty"`
	N2      int64  `json:"n2,omitempty"`
	TNs     int64  `json:"t_ns,omitempty"`
	DurNs   int64  `json:"dur_ns,omitempty"`
}

// Event kinds. Kinds marked (timing-only) depend on scheduling —
// which run warmed a shared memo table first, how long a query ran —
// and are suppressed in deterministic mode; everything else is a
// pure function of (program, seed) and appears in both modes.
const (
	KindRoot      = "root"       // span tree root; detail = root name
	KindFork      = "fork"       // path split; n = child count
	KindJoin      = "join"       // ordered join of children
	KindSolve     = "solve"      // pipeline verdict for one query
	KindStage     = "stage"      // (timing-only) one pipeline stage; detail = stage name
	KindMemoHit   = "memo-hit"   // (timing-only) sharded-LRU memo hit
	KindCexHit    = "cex-hit"    // (timing-only) counterexample-cache hit
	KindDegrade   = "degrade"    // fault absorbed into imprecision; class = fault class
	KindMerge     = "merge"      // join-point state merge; detail = join site, n = cells merged, n2 = collapsed-to-equal
	KindIter      = "iter"       // MIXY fixpoint iteration; n = qualifier-frontier size
	KindCacheHit  = "cache-hit"  // MIXY block-summary cache hit; detail = block key
	KindCacheMiss = "cache-miss" // MIXY block-summary cache miss; detail = block key
	KindBlock     = "block"      // MIXY symbolic block analyzed; detail = block key
	KindSummary   = "summary"    // function-summary use at a call site; detail = "instantiate fn" (n = arms) or "fallback fn: reason"
)

// traceShards is the number of event-buffer shards. Spans hash to a
// shard by path, so concurrently-live paths contend rarely.
const traceShards = 16

// TraceOptions configures a Tracer.
type TraceOptions struct {
	// Deterministic makes traces byte-comparable across runs:
	// wall-clock fields are zeroed, schedule-dependent kinds (stage,
	// memo-hit, cex-hit) are suppressed, and the flush orders events by
	// (path, pseq) before numbering seq.
	Deterministic bool
	// Cap bounds total buffered events across all shards; each shard
	// is a ring, so when a shard wraps its oldest events are
	// overwritten (the tail — where degradations live — survives).
	// 0 means DefaultTraceCap.
	Cap int
}

// DefaultTraceCap is the default total event capacity (~1M events,
// far above anything the test corpus or ladder benches produce).
const DefaultTraceCap = 1 << 20

// traceShard is one ring buffer: a backing array that grows
// geometrically up to max, a monotone write count, and
// oldest-overwrite once the array is at max. Growing lazily instead
// of preallocating max matters operationally: a tracer's cap defaults
// to ~1M events (tens of MB of pointer-ful structs), and a short check
// that pays the page-in and GC-scan cost of that slab up front spends
// more time faulting memory than analyzing.
// Which events survive is unchanged — both shapes keep the newest max
// events.
type traceShard struct {
	mu  sync.Mutex
	buf []Event
	max int   // ring capacity ceiling
	n   int64 // total events ever written to this shard
}

// put appends one fully-stamped event, growing the ring toward max
// before the first wrap and counting overwrites after it.
func (sh *traceShard) put(e Event, dropped *atomic.Int64) {
	sh.mu.Lock()
	if sh.n == int64(len(sh.buf)) && len(sh.buf) < sh.max {
		grow := 2 * len(sh.buf)
		if grow > sh.max {
			grow = sh.max
		}
		nb := make([]Event, grow)
		copy(nb, sh.buf)
		sh.buf = nb
	}
	if sh.n >= int64(len(sh.buf)) {
		dropped.Add(1)
	}
	sh.buf[sh.n%int64(len(sh.buf))] = e
	sh.n++
	sh.mu.Unlock()
}

// Tracer collects structured events into lock-sharded ring buffers.
// Construct with NewTracer; a nil *Tracer (and the nil *Spans it
// hands out) is inert, so instrumented code pays only a nil test
// when tracing is off.
type Tracer struct {
	det     bool
	start   time.Time
	seq     atomic.Int64 // timing-mode global sequence
	roots   atomic.Int64 // root span numbering
	dropped atomic.Int64
	shards  [traceShards]traceShard
}

// NewTracer returns a tracer ready to record.
func NewTracer(opts TraceOptions) *Tracer {
	capacity := opts.Cap
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	per := capacity / traceShards
	if per < 64 {
		per = 64
	}
	t := &Tracer{det: opts.Deterministic, start: time.Now()}
	for i := range t.shards {
		t.shards[i].max = per
		t.shards[i].buf = make([]Event, 64)
	}
	return t
}

// Deterministic reports whether the tracer is in deterministic mode
// (false on nil).
func (t *Tracer) Deterministic() bool { return t != nil && t.det }

// Now returns nanoseconds since the tracer started, for stamping
// durations: 0 on a nil tracer and in deterministic mode, so callers
// can bracket work with Now() unconditionally and never read the
// clock when it wouldn't be recorded.
func (t *Tracer) Now() int64 {
	if t == nil || t.det {
		return 0
	}
	return int64(time.Since(t.start))
}

// Dropped reports how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is one node of the path tree. A span is owned by a single
// goroutine at a time (forks hand children to other goroutines as
// fresh spans; joins hand them back), so its per-span sequence and
// child counter need no synchronisation. All methods are inert on a
// nil receiver.
type Span struct {
	t      *Tracer
	path   string
	parent string
	pseq   int64
	kids   int
	shard  *traceShard
}

// Root opens a new root span. Root IDs are numbered in creation
// order and zero-padded so they sort lexicographically; callers that
// need cross-run determinism must create roots deterministically
// (one per analyzed function/block, in program order).
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.roots.Add(1) - 1
	s := t.newSpan(rootID(id), "")
	s.emit(Event{Kind: KindRoot, Detail: name})
	return s
}

func rootID(n int64) string {
	// "r%05d" without fmt: fixed 5-digit zero-padded decimal.
	var b [6]byte
	b[0] = 'r'
	for i := 5; i >= 1; i-- {
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[:])
}

func (t *Tracer) newSpan(path, parent string) *Span {
	h := fnv.New32a()
	io.WriteString(h, path)
	return &Span{t: t, path: path, parent: parent, shard: &t.shards[h.Sum32()%traceShards]}
}

// Child opens the next child span. Children are numbered by creation
// order within the parent — fork sites create the then-child before
// the else-child, so index parity encodes the branch — and the child
// path appends ".<index>", keeping paths unique even when a span
// splits at more than one site. Child creation order is the owning
// goroutine's program order, so paths are schedule-independent.
func (s *Span) Child() *Span {
	if s == nil {
		return nil
	}
	idx := s.kids
	s.kids++
	return s.t.newSpan(s.path+"."+strconv.Itoa(idx), s.path)
}

// Path returns the span's hierarchical path ID ("" on nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// emit stamps span/order fields and appends to the span's shard ring.
func (s *Span) emit(e Event) {
	if s == nil {
		return
	}
	e.Path = s.path
	e.Parent = s.parent
	e.PSeq = s.pseq
	s.pseq++
	if !s.t.det {
		e.Seq = s.t.seq.Add(1) - 1
		e.TNs = s.t.Now()
	}
	s.shard.put(e, &s.t.dropped)
}

// Fork records a path split into n children.
func (s *Span) Fork(n int) {
	if s != nil {
		s.emit(Event{Kind: KindFork, N: int64(n)})
	}
}

// Join records the ordered join of this span's children.
func (s *Span) Join() {
	if s != nil {
		s.emit(Event{Kind: KindJoin})
	}
}

// Solve records the pipeline's final verdict for one query. The
// verdict is deterministic (parallel == sequential), so solve events
// appear in both modes; durNs is recorded only in timing mode (pass
// a Now()-bracketed delta, which is already 0 in deterministic mode).
func (s *Span) Solve(verdict string, durNs int64) {
	if s != nil {
		s.emit(Event{Kind: KindSolve, Verdict: verdict, DurNs: durNs})
	}
}

// Stage records one pipeline stage's verdict + duration. Which stages
// run depends on what earlier queries warmed (memo, cex cache), so
// stage events are timing-mode only.
func (s *Span) Stage(stage, verdict string, durNs int64) {
	if s == nil || s.t.det {
		return
	}
	s.emit(Event{Kind: KindStage, Detail: stage, Verdict: verdict, DurNs: durNs})
}

// MemoHit records a memo-table hit (timing-mode only: hits depend on
// which run populated the shared shard first).
func (s *Span) MemoHit() {
	if s == nil || s.t.det {
		return
	}
	s.emit(Event{Kind: KindMemoHit})
}

// CexHit records a counterexample-cache hit (timing-mode only).
func (s *Span) CexHit() {
	if s == nil || s.t.det {
		return
	}
	s.emit(Event{Kind: KindCexHit})
}

// Merge records a join-point state merge: both arms of a conditional
// reached the join alive and were folded into one guarded
// continuation. site names the join point, cells is the number of
// diverging cells merged into guarded values, eq the number that
// collapsed back to plain values because both arms agreed. Merge
// decisions are pure functions of (program, merge mode) — feasibility
// verdicts are schedule-independent — so merge events appear in both
// trace modes.
func (s *Span) Merge(site string, cells, eq int64) {
	if s != nil {
		s.emit(Event{Kind: KindMerge, Detail: site, N: cells, N2: eq})
	}
}

// Degrade records a fault being absorbed into explicit imprecision.
// class is the fault class (fault.Class.String()); detail carries
// provenance (what was truncated or pessimized). Faults are seeded,
// so degrade events appear in both modes.
func (s *Span) Degrade(class, detail string) {
	if s != nil {
		s.emit(Event{Kind: KindDegrade, Class: class, Detail: detail})
	}
}

// Emit records an arbitrary event on this span, for kinds without a
// dedicated helper (iter, cache-hit, cache-miss, block). Path, seq,
// and timing fields are stamped by the span.
func (s *Span) Emit(e Event) {
	if s != nil {
		s.emit(e)
	}
}

// Events returns the buffered events in final order: deterministic
// mode sorts by (path, pseq) and renumbers seq from 0 (both are pure
// functions of the explored tree); timing mode sorts by emit-time
// seq. Ring-dropped events are simply absent.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.n <= int64(len(sh.buf)) {
			all = append(all, sh.buf[:sh.n]...)
		} else {
			idx := sh.n % int64(len(sh.buf))
			all = append(all, sh.buf[idx:]...)
			all = append(all, sh.buf[:idx]...)
		}
		sh.mu.Unlock()
	}
	if t.det {
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.Path != b.Path {
				return a.Path < b.Path
			}
			return a.PSeq < b.PSeq
		})
		for i := range all {
			all[i].Seq = int64(i)
		}
	} else {
		sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	}
	return all
}

// WriteJSONL writes the trace as one JSON object per line, in final
// event order. Deterministic-mode output is byte-identical across
// runs for the same (program, seed).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, e := range t.Events() {
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
