package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Frame-path span operations, in pipeline order: the driver's commit of
// pending region-label writes at the frame boundary, the encode
// (classification and packing, which run interleaved row by row), the
// decoder history push, and decode.
const (
	SpanCommit = "commit"
	SpanEncode = "encode"
	SpanPush   = "push"
	SpanDecode = "decode"
)

// Span is one recorded step of a frame's journey through the pipeline.
type Span struct {
	// Session tags the pipeline that produced the span (the rpxd session id,
	// or 0 for an untagged in-process system).
	Session uint64 `json:"session"`
	// Frame is the temporal index of the frame the span belongs to.
	Frame int `json:"frame"`
	// Op is the pipeline step (SpanCommit, SpanEncode, SpanPush, SpanDecode).
	Op string `json:"op"`
	// Start is the wall-clock start in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// Dur is the step latency in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Bytes is the payload traffic of the step: encoded bytes written for
	// encode, encoded bytes fetched for decode, 0 otherwise.
	Bytes int `json:"bytes"`
}

// DefaultTraceSpans is the tracer ring capacity when none is given.
const DefaultTraceSpans = 512

// Tracer records frame-path spans into a fixed ring buffer: the newest
// spans win, Record never allocates, and the buffer is dumpable on demand
// (Snapshot, WriteJSON — served by rpxd at /debug/trace). Safe for
// concurrent use.
type Tracer struct {
	mu    sync.Mutex
	buf   []Span
	total uint64 // spans ever recorded; buf slot is total % len(buf)
}

// NewTracer returns a tracer holding the last capacity spans
// (DefaultTraceSpans when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &Tracer{buf: make([]Span, capacity)}
}

// Record stores one span, overwriting the oldest when the ring is full.
// It never allocates.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	t.buf[t.total%uint64(len(t.buf))] = s
	t.total++
	t.mu.Unlock()
}

// Total returns the number of spans ever recorded (including overwritten
// ones).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot copies the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracer) snapshotLocked() []Span {
	n := t.total
	cap64 := uint64(len(t.buf))
	if n > cap64 {
		n = cap64
	}
	out := make([]Span, n)
	start := t.total - n
	for i := uint64(0); i < n; i++ {
		out[i] = t.buf[(start+i)%cap64]
	}
	return out
}

// Reset discards every retained span.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.total = 0
	t.mu.Unlock()
}

// traceDump is the /debug/trace document shape.
type traceDump struct {
	Total    uint64 `json:"total"`
	Capacity int    `json:"capacity"`
	Spans    []Span `json:"spans"`
}

// WriteJSON dumps the retained spans (oldest first) with ring bookkeeping,
// all captured under one lock so total and spans agree.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	total := t.total
	spans := t.snapshotLocked()
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{Total: total, Capacity: len(t.buf), Spans: spans})
}
