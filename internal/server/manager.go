// Package server is the concurrent heart of rpxd: a session manager that
// multiplexes many independent rhythmic-pixel pipelines behind one process.
//
// rpx.System is single-goroutine by contract, so every session holds one
// lock around each operation (label updates, captures, decodes): a
// session's operations run one at a time, and a capture publishes its frame
// to push subscribers before it lets go. Nothing queues an operation or
// turns it away. All cross-session statistics are atomic snapshots, so the
// admin endpoint can scrape them hot without taking a session lock.
//
// The TCP front end gives each connection one role, fixed by its first
// message: a session (HELLO), served request/reply, or a stream of another
// session's frames (SUBSCRIBE), served by push. A stream connection holds
// exactly one Subscription, so nothing numbers subscriptions, and a
// subscription queues the session's frames themselves: each push record is
// a frame's RPXE container, whose header carries its index and the figures
// its capture statistics follow from. Sessions and streams share the
// MaxSessions admission bound.
package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/rpx"
)

// Typed failures the manager surfaces to transports and clients.
var (
	// ErrSessionClosed means the session no longer accepts requests.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrManagerClosed means the manager is shut down.
	ErrManagerClosed = errors.New("server: manager closed")
	// ErrSessionLimit means the manager is at MaxSessions.
	ErrSessionLimit = errors.New("server: session limit reached")
)

// Op identifies a session operation for latency accounting.
type Op uint8

// Session operations.
const (
	OpSetLabels Op = iota
	OpCapture
	OpDecode
	numOps
)

// String returns the op's stats key.
func (o Op) String() string {
	switch o {
	case OpSetLabels:
		return "set_labels"
	case OpCapture:
		return "capture"
	case OpDecode:
		return "decode"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Config tunes a Manager.
type Config struct {
	// MaxSessions caps concurrently open sessions and streams together
	// (default 64).
	MaxSessions int
	// Metrics, when non-nil, is the observability registry the manager
	// publishes into: aggregate counters, per-op latency histograms, and a
	// per-live-session collector (frames, core encoder/decoder and PMMU
	// traffic counters). Registration happens once in NewManager.
	Metrics *obs.Registry
	// Trace, when non-nil, records every session's frame-path spans
	// (commit → encode → push → decode) tagged with the session id.
	Trace *obs.Tracer
}

// DefaultMaxSessions is the session cap when Config.MaxSessions is zero.
const DefaultMaxSessions = 64

// Manager owns the sessions of one rpxd process.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*Session
	reserved int // slots held by opens still building a pipeline, and by streams
	closed   bool

	// Push-subscription registry, its own lock so subscription churn
	// never contends with Open/Close.
	subMu         sync.Mutex
	subscriptions map[*Subscription]struct{}

	// Aggregate counters, atomic so Snapshot never takes a session lock.
	sessionsOpened   atomic.Int64
	framesCaptured   atomic.Int64
	encodedBytes     atomic.Int64
	decodedFrames    atomic.Int64
	streamSubsOpened atomic.Int64
	streamPublished  atomic.Int64
	streamPushed     atomic.Int64
	streamDropped    atomic.Int64
	streamLabels     atomic.Int64

	opHist [numOps]Histogram
}

// NewManager returns a Manager with cfg defaults applied.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	m := &Manager{cfg: cfg, sessions: make(map[uint64]*Session)}
	if cfg.Metrics != nil {
		m.registerMetrics(cfg.Metrics)
	}
	return m
}

// registerMetrics publishes the manager into a registry: the aggregate
// atomic counters it already keeps (read at scrape time, no double
// bookkeeping), the per-op latency histograms, and a collector that emits
// one series set per live session — series appear when a session opens and
// vanish when it closes.
func (m *Manager) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("rpxd_sessions_opened_total", "Sessions opened over the process lifetime.",
		func() uint64 { return uint64(m.sessionsOpened.Load()) })
	reg.CounterFunc("rpxd_frames_captured_total", "Frames captured across all sessions.",
		func() uint64 { return uint64(m.framesCaptured.Load()) })
	reg.CounterFunc("rpxd_encoded_bytes_total", "Encoded payload plus metadata bytes written across all sessions.",
		func() uint64 { return uint64(m.encodedBytes.Load()) })
	reg.CounterFunc("rpxd_decoded_frames_total", "Decodes served across all sessions.",
		func() uint64 { return uint64(m.decodedFrames.Load()) })
	reg.GaugeFunc("rpxd_sessions_open", "Currently open sessions.",
		func() float64 { return float64(m.SessionsOpen()) })
	for op := Op(0); op < numOps; op++ {
		reg.RegisterHistogram("rpxd_op_latency_seconds",
			"Session operation latency (lock wait plus execution).",
			&m.opHist[op], obs.L("op", op.String()))
	}
	m.registerStreamMetrics(reg)
	reg.Collect(m.collectSessions)
}

// collectSessions emits the per-session series: the pipeline's core
// traffic counters (encoder, decoder, PMMU metadata reads) and per-op
// latency histograms. Stats are read through the rpx.System
// monitoring-safe accessors, never under the session lock.
func (m *Manager) collectSessions(emit func(obs.Sample)) {
	counter := func(name, help string, v float64, labels ...obs.Label) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v})
	}
	for _, s := range m.openSessions() {
		id := obs.L("session", strconv.FormatUint(s.id, 10))
		sys := s.SystemStats()
		dec := s.sys.DecoderStats()
		enc := s.sys.EncoderStats()
		counter("rpxd_session_frames_captured_total", "Frames captured by one session.",
			float64(sys.FramesCaptured), id)
		counter("rpxd_session_bytes_written_total", "Encoded payload plus metadata bytes one session wrote.",
			float64(sys.BytesWritten), id)
		counter("rpxd_session_bytes_read_total", "Encoded bytes one session's decoder fetched.",
			float64(sys.BytesRead), id)
		counter("rpxd_session_pixels_in_total", "Sensor pixels one session's encoder consumed.",
			float64(enc.PixelsIn), id)
		counter("rpxd_session_pixels_out_total", "Pixels surviving encoding for one session.",
			float64(enc.PixelsOut), id)
		counter("rpxd_session_decoder_sub_requests_total", "PMMU sub-requests one session's decoder issued.",
			float64(dec.SubRequests), id)
		counter("rpxd_session_metadata_bits_read_total", "EncMask metadata bits one session's PMMU examined.",
			float64(dec.MetadataBitsRead), id)
		for op := Op(0); op < numOps; op++ {
			hs := s.opHist[op].Snapshot()
			if hs.Count == 0 {
				continue
			}
			emit(obs.Sample{
				Name:   "rpxd_session_op_latency_seconds",
				Help:   "Per-session operation latency (lock wait plus execution).",
				Kind:   obs.KindHistogram,
				Labels: []obs.Label{id, obs.L("op", op.String())},
				Hist:   hs,
			})
		}
	}
}

// openSessions snapshots the live session list under the manager lock.
func (m *Manager) openSessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	return open
}

// SessionConfig describes one session's negotiated pipeline: its frame
// geometry. Every other pipeline parameter is rpx.NewSystem's default.
type SessionConfig struct {
	W, H   int
	Format frame.Format
}

// Session is one client's rhythmic-pixel pipeline: an rpx.System behind
// one lock. Session methods are safe for concurrent use. Every operation
// holds the lock while it runs, so a session's operations run one at a
// time, in the order they take the lock.
type Session struct {
	id  uint64
	mgr *Manager
	sys *rpx.System

	// opHist is this session's own per-op latency view, observed alongside
	// the manager aggregate and exposed by the metrics collector as
	// rpxd_session_op_latency_seconds{session,op}.
	opHist [numOps]Histogram

	// mu is the session lock. It is held through every operation on sys
	// (a capture holds it through publish), and it guards closed and the
	// push subscribers attached to the session's frame stream.
	mu     sync.Mutex
	closed bool
	subs   []*Subscription
}

// Open creates a session. Admission is checked before the pipeline is
// constructed: a rejected open (manager closed or at MaxSessions) costs a
// few bookkeeping allocations, never the multi-MB framebuffer and history
// buffers an admitted session needs.
func (m *Manager) Open(cfg SessionConfig) (*Session, error) {
	// Admission first: reserve a slot, so concurrent opens racing for the
	// last slots cannot overshoot MaxSessions while their pipelines are
	// being built outside the lock.
	if err := m.reserve(); err != nil {
		return nil, err
	}
	sys, err := rpx.NewSystem(cfg.W, cfg.H, cfg.Format)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserved--
	if err == nil && m.closed {
		err = ErrManagerClosed
	}
	if err != nil {
		return nil, err
	}
	// A random id rather than a counter, so that two rpxd processes
	// practically never assign the same one and a SUBSCRIBE target relayed
	// by rpxgw names one session in the whole fleet. 0 means "no target".
	id := rand.Uint64()
	for id == 0 || m.sessions[id] != nil {
		id = rand.Uint64()
	}
	if m.cfg.Trace != nil {
		// Tag the pipeline's frame-path spans with the session id. No other
		// goroutine can reach the session before it enters m.sessions, so
		// this respects the rpx.System single-goroutine contract.
		sys.SetTracer(m.cfg.Trace, id)
	}
	s := &Session{id: id, mgr: m, sys: sys}
	m.sessions[id] = s
	m.sessionsOpened.Add(1)
	return s, nil
}

// reserve takes one MaxSessions slot. Open holds it while it builds a
// session's pipeline, and a stream connection for its whole life, so
// sessions and streams together never exceed MaxSessions.
func (m *Manager) reserve() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrManagerClosed
	}
	if len(m.sessions)+m.reserved >= m.cfg.MaxSessions {
		return fmt.Errorf("%w (%d)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	m.reserved++
	return nil
}

// unreserve gives back a slot a stream took with reserve.
func (m *Manager) unreserve() {
	m.mu.Lock()
	m.reserved--
	m.mu.Unlock()
}

// lock takes the session lock for one operation and returns when the
// operation started. Once the session is closed it fails with
// ErrSessionClosed instead; otherwise the caller runs the operation and
// then calls unlock.
func (s *Session) lock() (time.Time, error) {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return start, ErrSessionClosed
	}
	return start, nil
}

// unlock releases the session lock and records the operation's latency,
// lock wait included.
func (s *Session) unlock(op Op, start time.Time) {
	s.mu.Unlock()
	lat := time.Since(start)
	s.mgr.opHist[op].Observe(lat)
	s.opHist[op].Observe(lat)
}

// ID returns the manager-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// SetRegionLabels installs the capture workload for the next frame.
func (s *Session) SetRegionLabels(labels region.List) error {
	_, err := s.SetRegionLabelsAt(labels)
	return err
}

// SetRegionLabelsAt installs the capture workload and returns the first
// frame index that will be captured under it. Every frame with index >=
// the returned boundary observes the new labels; every earlier frame was
// captured under the previous workload — the update holds the session
// lock that captures hold, so the boundary is exact.
func (s *Session) SetRegionLabelsAt(labels region.List) (uint64, error) {
	start, err := s.lock()
	if err != nil {
		return 0, err
	}
	defer s.unlock(OpSetLabels, start)
	if err := s.sys.SetRegionLabels(labels); err != nil {
		return 0, err
	}
	// FrameIndex is the index the next Capture will use, and pending
	// labels commit at that capture's frame boundary — so this is the
	// deterministic first sequence number the new workload governs.
	return uint64(s.sys.FrameIndex()), nil
}

// Capture encodes one frame into the session's framebuffer and publishes
// it to the session's push subscribers before returning: once the
// producer sees its CAPTURE_ACK, every subscription has been offered the
// frame (accepted or counted as dropped).
func (s *Session) Capture(fr *frame.Frame) (rpx.CaptureStats, error) {
	start, err := s.lock()
	if err != nil {
		return rpx.CaptureStats{}, err
	}
	defer s.unlock(OpCapture, start)
	cs, err := s.sys.Capture(fr)
	if err != nil {
		return cs, err
	}
	s.mgr.framesCaptured.Add(1)
	s.mgr.encodedBytes.Add(int64(cs.EncodedBytes))
	s.publish()
	return cs, nil
}

// Decoded reconstructs the newest frame.
func (s *Session) Decoded() (*frame.Frame, error) {
	start, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer s.unlock(OpDecode, start)
	fr, err := s.sys.Decoded()
	if err == nil {
		s.mgr.decodedFrames.Add(1)
	}
	return fr, err
}

// SystemStats snapshots the underlying pipeline's traffic counters without
// taking the session lock (safe per rpx.System's concurrency contract).
func (s *Session) SystemStats() rpx.SystemStats { return s.sys.Stats() }

// Close ends the session. It takes the session lock, so an operation in
// progress finishes first, and every later operation fails with
// ErrSessionClosed. Only then are the subscriptions sealed: no publish can
// run any more, so their writers drain the buffered frames and then report
// the closure.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	for _, sub := range subs {
		sub.close(ReasonSessionClosed)
	}

	s.mgr.mu.Lock()
	delete(s.mgr.sessions, s.id)
	s.mgr.mu.Unlock()
	return nil
}

// Close shuts every session down and rejects future opens.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	for _, s := range open {
		s.Close()
	}
	return nil
}

// SessionsOpen returns the number of live sessions.
func (m *Manager) SessionsOpen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Snapshot is a point-in-time view of the whole manager; rpxd writes it as
// JSON to its log at exit.
type Snapshot struct {
	SessionsOpen   int                          `json:"sessions_open"`
	SessionsOpened int64                        `json:"sessions_opened"`
	FramesCaptured int64                        `json:"frames_captured"`
	EncodedBytes   int64                        `json:"encoded_bytes"`
	DecodedFrames  int64                        `json:"decoded_frames"`
	StreamSubsOpen int                          `json:"stream_subs_open"`
	StreamPushed   int64                        `json:"stream_frames_pushed"`
	StreamDropped  int64                        `json:"stream_frames_dropped"`
	StreamInflight int                          `json:"stream_inflight"`
	OpLatency      map[string]HistogramSnapshot `json:"op_latency,omitempty"`
}

// Snapshot collects the manager-wide statistics from atomic counters and
// histograms; it takes the manager lock only to count the open sessions.
func (m *Manager) Snapshot() Snapshot {
	snap := Snapshot{
		SessionsOpen:   m.SessionsOpen(),
		SessionsOpened: m.sessionsOpened.Load(),
		FramesCaptured: m.framesCaptured.Load(),
		EncodedBytes:   m.encodedBytes.Load(),
		DecodedFrames:  m.decodedFrames.Load(),
		StreamSubsOpen: m.SubscriptionsOpen(),
		StreamPushed:   m.streamPushed.Load(),
		StreamDropped:  m.streamDropped.Load(),
		StreamInflight: m.StreamInflight(),
	}
	snap.OpLatency = make(map[string]HistogramSnapshot, int(numOps))
	for op := Op(0); op < numOps; op++ {
		hs := m.opHist[op].Snapshot()
		if hs.Count > 0 {
			snap.OpLatency[op.String()] = hs
		}
	}
	return snap
}
