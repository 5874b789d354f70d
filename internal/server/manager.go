// Package server is the concurrent heart of rpxd: a session manager that
// multiplexes many independent rhythmic-pixel pipelines behind one process.
//
// rpx.System is single-goroutine by contract, so the manager gives every
// session a dedicated worker goroutine and a bounded request queue. Callers
// submit operations (label updates, captures, decodes) and either block or
// fail fast with ErrBacklog when a session falls behind — backpressure is
// explicit, never unbounded buffering. All cross-session statistics are
// atomic snapshots, so the stats endpoint can run hot without touching a
// worker.
package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/rpx"
)

// Typed failures the manager surfaces to transports and clients.
var (
	// ErrBacklog means the session's bounded request queue is full and the
	// session was opened in fail-fast mode.
	ErrBacklog = errors.New("server: session request queue full")
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
	OpDecodeWindow
	OpLastEncoded
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
	case OpDecodeWindow:
		return "decode_window"
	case OpLastEncoded:
		return "last_encoded"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Config tunes a Manager.
type Config struct {
	// MaxSessions caps concurrently open sessions (default 64).
	MaxSessions int
	// QueueDepth is the default per-session request queue bound
	// (default 16); sessions may negotiate their own at open.
	QueueDepth int
	// IdleTTL evicts sessions that have served no request for this long, so
	// abandoned connections cannot pin MaxSessions (0 = never evict).
	IdleTTL time.Duration
	// SweepInterval is how often the idle janitor scans (default IdleTTL/4,
	// floored at 100ms). Only meaningful when IdleTTL > 0.
	SweepInterval time.Duration
	// Metrics, when non-nil, is the observability registry the manager
	// publishes into: aggregate counters, per-op latency histograms, and a
	// per-live-session collector (queue depth, frames, core encoder/decoder
	// and PMMU traffic counters). Registration happens once in NewManager.
	Metrics *obs.Registry
	// Trace, when non-nil, records every session's frame-path spans
	// (commit → encode → push → decode) tagged with the session id.
	Trace *obs.Tracer
}

// DefaultMaxSessions is the session cap when Config.MaxSessions is zero.
const DefaultMaxSessions = 64

// DefaultQueueDepth is the per-session queue bound when unset.
const DefaultQueueDepth = 16

// Manager owns the sessions of one rpxd process.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*Session
	reserved int // admitted opens still constructing their pipeline
	closed   bool

	sweepQuit chan struct{}
	sweepDone chan struct{}

	// Push-subscription registry, its own lock so subscription churn
	// never contends with Open/Close.
	subMu         sync.Mutex
	subscriptions map[uint64]*Subscription
	nextSubID     uint64

	// Aggregate counters, atomic so Snapshot never blocks a worker.
	sessionsOpened   atomic.Int64
	sessionsEvicted  atomic.Int64
	framesCaptured   atomic.Int64
	encodedBytes     atomic.Int64
	decodedFrames    atomic.Int64
	backlogRejects   atomic.Int64
	streamSubsOpened atomic.Int64
	streamPublished  atomic.Int64
	streamPushed     atomic.Int64
	streamDropped    atomic.Int64
	streamLabels     atomic.Int64

	opHist [numOps]Histogram

	// testOpGate, when set (tests only), runs inside the worker before each
	// operation executes — it lets tests hold a worker mid-request to fill
	// queues deterministically.
	testOpGate func(Op)
}

// NewManager returns a Manager with cfg defaults applied.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.IdleTTL > 0 && cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.IdleTTL / 4
		if cfg.SweepInterval < 100*time.Millisecond {
			cfg.SweepInterval = 100 * time.Millisecond
		}
	}
	m := &Manager{cfg: cfg, sessions: make(map[uint64]*Session)}
	if cfg.Metrics != nil {
		m.registerMetrics(cfg.Metrics)
	}
	if cfg.IdleTTL > 0 {
		m.sweepQuit = make(chan struct{})
		m.sweepDone = make(chan struct{})
		go m.sweepIdle()
	}
	return m
}

// registerMetrics publishes the manager into a registry: the aggregate
// atomic counters it already keeps (read at scrape time, no double
// bookkeeping), the per-op latency histograms, and a collector that emits
// one series set per live session — series appear when a session opens and
// vanish when it closes or is evicted.
func (m *Manager) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("rpxd_sessions_opened_total", "Sessions opened over the process lifetime.",
		func() uint64 { return uint64(m.sessionsOpened.Load()) })
	reg.CounterFunc("rpxd_sessions_evicted_total", "Sessions evicted by the idle janitor.",
		func() uint64 { return uint64(m.sessionsEvicted.Load()) })
	reg.CounterFunc("rpxd_frames_captured_total", "Frames captured across all sessions.",
		func() uint64 { return uint64(m.framesCaptured.Load()) })
	reg.CounterFunc("rpxd_encoded_bytes_total", "Encoded payload plus metadata bytes written across all sessions.",
		func() uint64 { return uint64(m.encodedBytes.Load()) })
	reg.CounterFunc("rpxd_decoded_frames_total", "Full-frame and windowed decodes served across all sessions.",
		func() uint64 { return uint64(m.decodedFrames.Load()) })
	reg.CounterFunc("rpxd_backlog_rejects_total", "Requests rejected with ErrBacklog by fail-fast sessions.",
		func() uint64 { return uint64(m.backlogRejects.Load()) })
	reg.GaugeFunc("rpxd_sessions_open", "Currently open sessions.",
		func() float64 { return float64(m.SessionsOpen()) })
	reg.GaugeFunc("rpxd_queue_depth", "Queued (unserved) requests across all sessions.",
		func() float64 {
			total := 0
			for _, s := range m.openSessions() {
				total += s.QueueDepth()
			}
			return float64(total)
		})
	for op := Op(0); op < numOps; op++ {
		reg.RegisterHistogram("rpxd_op_latency_seconds",
			"Session operation latency (queue wait plus execution).",
			&m.opHist[op], obs.L("op", op.String()))
	}
	m.registerStreamMetrics(reg)
	reg.Collect(m.collectSessions)
}

// collectSessions emits the per-session series: queue occupancy and the
// pipeline's core traffic counters (encoder, decoder, PMMU metadata reads),
// plus per-session per-op latency histograms. Stats are read through the
// rpx.System monitoring-safe accessors, never through the request queue.
func (m *Manager) collectSessions(emit func(obs.Sample)) {
	gauge := func(name, help string, v float64, labels ...obs.Label) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindGauge, Labels: labels, Value: v})
	}
	counter := func(name, help string, v float64, labels ...obs.Label) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v})
	}
	for _, s := range m.openSessions() {
		id := obs.L("session", strconv.FormatUint(s.id, 10))
		sys := s.SystemStats()
		dec := s.sys.DecoderStats()
		enc := s.sys.EncoderStats()
		gauge("rpxd_session_queue_depth", "Queued requests of one session.",
			float64(s.QueueDepth()), id)
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
				Help:   "Per-session operation latency (queue wait plus execution).",
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

// sweepIdle is the idle-session janitor: it periodically evicts sessions
// whose last request is older than IdleTTL.
func (m *Manager) sweepIdle() {
	defer close(m.sweepDone)
	tick := time.NewTicker(m.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.sweepQuit:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-m.cfg.IdleTTL).UnixNano()
		m.mu.Lock()
		var idle []*Session
		for _, s := range m.sessions {
			if s.lastUsed.Load() < cutoff {
				idle = append(idle, s)
			}
		}
		m.mu.Unlock()
		for _, s := range idle {
			s.evict()
		}
	}
}

// SessionConfig describes one session's negotiated pipeline.
type SessionConfig struct {
	// W, H and Format fix the session's frame geometry.
	W, H   int
	Format frame.Format
	// HistoryDepth is the decoder scratchpad depth (0 = rpx default).
	HistoryDepth int
	// QueueDepth bounds this session's request queue (0 = manager default).
	QueueDepth int
	// Block selects blocking backpressure instead of ErrBacklog.
	Block bool
}

// Session is one client's rhythmic-pixel pipeline: an rpx.System owned by a
// dedicated worker goroutine, fed through a bounded request queue. Session
// methods are safe for concurrent use; operations are serialized by the
// worker in arrival order.
type Session struct {
	id  uint64
	cfg SessionConfig
	mgr *Manager
	sys *rpx.System

	reqs chan *request
	quit chan struct{}
	done chan struct{}

	// lastUsed is the UnixNano of the newest submitted request, read by the
	// manager's idle janitor without taking the session lock.
	lastUsed atomic.Int64

	// opHist is this session's own per-op latency view, observed alongside
	// the manager aggregate and exposed by the metrics collector as
	// rpxd_session_op_latency_seconds{session,op}.
	opHist [numOps]Histogram

	// subMu guards the push subscribers attached to this session's frame
	// stream and the published-frame high-water mark.
	subMu  sync.Mutex
	subs   []*Subscription
	pubSeq uint64
	// pubSubs is publish's copy of subs, owned by the worker goroutine.
	pubSubs []*Subscription

	mu        sync.Mutex
	closed    bool
	evictHook func()
	pending   sync.WaitGroup
}

type request struct {
	op     Op
	labels region.List
	frame  *frame.Frame
	window wire4
	// encInto is the caller-supplied scratch OpLastEncoded serializes the
	// RPXE container into (worker-side, while the frame is stable); wantFrame
	// asks for a deep-copied *EncodedFrame instead.
	encInto   []byte
	wantFrame bool
	start     time.Time
	reply     chan result
}

type wire4 struct{ x, y, w, h int }

type result struct {
	cs  rpx.CaptureStats
	fr  *frame.Frame
	ef  *core.EncodedFrame
	enc []byte
	// seq is the first frame index that observes a label update
	// (OpSetLabels only): read from the pipeline on the worker right after
	// the labels are applied, before any later capture can run.
	seq uint64
	err error
}

// Open creates a session and starts its worker. Admission is checked before
// the pipeline is constructed: a rejected open (manager closed or at
// MaxSessions) costs a few bookkeeping allocations, never the multi-MB
// framebuffer and history buffers an admitted session needs.
func (m *Manager) Open(cfg SessionConfig) (*Session, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = m.cfg.QueueDepth
	}

	// Admission first: reserve a slot under the lock, so concurrent opens
	// racing for the last slots cannot overshoot MaxSessions while their
	// pipelines are being built outside the lock.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if len(m.sessions)+m.reserved >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d)", ErrSessionLimit, m.cfg.MaxSessions)
	}
	m.reserved++
	m.mu.Unlock()

	var opts []rpx.Option
	if cfg.HistoryDepth > 0 {
		opts = append(opts, rpx.WithHistoryDepth(cfg.HistoryDepth))
	}
	sys, err := rpx.NewSystem(cfg.W, cfg.H, cfg.Format, opts...)

	m.mu.Lock()
	m.reserved--
	if err == nil && m.closed {
		err = ErrManagerClosed
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	// A random id rather than a counter, so that two rpxd processes
	// practically never assign the same one and a SUBSCRIBE target relayed
	// by rpxgw names one session in the whole fleet. 0 means "no target".
	id := rand.Uint64()
	for id == 0 || m.sessions[id] != nil {
		id = rand.Uint64()
	}
	s := &Session{
		id:   id,
		cfg:  cfg,
		mgr:  m,
		sys:  sys,
		reqs: make(chan *request, cfg.QueueDepth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.lastUsed.Store(time.Now().UnixNano())
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.sessionsOpened.Add(1)
	if m.cfg.Trace != nil {
		// Tag the pipeline's frame-path spans with the session id. The
		// worker has not started yet, so this respects the rpx.System
		// single-goroutine contract.
		sys.SetTracer(m.cfg.Trace, s.id)
	}

	go s.worker()
	return s, nil
}

// worker drains the request queue until it is closed, executing each
// operation against the single-goroutine rpx.System.
func (s *Session) worker() {
	defer close(s.done)
	for req := range s.reqs {
		if gate := s.mgr.testOpGate; gate != nil {
			gate(req.op)
		}
		res := s.execute(req)
		if req.op == OpCapture && res.err == nil {
			// Publish to push subscribers before acking the capture: once
			// the producer sees its CAPTURE_ACK, every subscription has
			// been offered the frame (accepted or counted as dropped).
			s.publish(res.cs)
		}
		lat := time.Since(req.start)
		s.mgr.opHist[req.op].Observe(lat)
		s.opHist[req.op].Observe(lat)
		req.reply <- res
	}
}

func (s *Session) execute(req *request) result {
	switch req.op {
	case OpSetLabels:
		if err := s.sys.SetRegionLabels(req.labels); err != nil {
			return result{err: err}
		}
		// FrameIndex is the index the next Capture will use, and pending
		// labels commit at that capture's frame boundary — so this is the
		// deterministic first sequence number the new workload governs.
		// Reading it here on the worker is race-free: no capture can
		// interleave.
		return result{seq: uint64(s.sys.FrameIndex())}
	case OpCapture:
		cs, err := s.sys.Capture(req.frame)
		if err == nil {
			s.mgr.framesCaptured.Add(1)
			s.mgr.encodedBytes.Add(int64(cs.EncodedBytes))
		}
		return result{cs: cs, err: err}
	case OpDecode:
		fr, err := s.sys.Decoded()
		if err == nil {
			s.mgr.decodedFrames.Add(1)
		}
		return result{fr: fr, err: err}
	case OpDecodeWindow:
		fr, err := s.sys.DecodeWindow(req.window.x, req.window.y, req.window.w, req.window.h)
		if err == nil {
			s.mgr.decodedFrames.Add(1)
		}
		return result{fr: fr, err: err}
	case OpLastEncoded:
		// Borrow, don't copy: on the worker goroutine the live frame is
		// stable, so both variants (serialize into caller scratch, or hand
		// out an owned deep copy) read it without aliasing it to the caller.
		ef := s.sys.BorrowLastEncoded()
		if ef == nil {
			return result{err: fmt.Errorf("server: no frame captured yet")}
		}
		if req.wantFrame {
			return result{ef: ef.Clone()}
		}
		return result{enc: ef.AppendTo(req.encInto[:0])}
	}
	return result{err: fmt.Errorf("server: unknown op %d", req.op)}
}

// submit enqueues one operation and waits for its result, honouring the
// session's backpressure mode.
func (s *Session) submit(req *request) result {
	s.lastUsed.Store(time.Now().UnixNano())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return result{err: ErrSessionClosed}
	}
	s.pending.Add(1)
	s.mu.Unlock()
	defer s.pending.Done()

	req.start = time.Now()
	req.reply = make(chan result, 1)
	if s.cfg.Block {
		select {
		case s.reqs <- req:
		case <-s.quit:
			return result{err: ErrSessionClosed}
		}
	} else {
		select {
		case s.reqs <- req:
		default:
			s.mgr.backlogRejects.Add(1)
			return result{err: ErrBacklog}
		}
	}
	// The worker serves every enqueued request, even during close: the
	// queue is only closed after all submitters have drained.
	return <-req.reply
}

// ID returns the manager-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Config returns the negotiated session configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// QueueDepth returns the number of queued (unserved) requests.
func (s *Session) QueueDepth() int { return len(s.reqs) }

// SetRegionLabels installs the capture workload for the next frame.
func (s *Session) SetRegionLabels(labels region.List) error {
	return s.submit(&request{op: OpSetLabels, labels: labels}).err
}

// SetRegionLabelsAt installs the capture workload and returns the first
// frame index that will be captured under it. Every frame with index >=
// the returned boundary observes the new labels; every earlier frame was
// captured under the previous workload — the update is serialized with
// in-flight captures by the session worker, so the boundary is exact.
func (s *Session) SetRegionLabelsAt(labels region.List) (uint64, error) {
	res := s.submit(&request{op: OpSetLabels, labels: labels})
	return res.seq, res.err
}

// Capture encodes one frame into the session's framebuffer.
func (s *Session) Capture(fr *frame.Frame) (rpx.CaptureStats, error) {
	res := s.submit(&request{op: OpCapture, frame: fr})
	return res.cs, res.err
}

// Decoded reconstructs the newest frame.
func (s *Session) Decoded() (*frame.Frame, error) {
	res := s.submit(&request{op: OpDecode})
	return res.fr, res.err
}

// DecodeWindow reconstructs a sub-rectangle of the newest frame.
func (s *Session) DecodeWindow(x, y, w, h int) (*frame.Frame, error) {
	res := s.submit(&request{op: OpDecodeWindow, window: wire4{x, y, w, h}})
	return res.fr, res.err
}

// LastEncoded returns the newest encoded frame. The caller owns the result:
// it is a deep copy made on the session worker and later captures never
// touch it.
func (s *Session) LastEncoded() (*core.EncodedFrame, error) {
	res := s.submit(&request{op: OpLastEncoded, wantFrame: true})
	return res.ef, res.err
}

// LastEncodedTo serializes the newest encoded frame as an RPXE container
// into dst (reusing its capacity, like append) and returns the result. The
// serialization happens on the session worker while the frame is stable,
// so no intermediate *EncodedFrame copy is made — this is the transport's
// zero-copy GET_ENCODED path.
func (s *Session) LastEncodedTo(dst []byte) ([]byte, error) {
	res := s.submit(&request{op: OpLastEncoded, encInto: dst})
	return res.enc, res.err
}

// SystemStats snapshots the underlying pipeline's traffic counters without
// entering the request queue (safe per rpx.System's concurrency contract).
func (s *Session) SystemStats() rpx.SystemStats { return s.sys.Stats() }

// OnEvict registers a hook the idle janitor runs when it evicts this
// session — transports use it to close the connection so a handler blocked
// in a read wakes up and tears down. Calling it after eviction began is a
// no-op.
func (s *Session) OnEvict(hook func()) {
	s.mu.Lock()
	s.evictHook = hook
	s.mu.Unlock()
}

// IdleFor reports how long ago the session last served a request.
func (s *Session) IdleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastUsed.Load())
}

// evict closes an idle session on the janitor's behalf: it fires the
// transport hook first (waking any blocked reader) and then runs the normal
// drain-and-stop close path.
func (s *Session) evict() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	hook := s.evictHook
	s.mu.Unlock()
	s.mgr.sessionsEvicted.Add(1)
	if hook != nil {
		hook()
	}
	s.Close()
}

// Close drains the queue and stops the worker. Requests submitted after
// Close fail with ErrSessionClosed; requests already queued are served.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.quit)    // release blocked submitters
	s.pending.Wait() // all submitters have enqueued or bailed
	close(s.reqs)    // worker drains the remainder and exits
	<-s.done

	// The worker has exited, so no further publish can run: sealing the
	// subscriptions now lets their writers drain buffered frames and then
	// report the closure.
	s.closeSubscriptions()

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
	if m.sweepQuit != nil {
		close(m.sweepQuit)
		<-m.sweepDone
	}
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

// QueueStat reports one session's queue occupancy in a Snapshot.
type QueueStat struct {
	SessionID uint64 `json:"session_id"`
	W         int    `json:"w"`
	H         int    `json:"h"`
	Depth     int    `json:"depth"`
	Capacity  int    `json:"capacity"`
	Frames    int    `json:"frames_captured"`
}

// Snapshot is a point-in-time view of the whole manager, the payload of the
// STATS wire message (JSON-encoded).
type Snapshot struct {
	SessionsOpen    int                          `json:"sessions_open"`
	SessionsOpened  int64                        `json:"sessions_opened"`
	SessionsEvicted int64                        `json:"sessions_evicted"`
	FramesCaptured  int64                        `json:"frames_captured"`
	EncodedBytes    int64                        `json:"encoded_bytes"`
	DecodedFrames   int64                        `json:"decoded_frames"`
	BacklogRejects  int64                        `json:"backlog_rejects"`
	StreamSubsOpen  int                          `json:"stream_subs_open"`
	StreamPushed    int64                        `json:"stream_frames_pushed"`
	StreamDropped   int64                        `json:"stream_frames_dropped"`
	StreamInflight  int                          `json:"stream_inflight"`
	Queues          []QueueStat                  `json:"queues,omitempty"`
	OpLatency       map[string]HistogramSnapshot `json:"op_latency,omitempty"`
}

// Snapshot collects the manager-wide statistics. The manager lock is held
// only long enough to copy the session list; per-session stats are read
// outside it, so a stats scrape over many sessions never blocks Open/Close.
func (m *Manager) Snapshot() Snapshot {
	snap := Snapshot{
		SessionsOpened:  m.sessionsOpened.Load(),
		SessionsEvicted: m.sessionsEvicted.Load(),
		FramesCaptured:  m.framesCaptured.Load(),
		EncodedBytes:    m.encodedBytes.Load(),
		DecodedFrames:   m.decodedFrames.Load(),
		BacklogRejects:  m.backlogRejects.Load(),
		StreamSubsOpen:  m.SubscriptionsOpen(),
		StreamPushed:    m.streamPushed.Load(),
		StreamDropped:   m.streamDropped.Load(),
		StreamInflight:  m.StreamInflight(),
	}
	m.mu.Lock()
	snap.SessionsOpen = len(m.sessions)
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	for _, s := range open {
		snap.Queues = append(snap.Queues, QueueStat{
			SessionID: s.id,
			W:         s.cfg.W,
			H:         s.cfg.H,
			Depth:     s.QueueDepth(),
			Capacity:  s.cfg.QueueDepth,
			Frames:    s.SystemStats().FramesCaptured,
		})
	}
	sort.Slice(snap.Queues, func(i, j int) bool { return snap.Queues[i].SessionID < snap.Queues[j].SessionID })

	snap.OpLatency = make(map[string]HistogramSnapshot, int(numOps))
	for op := Op(0); op < numOps; op++ {
		hs := m.opHist[op].Snapshot()
		if hs.Count > 0 {
			snap.OpLatency[op.String()] = hs
		}
	}
	return snap
}
