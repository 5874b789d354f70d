// Package gateway implements rpxgw's session proxy, which sits in front of a
// fleet of rpxd backends and speaks the rpxd wire protocol on both sides.
//
// A client connection has one role, fixed by its first message, as on
// rpxd. A session connection (HELLO) is pinned to one backend: the routable
// backend holding the fewest of this gateway's sessions, ties going in
// -backends order. From then on the gateway relays messages in lockstep
// (read request, forward, read reply, forward) without decoding frame
// payloads. The strict one-reply-per-request shape of the protocol is what
// makes migration safe: between round trips a session has no in-flight
// state on the wire, so the gateway can tear the backend connection down
// and rebuild it elsewhere, replaying the client's original HELLO and last
// SET_LABELS bytes, at any message boundary. This migration is the one code
// path that rebuilds a session: a client whose own connection breaks dials
// again. A stream connection (SUBSCRIBE) is relayed over a backend
// connection of its own to the backend that holds its target (see
// stream.go).
//
// A health watcher polls every backend's /healthz. Draining or dead
// backends take no new sessions, and their live sessions are evacuated onto
// the survivors by the same placement rule. A backend that dies mid-request
// costs the client at most one typed error (CAPTURE, which is not safely
// retryable, returns CodeUnavailable); idempotent requests are retried once
// on the replacement and the client never notices.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// Backend identifies one rpxd: the wire address sessions are proxied to
// and an optional admin address the health watcher probes for /healthz.
type Backend struct {
	Addr  string
	Admin string
}

// ParseBackends parses the -backends flag syntax: comma-separated
// "addr[@admin]" entries, e.g.
// "10.0.0.1:7621@10.0.0.1:9621,10.0.0.2:7621".
func ParseBackends(s string) ([]Backend, error) {
	var out []Backend
	seen := make(map[string]struct{})
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		addr, admin, _ := strings.Cut(part, "@")
		if addr == "" {
			return nil, fmt.Errorf("gateway: backend entry %q has no wire address", part)
		}
		if _, dup := seen[addr]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", addr)
		}
		seen[addr] = struct{}{}
		out = append(out, Backend{Addr: addr, Admin: admin})
	}
	if len(out) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	return out, nil
}

// Config tunes the gateway.
type Config struct {
	// Backends is the rpxd fleet (required, non-empty). Its order breaks
	// placement ties.
	Backends []Backend
	// MaxPayload caps relayed message payloads (0 = wire.DefaultMaxPayload).
	MaxPayload int
	// DialTimeout bounds one backend dial (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds each blocking client read (default 2 minutes,
	// matching rpxd).
	ReadTimeout time.Duration
	// WriteTimeout bounds each client reply write (default 30s).
	WriteTimeout time.Duration
	// BackendTimeout bounds one backend round trip (default 30s).
	BackendTimeout time.Duration
	// Health tunes the backend health watcher.
	Health WatcherConfig
	// Metrics, when non-nil, receives the rpxgw_* series.
	Metrics *obs.Registry
}

// Defaults for Config zero values.
const (
	DefaultDialTimeout    = 5 * time.Second
	DefaultBackendTimeout = 30 * time.Second
)

// Gateway is the session proxy. Create with New, run with Serve, stop with
// Shutdown.
//
// Lock order: a proxySession's mu may be held while acquiring g.mu (load
// accounting happens inside backend swaps), and g.mu while acquiring the
// watcher's, so nothing may acquire a session's mu while holding g.mu —
// evacuation snapshots the session set under g.mu, releases it, and only
// then touches sessions.
type Gateway struct {
	server.ConnServer
	cfg     Config
	watcher *Watcher

	mu sync.Mutex
	// sessions holds the proxied sessions by the id each client was given:
	// its first HELLO_ACK's, which a migration does not change. rpxd draws
	// session ids at random, so they are unique across the fleet.
	sessions  map[uint64]*proxySession
	localLoad map[string]int // gateway-local sessions pinned per backend

	sessionsOpen  obs.Gauge
	sessionsTotal obs.Counter
	rerouted      obs.Counter
	healthFlips   obs.Counter
	openFailures  obs.Counter
	opHist        [len(proxyOps)]obs.Histogram
}

// proxyOps enumerates the request types the gateway times; the order fixes
// the histogram index.
var proxyOps = [...]struct {
	typ  byte
	name string
}{
	{wire.MsgSetLabels, "set_labels"},
	{wire.MsgCapture, "capture"},
	{wire.MsgDecode, "decode"},
	{wire.MsgClose, "close"},
	{wire.MsgSubscribe, "subscribe"},
}

// observe records the latency of one proxied op of type typ.
func (g *Gateway) observe(typ byte, start time.Time) {
	for i, op := range proxyOps {
		if op.typ == typ {
			g.opHist[i].Observe(time.Since(start))
		}
	}
}

// idempotent reports whether a request can be retried on a replacement
// backend after a mid-request transport failure. CAPTURE cannot: the dead
// backend may have encoded the frame before the reply was lost, and
// re-submitting would double-count it in capture statistics. CLOSE is
// answered locally on failure instead of retried.
func idempotent(typ byte) bool {
	switch typ {
	case wire.MsgSetLabels, wire.MsgDecode:
		return true
	}
	return false
}

// New builds a gateway over cfg.Backends. Every backend starts routable
// (StateUnknown routes optimistically — a dead one just fails over at dial
// time until the first probe round marks it).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = wire.DefaultMaxPayload
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.BackendTimeout <= 0 {
		cfg.BackendTimeout = DefaultBackendTimeout
	}
	g := &Gateway{
		cfg:       cfg,
		sessions:  make(map[uint64]*proxySession),
		localLoad: make(map[string]int),
	}
	g.ReadTimeout = cfg.ReadTimeout
	hcfg := cfg.Health
	hcfg.OnChange = g.onHealthChange
	g.watcher = NewWatcher(cfg.Backends, hcfg)
	if cfg.Metrics != nil {
		g.registerMetrics(cfg.Metrics)
	}
	return g, nil
}

// Watcher returns the backend health watcher (for a deterministic Probe in
// tests and operator tooling).
func (g *Gateway) Watcher() *Watcher { return g.watcher }

// onHealthChange is the watcher callback: a backend that stops being
// routable has its sessions evacuated. pick reads the watcher's states
// directly, so nothing else tracks them.
func (g *Gateway) onHealthChange(addr string, from, to State) {
	g.healthFlips.Inc()
	if !to.routable() {
		go g.evacuate(addr)
	}
}

// evacuate migrates every session pinned to addr onto a survivor. A session
// mid-round-trip holds its own lock, so evacuation naturally waits for the
// message boundary. Migration failures leave the session backend-less; its
// next request retries migration and, failing that, gets CodeUnavailable.
func (g *Gateway) evacuate(addr string) {
	for _, s := range g.snapshotSessions() {
		s.mu.Lock()
		if s.backendAddr == addr {
			s.migrateLocked(addr)
		}
		s.mu.Unlock()
	}
}

func (g *Gateway) snapshotSessions() []*proxySession {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*proxySession, 0, len(g.sessions))
	for _, s := range g.sessions {
		out = append(out, s)
	}
	return out
}

// pick chooses the backend to place a session on: among the backends skip
// does not exclude and the watcher has not marked draining or dead, the one
// holding the fewest of this gateway's sessions, ties going in -backends
// order. It counts the session there at once, before the handshake, so
// that concurrent placements spread instead of all reading the same loads;
// adoptBackendLocked uncounts it if the backend refuses. It returns "" when
// no backend qualifies.
func (g *Gateway) pick(skip func(addr string) bool) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	best := ""
	for _, b := range g.cfg.Backends {
		if skip(b.Addr) || !g.watcher.Status(b.Addr).State.routable() {
			continue
		}
		if best == "" || g.localLoad[b.Addr] < g.localLoad[best] {
			best = b.Addr
		}
	}
	if best != "" {
		g.localLoad[best]++
	}
	return best
}

// unload takes one session off a backend's gateway-local count.
func (g *Gateway) unload(addr string) {
	g.mu.Lock()
	g.localLoad[addr]--
	if g.localLoad[addr] <= 0 {
		delete(g.localLoad, addr)
	}
	g.mu.Unlock()
}

// Serve starts the health watcher and accepts client connections until
// Shutdown. It returns nil on graceful shutdown.
func (g *Gateway) Serve(ln net.Listener) error {
	g.watcher.Start()
	return g.ConnServer.Serve(ln, g.handle)
}

// Shutdown drains the client connections (server.ConnServer.Shutdown), then
// stops the health watcher.
func (g *Gateway) Shutdown(ctx context.Context) error {
	err := g.ConnServer.Shutdown(ctx)
	g.watcher.Stop()
	return err
}

// proxySession is one client session pinned to one backend. hello and
// labels hold copies of the raw payload bytes the client sent, replayed
// verbatim on migration so the replacement backend sees exactly the
// original workload.
type proxySession struct {
	gw *Gateway
	id uint64 // the session id its client holds: the first HELLO_ACK's

	mu          sync.Mutex
	backendAddr string
	bconn       net.Conn
	bbr         *bufio.Reader
	hello       []byte
	labels      []byte
	remoteID    uint64 // session id the pinned backend assigned
	// reply receives every backend reply forwardLocked reads; a reply is
	// relayed to the client before the connection's next request.
	reply []byte
}

// clientConn is one client connection's framing: a buffered reader, the
// buffer every client message is read into (the next read reuses it), and
// one MessageWriter, which sends each message in a single vectored write
// and keeps a stream's two pumps from tearing each other's messages.
type clientConn struct {
	g    *Gateway
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	mw   *wire.MessageWriter
}

// read reads the client's next message under the read deadline.
func (c *clientConn) read() (byte, []byte, error) {
	c.g.ArmRead(c.conn)
	return wire.ReadMessageInto(c.br, &c.buf, c.g.cfg.MaxPayload)
}

// write sends one message to the client under the write deadline.
func (c *clientConn) write(typ byte, payload []byte) error {
	c.conn.SetWriteDeadline(time.Now().Add(c.g.cfg.WriteTimeout))
	return c.mw.WriteMessage(typ, payload, c.g.cfg.MaxPayload)
}

// writeErr sends the client a typed ERROR.
func (c *clientConn) writeErr(code uint16, msg string) error {
	return c.write(wire.MsgError, wire.MarshalError(code, msg))
}

// handle serves one client connection in the role its first message
// fixes.
func (g *Gateway) handle(conn net.Conn) {
	defer conn.Close()
	c := &clientConn{g: g, conn: conn, br: bufio.NewReader(conn), mw: wire.NewMessageWriter(conn)}
	typ, payload, err := c.read()
	if err != nil {
		return
	}
	switch typ {
	case wire.MsgHello:
		g.serveSession(c, payload)
	case wire.MsgSubscribe:
		g.relayStream(c, payload)
	default:
		c.writeErr(wire.CodeProto, fmt.Sprintf("first message must be HELLO or SUBSCRIBE, got %d", typ))
	}
}

// serveSession validates the HELLO, pins a backend, then relays
// request/reply pairs in lockstep until CLOSE or disconnect.
func (g *Gateway) serveSession(c *clientConn, payload []byte) {
	// Validate before routing so a malformed handshake is rejected here and
	// never burns a backend dial.
	if _, err := wire.UnmarshalHello(payload); err != nil {
		c.writeErr(wire.CodeProto, err.Error())
		return
	}
	// The HELLO is kept for migration replay, so it is copied out of the
	// connection's read buffer.
	s := &proxySession{gw: g, hello: bytes.Clone(payload)}

	ack, reject, err := s.open()
	if reject != nil {
		// Deterministic backend rejection (bad geometry, bad request):
		// relayed verbatim, no failover — every backend would say the same.
		c.writeErr(reject.Code, reject.Message)
		return
	}
	if err != nil {
		g.openFailures.Inc()
		c.writeErr(wire.CodeUnavailable, err.Error())
		return
	}
	s.id = s.remoteID
	g.mu.Lock()
	g.sessions[s.id] = s
	g.mu.Unlock()
	g.sessionsTotal.Inc()
	g.sessionsOpen.Add(1)
	// release deregisters the session. CLOSE runs it before relaying the
	// ACK, so a client holding that ACK never sees the session counted.
	release := sync.OnceFunc(func() {
		g.mu.Lock()
		delete(g.sessions, s.id)
		g.mu.Unlock()
		g.sessionsOpen.Add(-1)
		s.mu.Lock()
		s.closeBackendLocked()
		s.mu.Unlock()
	})
	defer release()
	if c.write(wire.MsgHelloAck, ack) != nil {
		return
	}

	for {
		typ, payload, err := c.read()
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				c.writeErr(wire.CodeTooLarge, err.Error())
			}
			return
		}
		start := time.Now()
		rtyp, rpayload := s.roundTrip(typ, payload)
		g.observe(typ, start)
		if typ == wire.MsgClose {
			release()
			c.write(rtyp, rpayload)
			return
		}
		if c.write(rtyp, rpayload) != nil {
			return
		}
	}
}

// open pins the session to its first backend, trying backends in pick's
// order. A deterministic protocol rejection (any RemoteError but
// CodeSessionLimit) is returned as reject for verbatim relay; transport
// failures and full backends fail over to the next pick. On success the raw
// HELLO_ACK payload is returned for relay.
func (s *proxySession) open() (ack []byte, reject *wire.RemoteError, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tried := make(map[string]bool)
	skip := func(addr string) bool { return tried[addr] }
	err = errors.New("no routable backend")
	for addr := s.gw.pick(skip); addr != ""; addr = s.gw.pick(skip) {
		tried[addr] = true
		ack, oerr := s.adoptBackendLocked(addr)
		if oerr == nil {
			return ack, nil, nil
		}
		var re *wire.RemoteError
		if errors.As(oerr, &re) && re.Code != wire.CodeSessionLimit {
			return nil, re, nil
		}
		err = oerr
	}
	return nil, nil, err
}

// adoptBackendLocked dials addr, which pick has counted the session on,
// replays the session's HELLO (and last SET_LABELS, if any), and on success
// pins the session there, returning the raw HELLO_ACK payload. On failure
// it uncounts the session.
func (s *proxySession) adoptBackendLocked(addr string) (ackPayload []byte, err error) {
	defer func() {
		if err != nil {
			s.gw.unload(addr)
		}
	}()
	conn, br, ackPayload, err := wire.Dial(addr, s.gw.cfg.DialTimeout, wire.MsgHello, s.hello,
		s.gw.cfg.MaxPayload, s.gw.cfg.BackendTimeout)
	if err != nil {
		return nil, err
	}
	ack, err := wire.UnmarshalHelloAck(ackPayload)
	if err == nil && s.labels != nil {
		err = s.replayLabels(conn, br)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.bconn, s.bbr, s.backendAddr = conn, br, addr
	// SUBSCRIBE targets naming this session are rewritten to this id.
	s.remoteID = ack.SessionID
	return ackPayload, nil
}

// replayLabels re-installs the kept SET_LABELS payload on a freshly
// handshaken backend connection and expects the ACK. A rejection wraps the
// backend's *wire.RemoteError; any other failure leaves the connection's
// framing unusable.
func (s *proxySession) replayLabels(conn net.Conn, br *bufio.Reader) error {
	timeout, maxPayload := s.gw.cfg.BackendTimeout, s.gw.cfg.MaxPayload
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := wire.WriteMessage(conn, wire.MsgSetLabels, s.labels, maxPayload); err != nil {
		return fmt.Errorf("replay labels: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	typ, payload, err := wire.ReadMessage(br, maxPayload)
	if err != nil {
		return fmt.Errorf("replay labels: %w", err)
	}
	switch typ {
	case wire.MsgAck:
		return nil
	case wire.MsgError:
		if re, uerr := wire.UnmarshalError(payload); uerr == nil {
			return fmt.Errorf("replay labels rejected: %w", re)
		}
		return errors.New("replay labels rejected")
	default:
		return fmt.Errorf("unexpected replay-labels reply type %d", typ)
	}
}

// closeBackendLocked tears down the backend side, releasing the load pin.
func (s *proxySession) closeBackendLocked() {
	if s.bconn != nil {
		s.bconn.Close()
	}
	s.bconn, s.bbr = nil, nil
	if s.backendAddr != "" {
		s.remoteID = 0
		s.gw.unload(s.backendAddr)
		s.backendAddr = ""
	}
}

// migrateLocked moves the session onto a backend other than exclude (the
// one it just left, or ""), trying backends in pick's order and replaying
// HELLO and labels. On failure the session is left backend-less; callers
// decide whether that is an error reply (round trip) or deferred
// (evacuation).
func (s *proxySession) migrateLocked(exclude string) error {
	s.closeBackendLocked()
	tried := map[string]bool{exclude: true}
	skip := func(addr string) bool { return tried[addr] }
	err := errors.New("no healthy backend")
	for addr := s.gw.pick(skip); addr != ""; addr = s.gw.pick(skip) {
		tried[addr] = true
		if _, err = s.adoptBackendLocked(addr); err == nil {
			s.gw.rerouted.Inc()
			return nil
		}
	}
	return err
}

// forwardLocked relays one request to the pinned backend and reads the one
// reply. Any transport failure closes the backend side — the framing is
// unrecoverable mid-message.
func (s *proxySession) forwardLocked(typ byte, payload []byte) (byte, []byte, error) {
	s.bconn.SetWriteDeadline(time.Now().Add(s.gw.cfg.BackendTimeout))
	if err := wire.WriteMessage(s.bconn, typ, payload, s.gw.cfg.MaxPayload); err != nil {
		s.closeBackendLocked()
		return 0, nil, err
	}
	s.bconn.SetReadDeadline(time.Now().Add(s.gw.cfg.BackendTimeout))
	rtyp, rpayload, err := wire.ReadMessageInto(s.bbr, &s.reply, s.gw.cfg.MaxPayload)
	if err != nil {
		s.closeBackendLocked()
		return 0, nil, err
	}
	return rtyp, rpayload, nil
}

// roundTrip serves one request, migrating across backend failure. It always
// returns exactly one reply so client framing stays in lockstep: relayed
// backend bytes, or a typed CodeUnavailable error when no backend could
// serve the request.
func (s *proxySession) roundTrip(typ byte, payload []byte) (byte, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unavailable := func(format string, a ...any) (byte, []byte) {
		return wire.MsgError, wire.MarshalError(wire.CodeUnavailable, fmt.Sprintf(format, a...))
	}

	// A failed evacuation can leave the session backend-less between
	// requests; retry placement before giving up on the op.
	if s.bconn == nil {
		if typ == wire.MsgClose {
			return wire.MsgAck, nil
		}
		if err := s.migrateLocked(""); err != nil {
			return unavailable("session unplaced: %v", err)
		}
	}

	rtyp, rpayload, err := s.forwardLocked(typ, payload)
	if err == nil {
		if typ == wire.MsgSetLabels && rtyp == wire.MsgAck {
			s.keepLabels(payload)
		}
		return rtyp, rpayload
	}

	// The routed backend died mid-request. CLOSE is acknowledged locally —
	// the session it would have closed is gone with the backend. Everything
	// else migrates first so the session survives, then the request is
	// retried only if that is safe.
	failed := s.backendAddr
	if failed == "" {
		failed = "backend"
	}
	if typ == wire.MsgClose {
		return wire.MsgAck, nil
	}
	if merr := s.migrateLocked(failed); merr != nil {
		return unavailable("%s failed mid-request (%v) and no replacement: %v", failed, err, merr)
	}
	if !idempotent(typ) {
		return unavailable("%s failed during non-retryable request; session migrated to %s", failed, s.backendAddr)
	}
	rtyp, rpayload, err = s.forwardLocked(typ, payload)
	if err != nil {
		return unavailable("retry on %s failed: %v", s.backendAddr, err)
	}
	if typ == wire.MsgSetLabels && rtyp == wire.MsgAck {
		s.keepLabels(payload)
	}
	return rtyp, rpayload
}

// keepLabels records an acknowledged SET_LABELS payload for migration
// replay. payload lives in the connection's read buffer, so it is copied,
// into the storage of the workload it replaces. Callers hold s.mu.
func (s *proxySession) keepLabels(payload []byte) {
	s.labels = append(s.labels[:0], payload...)
}

// registerMetrics publishes the rpxgw_* series.
func (g *Gateway) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("rpxgw_sessions_open", "Currently proxied sessions.",
		func() float64 { return float64(g.sessionsOpen.Load()) })
	reg.CounterFunc("rpxgw_sessions_opened_total", "Proxied sessions opened over the process lifetime.",
		func() uint64 { return g.sessionsTotal.Load() })
	reg.CounterFunc("rpxgw_sessions_rerouted_total", "Session migrations onto a replacement backend.",
		func() uint64 { return g.rerouted.Load() })
	reg.CounterFunc("rpxgw_backend_health_flips_total", "Backend health state transitions observed by the watcher.",
		func() uint64 { return g.healthFlips.Load() })
	reg.CounterFunc("rpxgw_open_failures_total", "Client HELLOs that found no routable backend.",
		func() uint64 { return g.openFailures.Load() })
	for i := range proxyOps {
		reg.RegisterHistogram("rpxgw_proxy_op_latency_seconds",
			"Proxied operation latency (forward, backend execution, reply relay).",
			&g.opHist[i], obs.L("op", proxyOps[i].name))
	}
	reg.Collect(func(emit func(obs.Sample)) {
		for _, b := range g.cfg.Backends {
			st := g.watcher.Status(b.Addr)
			label := obs.L("backend", b.Addr)
			up := 0.0
			if st.State.routable() {
				up = 1.0
			}
			emit(obs.Sample{Name: "rpxgw_backend_up",
				Help: "1 while the backend is routable (healthy or not yet probed).",
				Kind: obs.KindGauge, Labels: []obs.Label{label}, Value: up})
			g.mu.Lock()
			local := g.localLoad[b.Addr]
			g.mu.Unlock()
			emit(obs.Sample{Name: "rpxgw_backend_sessions",
				Help: "Sessions this gateway currently pins to the backend.",
				Kind: obs.KindGauge, Labels: []obs.Label{label}, Value: float64(local)})
		}
	})
}

// BackendSnapshot is one backend's state in a Snapshot.
type BackendSnapshot struct {
	State         string `json:"state"`
	LocalSessions int    `json:"local_sessions"`
}

// Snapshot is the gateway's final-stats summary (logged on shutdown).
type Snapshot struct {
	SessionsOpen  int                        `json:"sessions_open"`
	SessionsTotal uint64                     `json:"sessions_total"`
	Rerouted      uint64                     `json:"sessions_rerouted"`
	HealthFlips   uint64                     `json:"backend_health_flips"`
	OpenFailures  uint64                     `json:"open_failures"`
	Backends      map[string]BackendSnapshot `json:"backends"`
}

// Snapshot captures current gateway statistics.
func (g *Gateway) Snapshot() Snapshot {
	snap := Snapshot{
		SessionsTotal: g.sessionsTotal.Load(),
		Rerouted:      g.rerouted.Load(),
		HealthFlips:   g.healthFlips.Load(),
		OpenFailures:  g.openFailures.Load(),
		Backends:      make(map[string]BackendSnapshot, len(g.cfg.Backends)),
	}
	g.mu.Lock()
	snap.SessionsOpen = len(g.sessions)
	local := make(map[string]int, len(g.localLoad))
	for a, n := range g.localLoad {
		local[a] = n
	}
	g.mu.Unlock()
	for _, b := range g.cfg.Backends {
		snap.Backends[b.Addr] = BackendSnapshot{
			State:         g.watcher.Status(b.Addr).State.String(),
			LocalSessions: local[b.Addr],
		}
	}
	return snap
}
