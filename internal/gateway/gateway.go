// Package gateway implements rpxgw's session proxy: a consistent-hash
// router that sits in front of a fleet of rpxd backends and speaks the rpxd
// wire protocol on both sides.
//
// Each client connection is pinned to one backend at HELLO time by hashing
// a per-connection session key onto the ring; from then on the gateway
// relays messages in lockstep (read request, forward, read reply, forward)
// without decoding frame payloads. The strict one-reply-per-request shape
// of the protocol is what makes migration safe: between round trips a
// session has no in-flight state on the wire, so the gateway can tear the
// backend connection down and rebuild it elsewhere — replaying the client's
// original HELLO and last SET_LABELS bytes via the same replay package the
// rpx client's reconnect path uses — at any message boundary.
//
// A health watcher polls every backend's /healthz. Draining or dead
// backends leave the ring (new sessions avoid them) and their live sessions
// are evacuated onto the least-loaded survivors. A backend that dies
// mid-request costs the client at most one typed error (CAPTURE, which is
// not safely retryable, returns CodeUnavailable); idempotent requests are
// retried once on the replacement and the client never notices.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/rpx/client/replay"
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
	// Backends is the rpxd fleet (required, non-empty).
	Backends []Backend
	// VNodes is the ring's virtual-node count per backend (0 = DefaultVNodes).
	VNodes int
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
// accounting happens inside backend swaps), so nothing may acquire a
// session's mu while holding g.mu — evacuation and shutdown snapshot the
// session set under g.mu, release it, and only then touch sessions.
type Gateway struct {
	cfg     Config
	ring    *Ring
	watcher *Watcher

	mu         sync.Mutex
	ln         net.Listener
	draining   bool
	conns      map[net.Conn]struct{}
	sessions   map[*proxySession]struct{}
	localLoad  map[string]int    // gateway-local sessions pinned per backend
	remotePins map[uint64]string // backend-assigned session id -> backend addr
	nextKey    uint64
	wg         sync.WaitGroup

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
	{wire.MsgDecodeWindow, "decode_window"},
	{wire.MsgGetEncoded, "get_encoded"},
	{wire.MsgStats, "stats"},
	{wire.MsgClose, "close"},
	{wire.MsgSubscribe, "subscribe"},
}

func opIndex(typ byte) int {
	for i, op := range proxyOps {
		if op.typ == typ {
			return i
		}
	}
	return -1
}

// idempotent reports whether a request can be retried on a replacement
// backend after a mid-request transport failure. CAPTURE cannot: the dead
// backend may have encoded the frame before the reply was lost, and
// re-submitting would double-count it in capture statistics. CLOSE is
// answered locally on failure instead of retried.
func idempotent(typ byte) bool {
	switch typ {
	case wire.MsgSetLabels, wire.MsgDecode, wire.MsgDecodeWindow, wire.MsgGetEncoded, wire.MsgStats:
		return true
	}
	return false
}

// New builds a gateway over cfg.Backends. Every backend starts on the ring
// (StateUnknown routes optimistically — a dead one just fails over at dial
// time until the first probe round evicts it).
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
		ring:      NewRing(cfg.VNodes),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(map[*proxySession]struct{}),
		localLoad: make(map[string]int),
	}
	for _, b := range cfg.Backends {
		g.ring.Add(b.Addr)
	}
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

// SessionsOpen returns the number of proxied sessions currently open; it is
// the gateway's own /healthz session count.
func (g *Gateway) SessionsOpen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// onHealthChange is the watcher callback: ring membership tracks health,
// and leaving the ring triggers evacuation of the sessions pinned there.
func (g *Gateway) onHealthChange(addr string, from, to State) {
	g.healthFlips.Inc()
	switch to {
	case StateHealthy:
		g.ring.Add(addr)
	case StateDraining, StateDead:
		g.ring.Remove(addr)
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
	for s := range g.sessions {
		out = append(out, s)
	}
	return out
}

// noteLoad adjusts the gateway-local pin count of one backend.
func (g *Gateway) noteLoad(addr string, delta int) {
	g.mu.Lock()
	g.localLoad[addr] += delta
	if g.localLoad[addr] <= 0 {
		delete(g.localLoad, addr)
	}
	g.mu.Unlock()
}

// migrationTargets returns candidate backends for (re)placing a session:
// the ring-walk failover order from the session's key, minus the excluded
// and unhealthy members, stably sorted least-loaded first. Load is the
// backend's own healthz-reported session count when the watcher has one
// (the whole-fleet truth), else this gateway's local pin count.
func (g *Gateway) migrationTargets(key, exclude string) []string {
	seq := g.ring.Sequence(key)
	cands := make([]string, 0, len(seq))
	for _, addr := range seq {
		if addr == exclude {
			continue
		}
		if st := g.watcher.Status(addr); st.State == StateDraining || st.State == StateDead {
			continue
		}
		cands = append(cands, addr)
	}
	weight := func(addr string) int {
		if st := g.watcher.Status(addr); st.Sessions >= 0 {
			return st.Sessions
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.localLoad[addr]
	}
	sort.SliceStable(cands, func(i, j int) bool { return weight(cands[i]) < weight(cands[j]) })
	return cands
}

// Serve accepts client connections until the listener closes via Shutdown.
// It starts the health watcher and returns nil on graceful shutdown.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return errors.New("gateway: already shut down")
	}
	g.ln = ln
	g.mu.Unlock()
	g.watcher.Start()

	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			draining := g.draining
			g.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			conn.Close()
			continue
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go func() {
			defer g.wg.Done()
			g.handle(conn)
			g.mu.Lock()
			delete(g.conns, conn)
			g.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, wakes blocked client reads, waits for handlers
// to finish or ctx to expire (then force-closes), and stops the watcher.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	ln := g.ln
	for conn := range g.conns {
		conn.SetReadDeadline(time.Now())
	}
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = errors.New("gateway: drain deadline exceeded")
		g.mu.Lock()
		for conn := range g.conns {
			conn.Close()
		}
		g.mu.Unlock()
		<-done
	}
	g.watcher.Stop()
	return err
}

// armRead sets the deadline for a handler's next client read. Shutdown
// wakes blocked reads by expiring their deadlines; a handler that re-arms
// after that wake-up gets an expired deadline too, instead of blocking for
// a full ReadTimeout and stalling the drain.
func (g *Gateway) armRead(conn net.Conn) {
	g.mu.Lock()
	defer g.mu.Unlock()
	deadline := time.Now().Add(g.cfg.ReadTimeout)
	if g.draining {
		deadline = time.Now()
	}
	conn.SetReadDeadline(deadline)
}

// proxySession is one client connection pinned to one backend. hello and
// labels hold copies of the raw payload bytes the client sent, replayed
// verbatim on migration so the replacement backend sees exactly the
// original workload.
type proxySession struct {
	gw     *Gateway
	key    string
	client net.Conn

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

// handle runs one client connection: validate HELLO, pin a backend, then
// relay request/reply pairs in lockstep.
func (g *Gateway) handle(conn net.Conn) {
	defer conn.Close()
	cbr := bufio.NewReader(conn)
	// One MessageWriter per client connection: each message leaves in a
	// single vectored write, and its internal lock keeps the streaming
	// relay's pump goroutine from tearing frames against this loop's writes.
	// Every client message is read into cbuf, which the next read reuses, so
	// the HELLO and SET_LABELS payloads kept for migration replay are copies.
	cmw := wire.NewMessageWriter(conn)
	var cbuf []byte
	writeClient := func(typ byte, payload []byte) error {
		conn.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout))
		return cmw.WriteMessage(typ, payload, g.cfg.MaxPayload)
	}
	writeErr := func(code uint16, msg string) error {
		return writeClient(wire.MsgError, wire.MarshalError(code, msg))
	}

	g.armRead(conn)
	typ, payload, err := wire.ReadMessageInto(cbr, &cbuf, g.cfg.MaxPayload)
	if err != nil {
		return
	}
	if typ != wire.MsgHello {
		writeErr(wire.CodeProto, fmt.Sprintf("first message must be HELLO, got %d", typ))
		return
	}
	// Validate before routing so a malformed handshake is rejected here and
	// never burns a backend dial.
	if _, err := wire.UnmarshalHello(payload); err != nil {
		writeErr(wire.CodeProto, err.Error())
		return
	}

	g.mu.Lock()
	g.nextKey++
	key := conn.RemoteAddr().String() + "#" + strconv.FormatUint(g.nextKey, 10)
	g.mu.Unlock()
	s := &proxySession{gw: g, key: key, client: conn, hello: bytes.Clone(payload)}

	ack, reject, err := s.open()
	if reject != nil {
		// Deterministic backend rejection (bad geometry, bad request):
		// relayed verbatim, no failover — every backend would say the same.
		writeClient(wire.MsgError, wire.MarshalError(reject.Code, reject.Message))
		return
	}
	if err != nil {
		g.openFailures.Inc()
		writeErr(wire.CodeUnavailable, err.Error())
		return
	}
	g.mu.Lock()
	g.sessions[s] = struct{}{}
	g.mu.Unlock()
	g.sessionsTotal.Inc()
	g.sessionsOpen.Add(1)
	// release deregisters the session. CLOSE runs it before relaying the
	// ACK, so a client holding that ACK never sees the session counted.
	release := sync.OnceFunc(func() {
		g.mu.Lock()
		delete(g.sessions, s)
		g.mu.Unlock()
		g.sessionsOpen.Add(-1)
		s.mu.Lock()
		s.closeBackendLocked()
		s.mu.Unlock()
	})
	defer release()
	if writeClient(wire.MsgHelloAck, ack) != nil {
		return
	}

	for {
		g.armRead(conn)
		typ, payload, err := wire.ReadMessageInto(cbr, &cbuf, g.cfg.MaxPayload)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				writeErr(wire.CodeTooLarge, err.Error())
			}
			return
		}
		// SUBSCRIBE hands the connection to the streaming relay until the
		// stream ends; it may return a request that arrived after a
		// server-side stream end (possibly another SUBSCRIBE).
		for typ == wire.MsgSubscribe {
			start := time.Now()
			var ok bool
			typ, payload, ok = s.relayStream(conn, cbr, &cbuf, writeClient, payload)
			if i := opIndex(wire.MsgSubscribe); i >= 0 {
				g.opHist[i].Observe(time.Since(start))
			}
			if !ok {
				return
			}
		}
		if typ == 0 || wire.IsStreamMessage(typ) {
			// The stream ended cleanly with nothing pending, or a stream
			// message outlived its stream: the backend would send no reply
			// to it, so it is not forwarded.
			continue
		}
		start := time.Now()
		rtyp, rpayload := s.roundTrip(typ, payload)
		if i := opIndex(typ); i >= 0 {
			g.opHist[i].Observe(time.Since(start))
		}
		if typ == wire.MsgClose {
			release()
			writeClient(rtyp, rpayload)
			return
		}
		if writeClient(rtyp, rpayload) != nil {
			return
		}
	}
}

// open pins the session to its first backend: the ring-walk order from the
// session key, skipping members the watcher has cordoned. A deterministic
// protocol rejection (any RemoteError but CodeSessionLimit) is returned as
// reject for verbatim relay; transport failures and full backends fail over
// to the next candidate. On success the raw HELLO_ACK payload is returned
// for relay.
func (s *proxySession) open() (ack []byte, reject *wire.RemoteError, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lastErr error
	for _, addr := range s.gw.ring.Sequence(s.key) {
		if st := s.gw.watcher.Status(addr); st.State == StateDraining || st.State == StateDead {
			continue
		}
		ackPayload, oerr := s.adoptBackendLocked(addr)
		if oerr == nil {
			return ackPayload, nil, nil
		}
		var re *wire.RemoteError
		if errors.As(oerr, &re) && re.Code != wire.CodeSessionLimit {
			return nil, re, nil
		}
		lastErr = oerr
	}
	if lastErr == nil {
		lastErr = errors.New("no routable backend")
	}
	return nil, nil, lastErr
}

// adoptBackendLocked dials addr, replays the session's HELLO (and last
// SET_LABELS, if any), and on success pins the session there, returning the
// raw HELLO_ACK payload.
func (s *proxySession) adoptBackendLocked(addr string) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, s.gw.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	ack, ackPayload, err := replay.Handshake(conn, br, s.hello, s.gw.cfg.MaxPayload, s.gw.cfg.BackendTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if s.labels != nil {
		if err := replay.InstallLabels(conn, br, s.labels, s.gw.cfg.MaxPayload, s.gw.cfg.BackendTimeout); err != nil {
			conn.Close()
			return nil, err
		}
	}
	s.bconn, s.bbr, s.backendAddr = conn, br, addr
	// Remember which backend owns this remote session id so SUBSCRIBE
	// targets can be routed to the producer's backend.
	s.remoteID = ack.SessionID
	s.gw.setRemotePin(ack.SessionID, addr)
	s.gw.noteLoad(addr, +1)
	return ackPayload, nil
}

// closeBackendLocked tears down the backend side, releasing the load pin.
func (s *proxySession) closeBackendLocked() {
	if s.bconn != nil {
		s.bconn.Close()
	}
	s.bconn, s.bbr = nil, nil
	if s.backendAddr != "" {
		s.gw.dropRemotePin(s.remoteID, s.backendAddr)
		s.remoteID = 0
		s.gw.noteLoad(s.backendAddr, -1)
		s.backendAddr = ""
	}
}

// migrateLocked moves the session onto the least-loaded healthy survivor
// (excluding the backend it just left), replaying HELLO and labels. On
// failure the session is left backend-less; callers decide whether that is
// an error reply (round trip) or deferred (evacuation).
func (s *proxySession) migrateLocked(exclude string) error {
	s.closeBackendLocked()
	var lastErr error
	for _, addr := range s.gw.migrationTargets(s.key, exclude) {
		if _, err := s.adoptBackendLocked(addr); err != nil {
			lastErr = err
			continue
		}
		s.gw.rerouted.Inc()
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy backend")
	}
	return lastErr
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
			if st.State == StateHealthy || st.State == StateUnknown {
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
	State            string `json:"state"`
	LocalSessions    int    `json:"local_sessions"`
	ReportedSessions int    `json:"reported_sessions"`
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
		st := g.watcher.Status(b.Addr)
		snap.Backends[b.Addr] = BackendSnapshot{
			State:            st.State.String(),
			LocalSessions:    local[b.Addr],
			ReportedSessions: st.Sessions,
		}
	}
	return snap
}
