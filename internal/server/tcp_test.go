package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/region"
	"repro/internal/wire"
)

// startTestServer returns a serving TCPServer and its address.
func startTestServer(t *testing.T, mcfg Config, tcfg TCPConfig) (*TCPServer, string) {
	t.Helper()
	srv := NewTCPServer(NewManager(mcfg), tcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func readExpect(t *testing.T, conn net.Conn, want byte) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(conn, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != want {
		if typ == wire.MsgError {
			re, _ := wire.UnmarshalError(payload)
			t.Fatalf("got error reply %v, want type %d", re, want)
		}
		t.Fatalf("got message type %d, want %d", typ, want)
	}
	return payload
}

func readError(t *testing.T, conn net.Conn, wantCode uint16) *wire.RemoteError {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(conn, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != wire.MsgError {
		t.Fatalf("got message type %d, want ERROR", typ)
	}
	re, err := wire.UnmarshalError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != wantCode {
		t.Fatalf("error code = %d (%s), want %d", re.Code, re.Message, wantCode)
	}
	return re
}

func TestTCPRejectsNonHelloFirst(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgDecode, nil, 0); err != nil {
		t.Fatal(err)
	}
	readError(t, conn, wire.CodeProto)
}

// TestTCPRejectsBadHello: a HELLO of any other protocol version draws a
// CodeProto ERROR, in today's layout or in a retired revision's own, and
// opens no session. v11 and v10 had today's layout. v9 appended a u32 decoder history depth to today's
// fields, which sized the session's history ring: at depth 1<<30 the open
// ended a v9 server with an out-of-memory error. v7 appended a u32 queue
// depth and a u8 block flag to those. The server keeps serving: a valid
// HELLO opens a session afterwards.
func TestTCPRejectsBadHello(t *testing.T) {
	srv, addr := startTestServer(t, Config{}, TCPConfig{})
	hello := wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8})
	corrupt := bytes.Clone(hello)
	corrupt[4] = 99 // corrupt the protocol version
	v11 := bytes.Clone(hello)
	binary.LittleEndian.PutUint32(v11[4:], 11)
	v10 := bytes.Clone(hello)
	binary.LittleEndian.PutUint32(v10[4:], 10)
	v9 := binary.LittleEndian.AppendUint32(bytes.Clone(hello), 1<<30)
	binary.LittleEndian.PutUint32(v9[4:], 9)
	v7 := append(binary.LittleEndian.AppendUint32(bytes.Clone(v9), 16), 1)
	binary.LittleEndian.PutUint32(v7[4:], 7)
	for _, payload := range [][]byte{corrupt, v11, v10, v9, v7} {
		conn := dialRaw(t, addr)
		if err := wire.WriteMessage(conn, wire.MsgHello, payload, 0); err != nil {
			t.Fatal(err)
		}
		readError(t, conn, wire.CodeProto)
	}
	if n := srv.Manager().Snapshot().SessionsOpened; n != 0 {
		t.Fatalf("rejected HELLOs opened %d sessions", n)
	}
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, hello, 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
}

func TestTCPEnforcesPayloadCap(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{MaxPayload: 4096})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
	// A message above the cap draws TOO_LARGE and a disconnect — not an OOM.
	if err := wire.WriteMessage(conn, wire.MsgCapture, make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	readError(t, conn, wire.CodeTooLarge)
}

func TestTCPSessionLimitOverWire(t *testing.T) {
	_, addr := startTestServer(t, Config{MaxSessions: 1}, TCPConfig{})
	hello := wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8})
	c1 := dialRaw(t, addr)
	if err := wire.WriteMessage(c1, wire.MsgHello, hello, 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, c1, wire.MsgHelloAck)
	c2 := dialRaw(t, addr)
	if err := wire.WriteMessage(c2, wire.MsgHello, hello, 0); err != nil {
		t.Fatal(err)
	}
	readError(t, c2, wire.CodeSessionLimit)
}

func TestTCPCaptureSizeMismatch(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
	if err := wire.WriteMessage(conn, wire.MsgCapture, make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	readError(t, conn, wire.CodeBadRequest)
	// The connection survives a bad request: a correct capture still works.
	if err := wire.WriteMessage(conn, wire.MsgSetLabels, wire.MarshalLabels(nil), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgAck)
	if err := wire.WriteMessage(conn, wire.MsgCapture, make([]byte, 16*16), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgCaptureAck)
}

// TestTCPSetLabelsRejectsStrideAboveCap pins the stride cap on the wire: a
// SET_LABELS whose stride exceeds region.MaxStride gets a BadRequest ERROR
// (a window's warm-up, the encoder's row memo and the PMMU's row cache are
// all bounded by the cap), and the session keeps serving.
func TestTCPSetLabelsRejectsStrideAboveCap(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 32, H: 32, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
	for _, stride := range []int{region.MaxStride + 1, region.MaxStride} {
		labels := region.List{{X: 0, Y: 0, W: 32, H: 32, Stride: stride, Skip: 1}}
		if err := wire.WriteMessage(conn, wire.MsgSetLabels, wire.MarshalLabels(labels), 0); err != nil {
			t.Fatal(err)
		}
		if stride > region.MaxStride {
			readError(t, conn, wire.CodeBadRequest)
		} else {
			readExpect(t, conn, wire.MsgAck)
		}
	}
}

func TestTCPGracefulShutdownDisconnectsIdleClients(t *testing.T) {
	srv, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
	if srv.Manager().SessionsOpen() != 1 {
		t.Fatalf("SessionsOpen = %d, want 1", srv.Manager().SessionsOpen())
	}

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if srv.Manager().SessionsOpen() != 0 {
		t.Fatalf("SessionsOpen after shutdown = %d, want 0", srv.Manager().SessionsOpen())
	}
	// New connections must be refused or dropped without a session.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if err := wire.WriteMessage(c, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: frame.Gray8}), 0); err == nil {
			if _, _, err := wire.ReadMessage(c, 0); err == nil {
				t.Fatal("post-shutdown connection was served")
			}
		}
		c.Close()
	}
}

// contextWithTimeout is a tiny local helper avoiding a context import dance
// in table helpers.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestTCPRejectsOversizeGeometry is the handshake-time guard: a HELLO whose
// frame payload could never fit the payload cap must draw a typed GEOMETRY
// error instead of opening a session whose every Decode reply would fail
// ErrTooLarge and drop the connection with no message.
func TestTCPRejectsOversizeGeometry(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{MaxPayload: 4096})
	// 64x64 Gray8 needs 64*64+9 = 4105 bytes of FRAME payload: over the cap.
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 64, H: 64, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readError(t, conn, wire.CodeGeometry)
	// A giant RGB24 session (the motivating report) is rejected the same way.
	conn2 := dialRaw(t, addr)
	if err := wire.WriteMessage(conn2, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 4096, H: 4096, Format: frame.RGB24}), 0); err != nil {
		t.Fatal(err)
	}
	readError(t, conn2, wire.CodeGeometry)
	// Just under the cap still negotiates: 63x63 Gray8 = 3978 bytes.
	conn3 := dialRaw(t, addr)
	if err := wire.WriteMessage(conn3, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 63, H: 63, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn3, wire.MsgHelloAck)
}

// TestTCPRetiredTypesGetProtoError: the request types protocol 9 retired
// (8 DECODE_WINDOW, 10 STATS, 12 GET_ENCODED) and the type protocol 12
// retired (17 SUBSCRIBE_ACK, in its 16-byte layout) each draw a PROTO
// error like any unknown type, and the connection keeps serving.
func TestTCPRetiredTypesGetProtoError(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgHelloAck)
	for _, req := range []struct {
		typ     byte
		payload []byte
	}{{8, make([]byte, 16)}, {10, nil}, {12, nil}, {17, make([]byte, 16)}} {
		if err := wire.WriteMessage(conn, req.typ, req.payload, 0); err != nil {
			t.Fatal(err)
		}
		readError(t, conn, wire.CodeProto)
	}
	if err := wire.WriteMessage(conn, wire.MsgCapture, make([]byte, 16*16), 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, conn, wire.MsgCaptureAck)
}

// TestTCPReadDeadlineIsTheIdleGuard: the per-read deadline is rpxd's one
// idle guard. A session that sends nothing after its HELLO loses its
// connection and frees its MaxSessions slot. A stream re-arms the deadline
// after every CREDIT it reads, before its next read, so a reader that keeps
// granting credit stays attached however long its stream runs; the test
// checks the re-arms through a listener whose connections log them, so the
// wall clock plays no part in it.
func TestTCPReadDeadlineIsTheIdleGuard(t *testing.T) {
	const readTimeout = 150 * time.Millisecond
	srv, addr := startTestServer(t, Config{MaxSessions: 2}, TCPConfig{ReadTimeout: readTimeout})
	if _, err := srv.Manager().Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8}); err != nil {
		t.Fatal(err)
	}
	hello := wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: frame.Gray8})
	open := func() net.Conn {
		t.Helper()
		conn := dialRaw(t, addr)
		if err := wire.WriteMessage(conn, wire.MsgHello, hello, 0); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	silent := open()
	readExpect(t, silent, wire.MsgHelloAck)

	// The silent session's connection is closed under it, and its slot is
	// free again: a fresh session fits under MaxSessions, and the one after
	// it does not.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadMessage(silent, 0); err == nil {
		t.Fatalf("silent connection got message type %d, want it closed", typ)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Manager().SessionsOpen() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SessionsOpen = %d after the silent connection closed, want 1", srv.Manager().SessionsOpen())
		}
	}
	readExpect(t, open(), wire.MsgHelloAck)
	readError(t, open(), wire.CodeSessionLimit)

	// The stream half serves with the default read timeout.
	ssrv := NewTCPServer(NewManager(Config{}), TCPConfig{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &deadlineListener{Listener: inner, conns: make(chan *deadlineConn, 1)}
	go ssrv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		ssrv.Shutdown(ctx)
	})
	prod, err := ssrv.Manager().Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	sub := dialRaw(t, inner.Addr().String())
	subscribe := wire.MarshalSubscribe(wire.Subscribe{Target: prod.ID(), Credit: 1, Batch: 1})
	if err := wire.WriteMessage(sub, wire.MsgSubscribe, subscribe, 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, sub, wire.MsgAck)
	dc := <-ln.conns
	credit := wire.MarshalCredit(1)
	consumed := 5 + len(subscribe)
	for i := 0; i < 8; i++ {
		if err := wire.WriteMessage(sub, wire.MsgCredit, credit, 0); err != nil {
			t.Fatal(err)
		}
		consumed += 5 + len(credit)
		if !dc.rearmedBeforeRead(t, consumed) {
			t.Fatalf("CREDIT %d: the stream read on without re-arming its read deadline", i)
		}
	}
	if err := wire.WriteMessage(sub, wire.MsgUnsubscribe, nil, 0); err != nil {
		t.Fatal(err)
	}
	readExpect(t, sub, wire.MsgAck)
}

// deadlineListener hands out connections that log their reads and read
// deadlines, and sends each on conns as it is accepted.
type deadlineListener struct {
	net.Listener
	conns chan *deadlineConn
}

func (l *deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: c, logged: make(chan struct{}, 1)}
	l.conns <- dc
	return dc, nil
}

// deadlineEvent is one logged call: a read deadline armed into the future,
// or a Read begun. at is the count of bytes read before it.
type deadlineEvent struct {
	arm bool
	at  int
}

// deadlineConn logs every read deadline armed into the future and every
// Read begun, each with the count of bytes read before it.
type deadlineConn struct {
	net.Conn
	mu     sync.Mutex
	read   int
	events []deadlineEvent
	logged chan struct{} // signalled after each logged event
}

func (c *deadlineConn) log(arm bool) {
	c.mu.Lock()
	c.events = append(c.events, deadlineEvent{arm: arm, at: c.read})
	c.mu.Unlock()
	select {
	case c.logged <- struct{}{}:
	default:
	}
}

func (c *deadlineConn) SetReadDeadline(d time.Time) error {
	if d.After(time.Now()) {
		c.log(true)
	}
	return c.Conn.SetReadDeadline(d)
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.log(false)
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}

// rearmedBeforeRead waits until the server begins a Read after consuming
// the first n bytes of the connection, and reports whether it armed the
// read deadline between consuming them and that Read.
func (c *deadlineConn) rearmedBeforeRead(t *testing.T, n int) bool {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		armed := false
		for _, ev := range c.events {
			if ev.at != n {
				continue
			}
			if !ev.arm {
				c.mu.Unlock()
				return armed
			}
			armed = true
		}
		c.mu.Unlock()
		select {
		case <-c.logged:
		case <-timeout:
			t.Fatalf("the server never read past byte %d", n)
		}
	}
}

// TestTCPOneRolePerConnection: a connection's first message fixes its one
// role. A session connection answers SUBSCRIBE and the stream messages
// with PROTO and keeps serving. A stream answers any other message with
// PROTO and ends. A SUBSCRIBE-first connection of another protocol
// version, or naming target 0 or an unknown session, draws an ERROR and
// opens no subscription.
func TestTCPOneRolePerConnection(t *testing.T) {
	srv, addr := startTestServer(t, Config{}, TCPConfig{})
	prod, err := srv.Manager().Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	send := func(conn net.Conn, typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteMessage(conn, typ, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	subscribe := wire.MarshalSubscribe(wire.Subscribe{Target: prod.ID(), Credit: 4, Batch: 1})

	sess := dialRaw(t, addr)
	send(sess, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}))
	readExpect(t, sess, wire.MsgHelloAck)
	for _, req := range []struct {
		typ     byte
		payload []byte
	}{
		{wire.MsgSubscribe, subscribe},
		{wire.MsgCredit, wire.MarshalCredit(1)},
		{wire.MsgStreamLabels, wire.MarshalLabels(region.List{{W: 4, H: 4, Stride: 1, Skip: 1}})},
		{wire.MsgUnsubscribe, nil},
	} {
		send(sess, req.typ, req.payload)
		readError(t, sess, wire.CodeProto)
	}
	send(sess, wire.MsgCapture, make([]byte, 16*16))
	readExpect(t, sess, wire.MsgCaptureAck)
	if n := srv.Manager().SubscriptionsOpen(); n != 0 {
		t.Fatalf("a session connection opened %d subscriptions", n)
	}

	stream := dialRaw(t, addr)
	send(stream, wire.MsgSubscribe, subscribe)
	readExpect(t, stream, wire.MsgAck)
	send(stream, wire.MsgCapture, make([]byte, 16*16))
	readError(t, stream, wire.CodeProto)
	if _, _, err := wire.ReadMessage(stream, 0); err == nil {
		t.Fatal("the stream served on after a PROTO error")
	}

	v11 := bytes.Clone(subscribe)
	binary.LittleEndian.PutUint32(v11[4:], 11)
	unknown := wire.MarshalSubscribe(wire.Subscribe{Target: prod.ID() + 1, Credit: 4})
	zero := bytes.Clone(subscribe)
	binary.LittleEndian.PutUint64(zero[8:], 0)
	for _, tc := range []struct {
		payload []byte
		code    uint16
	}{{v11, wire.CodeProto}, {zero, wire.CodeProto}, {unknown, wire.CodeBadRequest}} {
		conn := dialRaw(t, addr)
		send(conn, wire.MsgSubscribe, tc.payload)
		readError(t, conn, tc.code)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Manager().SubscriptionsOpen() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions open, want 0", srv.Manager().SubscriptionsOpen())
		}
	}
}

// TestTCPStreamsHoldSessionSlots: a stream holds one MaxSessions slot for
// its life, as a session does, so with MaxSessions N sessions and streams
// fill exactly N slots; the next SUBSCRIBE or HELLO draws SESSION_LIMIT,
// and an ended stream gives its slot back.
func TestTCPStreamsHoldSessionSlots(t *testing.T) {
	const n = 3
	srv, addr := startTestServer(t, Config{MaxSessions: n}, TCPConfig{})
	prod, err := srv.Manager().Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	subscribe := wire.MarshalSubscribe(wire.Subscribe{Target: prod.ID(), Credit: 4, Batch: 1})
	open := func(typ byte, payload []byte) net.Conn {
		t.Helper()
		conn := dialRaw(t, addr)
		if err := wire.WriteMessage(conn, typ, payload, 0); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	var streams []net.Conn
	for i := 1; i < n; i++ {
		conn := open(wire.MsgSubscribe, subscribe)
		readExpect(t, conn, wire.MsgAck)
		streams = append(streams, conn)
	}
	readError(t, open(wire.MsgSubscribe, subscribe), wire.CodeSessionLimit)
	readError(t, open(wire.MsgHello, wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: frame.Gray8})), wire.CodeSessionLimit)

	m := srv.Manager()
	held := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.sessions) + m.reserved
	}
	if got := held(); got != n {
		t.Fatalf("%d slots held, want %d", got, n)
	}
	streams[0].Close()
	for deadline := time.Now().Add(5 * time.Second); held() != n-1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d slots held after one stream hung up, want %d", held(), n-1)
		}
	}
	readExpect(t, open(wire.MsgSubscribe, subscribe), wire.MsgAck)
}
