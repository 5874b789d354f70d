package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
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
// opens no session. v9 appended a u32 decoder history depth to today's
// fields, which sized the session's history ring: at depth 1<<30 the open
// ended a v9 server with an out-of-memory error. v7 appended a u32 queue
// depth and a u8 block flag to those. The server keeps serving: a valid
// HELLO opens a session afterwards.
func TestTCPRejectsBadHello(t *testing.T) {
	srv, addr := startTestServer(t, Config{}, TCPConfig{})
	hello := wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8})
	corrupt := bytes.Clone(hello)
	corrupt[4] = 99 // corrupt the protocol version
	v9 := binary.LittleEndian.AppendUint32(bytes.Clone(hello), 1<<30)
	binary.LittleEndian.PutUint32(v9[4:], 9)
	v7 := append(binary.LittleEndian.AppendUint32(bytes.Clone(v9), 16), 1)
	binary.LittleEndian.PutUint32(v7[4:], 7)
	for _, payload := range [][]byte{corrupt, v9, v7} {
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
// (8 DECODE_WINDOW, 10 STATS, 12 GET_ENCODED) each draw a PROTO error like
// any unknown type, and the connection keeps serving.
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
	}{{8, make([]byte, 16)}, {10, nil}, {12, nil}} {
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
// connection and frees its MaxSessions slot, while a subscriber that keeps
// granting credit — its own session serves no operation all the while —
// stays attached for ten read timeouts.
func TestTCPReadDeadlineIsTheIdleGuard(t *testing.T) {
	const readTimeout = 150 * time.Millisecond
	srv, addr := startTestServer(t, Config{MaxSessions: 3}, TCPConfig{ReadTimeout: readTimeout})
	prod, err := srv.Manager().Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8})
	if err != nil {
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
	sub := open()
	readExpect(t, sub, wire.MsgHelloAck)
	if err := wire.WriteMessage(sub, wire.MsgSubscribe, wire.MarshalSubscribe(wire.Subscribe{Target: prod.ID(), Credit: 32, Batch: 1}), 0); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.UnmarshalSubscribeAck(readExpect(t, sub, wire.MsgSubscribeAck))
	if err != nil {
		t.Fatal(err)
	}
	silent := open()
	readExpect(t, silent, wire.MsgHelloAck)

	// The producer is in-process, so only the two connections' deadlines
	// are in play.
	stop := make(chan struct{})
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		fr := testFrame(64, 48, frame.Gray8, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := prod.Capture(fr); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-produced
	}()

	// The subscriber grants credit for every 8 frames it reads, for ten read
	// timeouts, then unsubscribes: the ACK shows it was still attached.
	subErr := make(chan error, 1)
	go func() {
		subErr <- func() error {
			var buf []byte
			frames, owed := 0, 0
			for end := time.Now().Add(10 * readTimeout); time.Now().Before(end); {
				sub.SetReadDeadline(time.Now().Add(5 * time.Second))
				typ, payload, err := wire.ReadMessageInto(sub, &buf, 0)
				if err != nil {
					return fmt.Errorf("subscriber cut after %d frames: %w", frames, err)
				}
				p, err := wire.UnmarshalFramePush(payload)
				if typ != wire.MsgFramePush || err != nil {
					return fmt.Errorf("subscriber got message type %d (%v), want FRAME_PUSH", typ, err)
				}
				frames += len(p.Frames)
				if owed += len(p.Frames); owed >= 8 {
					if err := wire.WriteMessage(sub, wire.MsgCredit, wire.MarshalCredit(wire.Credit{SubID: ack.SubID, N: uint32(owed)}), 0); err != nil {
						return err
					}
					owed = 0
				}
			}
			if err := wire.WriteMessage(sub, wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{SubID: ack.SubID}), 0); err != nil {
				return err
			}
			for {
				typ, _, err := wire.ReadMessageInto(sub, &buf, 0)
				if err != nil {
					return fmt.Errorf("subscriber cut before its UNSUBSCRIBE ack: %w", err)
				}
				if typ == wire.MsgAck {
					return nil
				}
			}
		}()
	}()

	// The silent session's connection is closed under it, and its slot is
	// free again: a fresh session fits under MaxSessions, and the one after
	// it does not.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadMessage(silent, 0); err == nil {
		t.Fatalf("silent connection got message type %d, want it closed", typ)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Manager().SessionsOpen() != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SessionsOpen = %d after the silent connection closed, want 2", srv.Manager().SessionsOpen())
		}
	}
	readExpect(t, open(), wire.MsgHelloAck)
	readError(t, open(), wire.CodeSessionLimit)

	if err := <-subErr; err != nil {
		t.Fatal(err)
	}
}

// TestTCPDropsStreamMessagesOutsideStream: a CREDIT, STREAM_LABELS or
// UNSUBSCRIBE that arrives after the stream's UNSUBSCRIBE ack — a Grant or
// SetLabels racing Stream.Close — is dropped without a reply, so the next
// request/reply call reads its own reply rather than an ERROR for the stale
// stream message: a CAPTURE_ACK, which no stale stream message can draw.
func TestTCPDropsStreamMessagesOutsideStream(t *testing.T) {
	_, addr := startTestServer(t, Config{}, TCPConfig{})
	conn := dialRaw(t, addr)
	send := func(typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteMessage(conn, typ, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: frame.Gray8}))
	readExpect(t, conn, wire.MsgHelloAck)
	send(wire.MsgSubscribe, wire.MarshalSubscribe(wire.Subscribe{Credit: 4, Batch: 1}))
	ack, err := wire.UnmarshalSubscribeAck(readExpect(t, conn, wire.MsgSubscribeAck))
	if err != nil {
		t.Fatal(err)
	}
	send(wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{SubID: ack.SubID}))
	readExpect(t, conn, wire.MsgAck)

	send(wire.MsgCredit, wire.MarshalCredit(wire.Credit{SubID: ack.SubID, N: 1}))
	send(wire.MsgStreamLabels, wire.MarshalStreamLabels(wire.StreamLabels{SubID: ack.SubID, Labels: region.List{{W: 4, H: 4, Stride: 1, Skip: 1}}}))
	send(wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{SubID: ack.SubID}))
	send(wire.MsgCapture, make([]byte, 16*16))
	readExpect(t, conn, wire.MsgCaptureAck)
}
