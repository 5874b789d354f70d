package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/wire"
)

// FuzzHandshake drives arbitrary first messages through TCPServer.handle,
// the path every rpxd connection takes, over net.Pipe. The input's first
// byte picks the message — HELLO when odd, SUBSCRIBE when even — and the
// rest is its payload. A HELLO (parse, geometry check, Manager.Open, then
// CLOSE) must answer HELLO_ACK or an ERROR, or end the connection. A
// SUBSCRIBE (parse, slot, attach) must answer ACK or an ERROR,
// or end the connection, and once the client hangs up no subscription and
// no slot may outlive it; a SUBSCRIBE whose target field reads 1 is aimed
// at a live session, so accepted streams are reached too. Either may cost
// no more memory than its geometry explains: a session's pipeline holds a
// few frame-sized buffers, so an open that allocates more than
// handshakeFixedBytes plus handshakePerFrameByte bytes per frame byte was
// sized by something other than its geometry. (A HELLO that once carried a
// history depth sized the decoder's ring from it; depth 1<<30 ended the
// server out of memory.)
func FuzzHandshake(f *testing.F) {
	const maxPayload = 1 << 16
	hello := func(w, h int, format frame.Format) []byte {
		return append([]byte{wire.MsgHello}, wire.MarshalHello(wire.Hello{W: w, H: h, Format: format})...)
	}
	subscribe := func(target uint64, credit, batch uint32) []byte {
		return append([]byte{wire.MsgSubscribe}, wire.MarshalSubscribe(wire.Subscribe{Target: target, Credit: credit, Batch: batch})...)
	}
	f.Add(hello(8, 8, frame.Gray8))
	f.Add(hello(128, 128, frame.RGB24))
	f.Add(hello(1<<14, 1, frame.YUV444))  // a wide row under the payload cap
	f.Add(hello(1024, 1024, frame.Gray8)) // frames above the payload cap
	f.Add(hello(0, 8, frame.Gray8))
	f.Add(hello(8, 8, frame.Format(9)))
	v9 := binary.LittleEndian.AppendUint32(hello(8, 8, frame.Gray8), 1<<30)
	binary.LittleEndian.PutUint32(v9[5:], 9)
	f.Add(v9)
	f.Add([]byte{wire.MsgHello})
	f.Add(append([]byte{wire.MsgHello}, make([]byte, maxPayload+1)...)) // closed unanswered
	f.Add(subscribe(1, 4, 1))                                           // the live session
	f.Add(subscribe(1, wire.MaxCreditWindow, wire.MaxBatch))
	f.Add(subscribe(0, 1, 1))
	f.Add(subscribe(12345, 1, 1)) // no such session
	v11 := subscribe(1, 4, 1)
	binary.LittleEndian.PutUint32(v11[5:], 11)
	f.Add(v11)
	f.Add([]byte{wire.MsgSubscribe})

	m := NewManager(Config{})
	defer m.Close()
	live, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewTCPServer(m, TCPConfig{MaxPayload: maxPayload, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) == 0 {
			return
		}
		typ, payload := wire.MsgHello, input[1:]
		if input[0]%2 == 0 {
			typ = wire.MsgSubscribe
			if len(payload) == 24 && binary.LittleEndian.Uint64(payload[8:]) == 1 {
				payload = binary.LittleEndian.AppendUint64(bytes.Clone(payload[:8]), live.ID())
				payload = append(payload, input[17:]...)
			}
		}
		// Frame the message up front, so the client side's own allocations
		// stay out of the count.
		msg := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		msg = append(append(msg, typ), payload...)
		// The count is process-wide, and the fuzzing engine allocates
		// beside the handshake now and then; what a handshake itself
		// allocates shows up every time, so the least of three counts.
		grew, accepted := handshakeCost(t, srv, typ, msg)
		for i := 0; i < 2; i++ {
			g, _ := handshakeCost(t, srv, typ, msg)
			grew = min(grew, g)
		}
		bound := uint64(handshakeFixedBytes)
		if accepted && typ == wire.MsgHello {
			h, err := wire.UnmarshalHello(payload)
			if err != nil {
				t.Fatalf("accepted HELLO does not parse: %v", err)
			}
			bound += handshakePerFrameByte * uint64(h.W*h.H*h.Format.BytesPerPixel())
		}
		if grew > bound {
			t.Fatalf("first message %d (accepted %v) allocated %d bytes, bound %d", typ, accepted, grew, bound)
		}
		m.mu.Lock()
		sessions, reserved := len(m.sessions), m.reserved
		m.mu.Unlock()
		if sessions != 1 || reserved != 0 {
			t.Fatalf("%d sessions and %d reserved slots left after the client hung up, want the live session only", sessions, reserved)
		}
		if n := m.SubscriptionsOpen(); n != 0 {
			t.Fatalf("%d subscriptions left open after the client hung up", n)
		}
	})
}

// handshakeCost serves one connection that sends msg, a framed first
// message of type typ, closes any session it opens and hangs up on any
// stream. It returns the bytes the process allocated meanwhile and whether
// the message was accepted.
func handshakeCost(t *testing.T, srv *TCPServer, typ byte, msg []byte) (grew uint64, accepted bool) {
	t.Helper()
	ackType := wire.MsgHelloAck
	if typ == wire.MsgSubscribe {
		ackType = wire.MsgAck
	}
	reply := make([]byte, 0, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cli, conn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(conn)
	}()
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	cli.Write(msg) // fails once the server hangs up on an oversized message
	rtyp, _, err := wire.ReadMessageInto(cli, &reply, 0)
	accepted = err == nil && rtyp == ackType
	if err == nil && !accepted && rtyp != wire.MsgError {
		t.Fatalf("first message %d answered with message type %d", typ, rtyp)
	}
	if accepted && typ == wire.MsgHello {
		if err := wire.WriteMessage(cli, wire.MsgClose, nil, 0); err != nil {
			t.Fatal(err)
		}
		if rtyp, _, err := wire.ReadMessageInto(cli, &reply, 0); err != nil || rtyp != wire.MsgAck {
			t.Fatalf("CLOSE answered with type %d, %v", rtyp, err)
		}
	}
	cli.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running after the client hung up")
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, accepted
}

// The handshake allocation bound. The fixed part covers what every
// connection and session holds whatever its geometry: the connection's
// read and write buffers, at most one payload-cap read, and the
// 1600-label register file's two banks (an 8×8 open and close measures
// about 105 KB); a stream holds only its subscription. A session's pipeline holds a few frame-sized buffers, its
// rows' state included; 16 per frame byte leaves it room to hold them all
// up front.
const (
	handshakeFixedBytes   = 256 << 10
	handshakePerFrameByte = 16
)
