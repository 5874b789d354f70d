package server

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/wire"
)

// FuzzHandshake drives arbitrary HELLO payloads through TCPServer.handle,
// the path every rpxd connection takes (parse, geometry check,
// Manager.Open, then CLOSE), over net.Pipe. A handshake must answer
// HELLO_ACK or an ERROR, or end the connection, and it may cost no more
// memory than its geometry explains: a session's pipeline holds a few
// frame-sized buffers, so an open that allocates more than
// handshakeFixedBytes plus handshakePerFrameByte bytes per frame byte was
// sized by something other than its geometry. (A HELLO that once carried a
// history depth sized the decoder's ring from it; depth 1<<30 ended the
// server out of memory.)
func FuzzHandshake(f *testing.F) {
	const maxPayload = 1 << 16
	hello := func(w, h int, format frame.Format) []byte {
		return wire.MarshalHello(wire.Hello{W: w, H: h, Format: format})
	}
	f.Add(hello(8, 8, frame.Gray8))
	f.Add(hello(128, 128, frame.RGB24))
	f.Add(hello(1<<14, 1, frame.YUV444))  // a wide row under the payload cap
	f.Add(hello(1024, 1024, frame.Gray8)) // frames above the payload cap
	f.Add(hello(0, 8, frame.Gray8))
	f.Add(hello(8, 8, frame.Format(9)))
	v9 := binary.LittleEndian.AppendUint32(hello(8, 8, frame.Gray8), 1<<30)
	binary.LittleEndian.PutUint32(v9[4:], 9)
	f.Add(v9)
	f.Add([]byte{})
	f.Add(make([]byte, maxPayload+1)) // closed unanswered

	m := NewManager(Config{})
	defer m.Close()
	srv := NewTCPServer(m, TCPConfig{MaxPayload: maxPayload, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Frame the message up front, so the client side's own allocations
		// stay out of the count.
		msg := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		msg = append(append(msg, wire.MsgHello), payload...)
		// The count is process-wide, and the fuzzing engine allocates
		// beside the handshake now and then; what a handshake itself
		// allocates shows up every time, so the least of three counts.
		grew, accepted := handshakeCost(t, srv, msg)
		for i := 0; i < 2; i++ {
			g, _ := handshakeCost(t, srv, msg)
			grew = min(grew, g)
		}
		bound := uint64(handshakeFixedBytes)
		if accepted {
			h, err := wire.UnmarshalHello(payload)
			if err != nil {
				t.Fatalf("accepted HELLO does not parse: %v", err)
			}
			bound += handshakePerFrameByte * uint64(h.W*h.H*h.Format.BytesPerPixel())
		}
		if grew > bound {
			t.Fatalf("handshake (accepted %v) allocated %d bytes, bound %d", accepted, grew, bound)
		}
		if n := m.SessionsOpen(); n != 0 {
			t.Fatalf("%d sessions left open after CLOSE", n)
		}
	})
}

// handshakeCost serves one connection that sends msg, a framed HELLO, and
// closes any session it opens. It returns the bytes the process allocated
// meanwhile and whether the HELLO was accepted.
func handshakeCost(t *testing.T, srv *TCPServer, msg []byte) (grew uint64, accepted bool) {
	t.Helper()
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
	typ, _, err := wire.ReadMessageInto(cli, &reply, 0)
	accepted = err == nil && typ == wire.MsgHelloAck
	if err == nil && !accepted && typ != wire.MsgError {
		t.Fatalf("HELLO answered with message type %d", typ)
	}
	if accepted {
		if err := wire.WriteMessage(cli, wire.MsgClose, nil, 0); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadMessageInto(cli, &reply, 0); err != nil || typ != wire.MsgAck {
			t.Fatalf("CLOSE answered with type %d, %v", typ, err)
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
// about 105 KB). A session's pipeline holds a few frame-sized buffers, its
// rows' state included; 16 per frame byte leaves it room to hold them all
// up front.
const (
	handshakeFixedBytes   = 256 << 10
	handshakePerFrameByte = 16
)
