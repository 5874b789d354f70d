package client_test

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// recordedMsg is one raw request a recording server received.
type recordedMsg struct {
	typ     byte
	payload []byte
}

// recordingServer is a minimal scripted rpxd stand-in that records the
// exact payload bytes of every request, per connection. It exists to prove
// the reconnect path's replayed messages are byte-identical to the
// originals now that the replay logic lives in the shared
// rpx/client/replay package (used verbatim by the rpxgw gateway too).
type recordingServer struct {
	ln net.Listener

	mu    sync.Mutex
	conns [][]recordedMsg
}

func startRecordingServer(t *testing.T) *recordingServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go rs.acceptLoop()
	return rs
}

func (rs *recordingServer) acceptLoop() {
	for {
		conn, err := rs.ln.Accept()
		if err != nil {
			return
		}
		rs.mu.Lock()
		idx := len(rs.conns)
		rs.conns = append(rs.conns, nil)
		rs.mu.Unlock()
		go rs.handle(conn, idx)
	}
}

// handle serves one scripted connection: HELLO and SET_LABELS are acked,
// and DECODE is the pivot — the first connection is cut without a reply
// (poisoning the client), later connections answer it, so the client's
// reconnect replays HELLO + labels in between.
func (rs *recordingServer) handle(conn net.Conn, idx int) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := wire.ReadMessage(br, wire.DefaultMaxPayload)
		if err != nil {
			return
		}
		rs.mu.Lock()
		rs.conns[idx] = append(rs.conns[idx], recordedMsg{typ, append([]byte(nil), payload...)})
		rs.mu.Unlock()
		switch typ {
		case wire.MsgHello:
			wire.WriteMessage(conn, wire.MsgHelloAck, wire.MarshalHelloAck(wire.HelloAck{
				SessionID: uint64(idx + 1), MaxPayload: wire.DefaultMaxPayload,
			}), wire.DefaultMaxPayload)
		case wire.MsgSetLabels:
			wire.WriteMessage(conn, wire.MsgAck, nil, wire.DefaultMaxPayload)
		case wire.MsgDecode:
			if idx == 0 {
				return // cut without replying: the client poisons and reconnects
			}
			wire.WriteMessage(conn, wire.MsgFrame, wire.MarshalFrame(rpx.NewFrame(1, 1, rpx.Gray8)), wire.DefaultMaxPayload)
		case wire.MsgClose:
			wire.WriteMessage(conn, wire.MsgAck, nil, wire.DefaultMaxPayload)
			return
		default:
			wire.WriteMessage(conn, wire.MsgAck, nil, wire.DefaultMaxPayload)
		}
	}
}

func (rs *recordingServer) recorded(conn int) []recordedMsg {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if conn >= len(rs.conns) {
		return nil
	}
	return append([]recordedMsg(nil), rs.conns[conn]...)
}

// TestReconnectReplayByteIdentical pins the refactor of the reconnect path
// onto rpx/client/replay: the HELLO and SET_LABELS messages replayed on the
// post-poison connection must be byte-for-byte the messages the session
// sent originally — and both must equal the canonical marshalling, so no
// re-encoding drift can hide in either path.
func TestReconnectReplayByteIdentical(t *testing.T) {
	rs := startRecordingServer(t)
	cfg := client.Config{
		W: 48, H: 36, Format: rpx.Gray8,
		RequestTimeout: 2 * time.Second,
		Reconnect:      true, MaxRetries: 4, Backoff: time.Millisecond,
	}
	sess, err := client.Dial(rs.ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	labels := []rpx.RegionLabel{
		{X: 4, Y: 4, W: 32, H: 16, Stride: 2, Skip: 1},
		{X: 0, Y: 24, W: 48, H: 12, Stride: 1, Skip: 3, Phase: 1},
	}
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}

	// The first DECODE cuts connection 0; the retry reconnects (replaying
	// HELLO + labels on connection 1) and succeeds.
	if _, err := sess.Decoded(); err != nil {
		t.Fatalf("decode after scripted cut: %v", err)
	}
	if sess.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1", sess.Reconnects())
	}

	first, second := rs.recorded(0), rs.recorded(1)
	if len(first) < 2 || len(second) < 2 {
		t.Fatalf("recorded %d + %d messages, want >= 2 on each connection", len(first), len(second))
	}
	if first[0].typ != wire.MsgHello || second[0].typ != wire.MsgHello {
		t.Fatalf("first message types = %d, %d, want HELLO on both connections", first[0].typ, second[0].typ)
	}
	if !bytes.Equal(first[0].payload, second[0].payload) {
		t.Errorf("replayed HELLO differs from original:\n  dial:   %x\n  replay: %x", first[0].payload, second[0].payload)
	}
	if want := wire.MarshalHello(wire.Hello{W: cfg.W, H: cfg.H, Format: cfg.Format}); !bytes.Equal(second[0].payload, want) {
		t.Errorf("replayed HELLO differs from canonical marshalling:\n  canon:  %x\n  replay: %x", want, second[0].payload)
	}
	if first[1].typ != wire.MsgSetLabels || second[1].typ != wire.MsgSetLabels {
		t.Fatalf("second message types = %d, %d, want SET_LABELS on both connections", first[1].typ, second[1].typ)
	}
	if !bytes.Equal(first[1].payload, second[1].payload) {
		t.Errorf("replayed SET_LABELS differs from original:\n  dial:   %x\n  replay: %x", first[1].payload, second[1].payload)
	}
	if want := wire.MarshalLabels(labels); !bytes.Equal(second[1].payload, want) {
		t.Errorf("replayed SET_LABELS differs from canonical marshalling:\n  canon:  %x\n  replay: %x", want, second[1].payload)
	}
}
