package gateway_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// dialVia opens a client session through the gateway.
func dialVia(t *testing.T, addr string, w, h int) *client.Session {
	t.Helper()
	sess, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// TestGatewayStreamRelay: a push subscription through the gateway delivers
// the producer's frames in lockstep — whole messages, correct order — and
// a clean unsubscribe returns the proxied connection to request/reply.
func TestGatewayStreamRelay(t *testing.T) {
	b := startBackend(t)
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)

	producer := dialVia(t, addr, 64, 48)
	labels := []rpx.RegionLabel{{X: 8, Y: 8, W: 32, H: 24, Stride: 1, Skip: 1}}
	if err := producer.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	subscriber := dialVia(t, addr, 8, 8)
	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 32, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The relayed bytes must match an in-process pipeline fed the same
	// labels and frames.
	ref, err := rpx.NewSystem(64, 48, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}

	const frames = 10
	fr := rpx.NewFrame(64, 48, rpx.Gray8)
	want := make([][]byte, frames)
	for i := 0; i < frames; i++ {
		fillFrame(fr, 1, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Capture(fr); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.LastEncoded().AppendTo(nil)
	}
	for i := 0; i < frames; i++ {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d seq = %d — gap or reorder through the relay", i, f.Seq)
		}
		if !bytes.Equal(f.Raw, want[i]) {
			t.Fatalf("relayed frame %d bytes differ from the in-process pipeline", i)
		}
	}

	if err := st.Close(); err != nil {
		t.Fatalf("unsubscribe through gateway: %v", err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("Recv after close = %v, want io.EOF", err)
	}
	if _, err := subscriber.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
}

// sessionsAcross returns each test backend's open-session count.
func sessionsAcross(backends []*testBackend) []int {
	out := make([]int, len(backends))
	for i, b := range backends {
		out[i] = b.mgr.SessionsOpen()
	}
	return out
}

// TestGatewayStreamCrossBackendTarget: when the SUBSCRIBE target lives on a
// different backend than the subscriber, the gateway migrates the
// subscriber onto the producer's backend (replaying its handshake) and the
// stream flows. Each backend assigns one session here, so the target
// resolves only because rpxd's ids are unique across the fleet.
func TestGatewayStreamCrossBackendTarget(t *testing.T) {
	backends := []*testBackend{startBackend(t), startBackend(t)}
	addr, _ := startGateway(t, []gateway.Backend{{Addr: backends[0].addr}, {Addr: backends[1].addr}}, nil)

	producer := dialVia(t, addr, 32, 32)
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	prodBackend := -1
	for i, n := range sessionsAcross(backends) {
		if n == 1 {
			prodBackend = i
		}
	}
	if prodBackend < 0 {
		t.Fatal("cannot locate the producer's backend")
	}
	// Placement puts the second session on the less-loaded backend.
	subscriber := dialVia(t, addr, 8, 8)
	if n := backends[1-prodBackend].mgr.SessionsOpen(); n != 1 {
		t.Fatalf("subscriber placed beside the producer (other backend holds %d sessions)", n)
	}

	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 16})
	if err != nil {
		t.Fatalf("cross-backend subscribe: %v", err)
	}
	// The subscriber's session must now be co-located with the producer.
	if n := backends[prodBackend].mgr.SessionsOpen(); n < 2 {
		t.Fatalf("producer backend has %d sessions, want the migrated subscriber too", n)
	}

	fr := rpx.NewFrame(32, 32, rpx.Gray8)
	for i := 0; i < 3; i++ {
		fillFrame(fr, 2, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d seq = %d", i, f.Seq)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayStreamBackendKill: killing the backend mid-subscription ends
// the stream with a typed UNAVAILABLE error — never a torn message — and
// the same client connection can re-subscribe to a producer on a survivor.
func TestGatewayStreamBackendKill(t *testing.T) {
	backends := []*testBackend{startBackend(t), startBackend(t)}
	addr, _ := startGateway(t, []gateway.Backend{{Addr: backends[0].addr}, {Addr: backends[1].addr}}, nil)

	producer := dialVia(t, addr, 32, 32)
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	prodBackend := -1
	for i, n := range sessionsAcross(backends) {
		if n == 1 {
			prodBackend = i
		}
	}
	if prodBackend < 0 {
		t.Fatal("cannot locate the producer's backend")
	}

	subscriber := dialVia(t, addr, 8, 8)
	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n := backends[prodBackend].mgr.SessionsOpen(); n < 2 {
		t.Fatalf("producer backend has %d sessions, want the migrated subscriber too", n)
	}
	fr := rpx.NewFrame(32, 32, rpx.Gray8)
	for i := 0; i < 4; i++ {
		fillFrame(fr, 3, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d before kill: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d seq = %d before kill", i, f.Seq)
		}
	}

	backends[prodBackend].kill()

	// The stream must end with the typed error, not torn bytes.
	_, err = st.Recv()
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnavailable {
		t.Fatalf("Recv after kill = %v, want UNAVAILABLE", err)
	}

	// A fresh producer lands on the survivor; the same subscriber
	// connection re-subscribes and receives its pushes.
	producer2 := dialVia(t, addr, 32, 32)
	if err := producer2.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	st2, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer2.ID(), Credit: 32})
	if err != nil {
		t.Fatalf("re-subscribe after kill: %v", err)
	}
	for i := 0; i < 3; i++ {
		fillFrame(fr, 4, i)
		if _, err := producer2.Capture(fr); err != nil {
			t.Fatal(err)
		}
		f, err := st2.Recv()
		if err != nil {
			t.Fatalf("Recv %d from survivor: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("survivor frame %d seq = %d", i, f.Seq)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayStreamEvacuation: evacuating a subscriber's backend mid-stream
// ends the stream with a typed UNAVAILABLE error, and the stream leaves the
// session's replacement backend connection alone, so its next request is
// served there after one migration, not two.
func TestGatewayStreamEvacuation(t *testing.T) {
	a, b := startBackendWithAdmin(t), startBackendWithAdmin(t)
	addr, g := startGateway(t, []gateway.Backend{{Addr: a.addr, Admin: a.admin}, {Addr: b.addr, Admin: b.admin}}, nil)
	g.Watcher().Probe()

	// The producer dials A directly, so the gateway relays the subscribe
	// to wherever the subscriber is: on A, where placement puts the
	// gateway's first session.
	producer, err := client.Dial(a.addr, client.Config{W: 32, H: 32, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	subscriber := dialVia(t, addr, 8, 8)
	if n := a.mgr.SessionsOpen(); n != 2 {
		t.Fatalf("backend A holds %d sessions, want the producer and the subscriber", n)
	}
	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 16})
	if err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(32, 32, rpx.Gray8)
	fillFrame(fr, 5, 0)
	if _, err := producer.Capture(fr); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatalf("Recv before drain: %v", err)
	}

	a.health.SetDraining()
	g.Watcher().Probe()
	_, err = st.Recv()
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnavailable {
		t.Fatalf("Recv after drain = %v, want UNAVAILABLE", err)
	}
	if _, err := subscriber.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("request after the evacuated stream: %v", err)
	}
	if snap := g.Snapshot(); snap.Rerouted != 1 {
		t.Fatalf("sessions rerouted = %d, want 1 (the stream closed its replacement connection?)", snap.Rerouted)
	}
	if n := b.mgr.SessionsOpen(); n != 1 {
		t.Fatalf("backend B holds %d sessions, want the evacuated subscriber", n)
	}
}

// TestGatewaySubscribeLatency: rpxgw_proxy_op_latency_seconds{op="subscribe"}
// times the SUBSCRIBE round trip, not the stream it opens.
func TestGatewaySubscribeLatency(t *testing.T) {
	b := startBackend(t)
	reg := obs.NewRegistry()
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, func(cfg *gateway.Config) { cfg.Metrics = reg })
	sess := dialVia(t, addr, 8, 8)
	st, err := sess.Subscribe(client.SubscribeOptions{Credit: 1})
	if err != nil {
		t.Fatal(err)
	}
	const held = 200 * time.Millisecond
	time.Sleep(held)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, smp := range reg.Gather() {
		if smp.Name != "rpxgw_proxy_op_latency_seconds" || len(smp.Labels) != 1 || smp.Labels[0] != obs.L("op", "subscribe") {
			continue
		}
		if smp.Hist.Count != 1 || time.Duration(smp.Hist.SumNanos) >= held {
			t.Fatalf("subscribe latency: %d observations summing to %v, want 1 under %v", smp.Hist.Count, time.Duration(smp.Hist.SumNanos), held)
		}
		return
	}
	t.Fatal("no subscribe latency histogram registered")
}

// TestGatewayDropsStreamMessagesOutsideStream: a CREDIT, STREAM_LABELS or
// UNSUBSCRIBE that reaches the gateway after the stream's UNSUBSCRIBE ack
// is dropped, not relayed as a request — the backend sends no reply to it —
// so the next request/reply call reads its own reply: a CAPTURE_ACK, which
// no stale stream message can draw.
func TestGatewayDropsStreamMessagesOutsideStream(t *testing.T) {
	b := startBackend(t)
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)
	send, expect := rawSession(t, addr)
	send(wire.MsgSubscribe, wire.MarshalSubscribe(wire.Subscribe{Credit: 4, Batch: 1}))
	ack, err := wire.UnmarshalSubscribeAck(expect(wire.MsgSubscribeAck))
	if err != nil {
		t.Fatal(err)
	}
	send(wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{SubID: ack.SubID}))
	expect(wire.MsgAck)

	send(wire.MsgCredit, wire.MarshalCredit(wire.Credit{SubID: ack.SubID, N: 1}))
	send(wire.MsgStreamLabels, wire.MarshalStreamLabels(wire.StreamLabels{SubID: ack.SubID, Labels: rpx.RegionList{{W: 4, H: 4, Stride: 1, Skip: 1}}}))
	send(wire.MsgUnsubscribe, wire.MarshalUnsubscribe(wire.Unsubscribe{SubID: ack.SubID}))
	send(wire.MsgCapture, make([]byte, 16*16))
	expect(wire.MsgCaptureAck)
}

// TestGatewayRetiredTypesGetProtoError: the gateway relays the request
// types protocol 9 retired (8 DECODE_WINDOW, 10 STATS, 12 GET_ENCODED) like
// any other, so each draws the backend's PROTO error, and the connection
// keeps serving.
func TestGatewayRetiredTypesGetProtoError(t *testing.T) {
	b := startBackend(t)
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)
	send, expect := rawSession(t, addr)
	for _, req := range []struct {
		typ     byte
		payload []byte
	}{{8, make([]byte, 16)}, {10, nil}, {12, nil}} {
		send(req.typ, req.payload)
		re, err := wire.UnmarshalError(expect(wire.MsgError))
		if err != nil {
			t.Fatal(err)
		}
		if re.Code != wire.CodeProto {
			t.Fatalf("type %d: error %v, want code %d (PROTO)", req.typ, re, wire.CodeProto)
		}
	}
	send(wire.MsgCapture, make([]byte, 16*16))
	expect(wire.MsgCaptureAck)
}

// rawSession opens a 16x16 Gray8 session at addr over a raw connection and
// returns its message send and expect-reply helpers.
func rawSession(t *testing.T, addr string) (send func(typ byte, payload []byte), expect func(want byte) []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	send = func(typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteMessage(conn, typ, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	expect = func(want byte) []byte {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := wire.ReadMessage(conn, 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if typ != want {
			re, _ := wire.UnmarshalError(payload)
			t.Fatalf("got message type %d (%v), want %d", typ, re, want)
		}
		return payload
	}
	send(wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: rpx.Gray8}))
	expect(wire.MsgHelloAck)
	return send, expect
}
