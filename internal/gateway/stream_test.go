package gateway_test

import (
	"bytes"
	"encoding/binary"
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
// after a clean unsubscribe the subscribing session still serves.
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
// different backend than the subscriber's session, the stream dials the
// target's backend itself: the frames flow, and no session moves.
func TestGatewayStreamCrossBackendTarget(t *testing.T) {
	backends := []*testBackend{startBackend(t), startBackend(t)}
	reg := obs.NewRegistry()
	addr, _ := startGateway(t, []gateway.Backend{{Addr: backends[0].addr}, {Addr: backends[1].addr}}, func(cfg *gateway.Config) { cfg.Metrics = reg })

	producer := dialVia(t, addr, 32, 32)
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	// Placement puts the second session on the other backend.
	subscriber := dialVia(t, addr, 8, 8)
	if got := sessionsAcross(backends); got[0] != 1 || got[1] != 1 {
		t.Fatalf("sessions per backend = %v, want one each", got)
	}

	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 16})
	if err != nil {
		t.Fatalf("cross-backend subscribe: %v", err)
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
	if got := sessionsAcross(backends); got[0] != 1 || got[1] != 1 {
		t.Fatalf("sessions per backend after the stream = %v, want one each", got)
	}
	if v := gatherValue(t, reg, "rpxgw_sessions_rerouted_total"); v != 0 {
		t.Fatalf("rpxgw_sessions_rerouted_total = %v, want 0", v)
	}
}

// gatherValue reads one unlabelled series from reg.
func gatherValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, smp := range reg.Gather() {
		if smp.Name == name {
			return smp.Value
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}

// TestGatewayStreamBackendKill: killing the backend mid-subscription ends
// the stream with a typed UNAVAILABLE error — never a torn message — and
// the same client session can subscribe to a producer on a survivor.
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

	// A fresh producer lands on the survivor; the same subscriber session
	// subscribes to it and receives its pushes.
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

// TestGatewayStreamEvacuation: draining the producer's backend migrates
// the producer, which ends its stream with a typed UNAVAILABLE error. The
// subscriber subscribes again by the id the producer's client holds — the
// gateway rewrites it to the producer's new remote id — and the frames
// flow from the new backend.
func TestGatewayStreamEvacuation(t *testing.T) {
	a, b := startBackendWithAdmin(t), startBackendWithAdmin(t)
	addr, g := startGateway(t, []gateway.Backend{{Addr: a.addr, Admin: a.admin}, {Addr: b.addr, Admin: b.admin}}, nil)
	g.Watcher().Probe()

	// Placement puts the producer on A and the subscriber's session on B.
	producer := dialVia(t, addr, 32, 32)
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	subscriber := dialVia(t, addr, 8, 8)
	if a.mgr.SessionsOpen() != 1 || b.mgr.SessionsOpen() != 1 {
		t.Fatalf("sessions on A, B = %d, %d; want one each", a.mgr.SessionsOpen(), b.mgr.SessionsOpen())
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
	// The stream ends as the producer leaves A; its migration lands on B
	// right after.
	for deadline := time.Now().Add(5 * time.Second); g.Snapshot().Rerouted != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sessions rerouted = %d, want 1 (the producer)", g.Snapshot().Rerouted)
		}
	}
	if n := b.mgr.SessionsOpen(); n != 2 {
		t.Fatalf("backend B holds %d sessions, want the subscriber and the evacuated producer", n)
	}

	st, err = subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 16})
	if err != nil {
		t.Fatalf("re-subscribe by the producer's original id: %v", err)
	}
	for i := 0; i < 3; i++ {
		fillFrame(fr, 5, 1+i)
		cs, err := producer.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d after migration: %v", i, err)
		}
		if f.Seq != uint64(cs.FrameIndex) {
			t.Fatalf("frame seq %d, producer captured frame %d", f.Seq, cs.FrameIndex)
		}
	}
	if b.mgr.SubscriptionsOpen() != 1 || a.mgr.SubscriptionsOpen() != 0 {
		t.Fatalf("subscriptions on A, B = %d, %d; want the stream on B", a.mgr.SubscriptionsOpen(), b.mgr.SubscriptionsOpen())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewaySubscribeLatency: rpxgw_proxy_op_latency_seconds{op="subscribe"}
// times the SUBSCRIBE round trip, not the stream it opens.
func TestGatewaySubscribeLatency(t *testing.T) {
	b := startBackend(t)
	reg := obs.NewRegistry()
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, func(cfg *gateway.Config) { cfg.Metrics = reg })
	sess := dialVia(t, addr, 8, 8)
	st, err := sess.Subscribe(client.SubscribeOptions{Target: sess.ID(), Credit: 1})
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

// TestGatewayOneRolePerConnection: through the gateway as on rpxd, a
// connection's first message fixes its one role. A session connection
// answers SUBSCRIBE and the stream messages with PROTO and keeps serving;
// a stream answers any other message with PROTO and ends. A SUBSCRIBE of
// another protocol version draws PROTO, and one naming target 0 or a
// session the gateway does not proxy draws an ERROR from the gateway,
// opening no subscription on any backend.
func TestGatewayOneRolePerConnection(t *testing.T) {
	b := startBackend(t)
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)
	send, expect := rawSession(t, addr)
	producer := dialVia(t, addr, 16, 16)
	subscribe := wire.MarshalSubscribe(wire.Subscribe{Target: producer.ID(), Credit: 4, Batch: 1})
	for _, req := range []struct {
		typ     byte
		payload []byte
	}{
		{wire.MsgSubscribe, subscribe},
		{wire.MsgCredit, wire.MarshalCredit(1)},
		{wire.MsgStreamLabels, wire.MarshalLabels(rpx.RegionList{{W: 4, H: 4, Stride: 1, Skip: 1}})},
		{wire.MsgUnsubscribe, nil},
	} {
		send(req.typ, req.payload)
		expectCode(t, expect(wire.MsgError), wire.CodeProto)
	}
	send(wire.MsgCapture, make([]byte, 16*16))
	expect(wire.MsgCaptureAck)

	stream := dialRaw(t, addr)
	writeRaw(t, stream, wire.MsgSubscribe, subscribe)
	readRaw(t, stream, wire.MsgAck)
	writeRaw(t, stream, wire.MsgCapture, make([]byte, 16*16))
	expectCode(t, readRaw(t, stream, wire.MsgError), wire.CodeProto)
	if _, _, err := wire.ReadMessage(stream, 0); err == nil {
		t.Fatal("the stream served on after a PROTO error")
	}

	v11 := bytes.Clone(subscribe)
	binary.LittleEndian.PutUint32(v11[4:], 11)
	zero := bytes.Clone(subscribe)
	binary.LittleEndian.PutUint64(zero[8:], 0)
	foreign := wire.MarshalSubscribe(wire.Subscribe{Target: producer.ID() + 1, Credit: 4})
	for _, tc := range []struct {
		payload []byte
		code    uint16
	}{{v11, wire.CodeProto}, {zero, wire.CodeProto}, {foreign, wire.CodeBadRequest}} {
		conn := dialRaw(t, addr)
		writeRaw(t, conn, wire.MsgSubscribe, tc.payload)
		expectCode(t, readRaw(t, conn, wire.MsgError), tc.code)
	}
	for deadline := time.Now().Add(5 * time.Second); b.mgr.SubscriptionsOpen() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend holds %d subscriptions, want 0", b.mgr.SubscriptionsOpen())
		}
	}
	if n := b.mgr.Snapshot().StreamSubsOpen; n != 0 {
		t.Fatalf("snapshot counts %d open subscriptions", n)
	}
}

// expectCode fails unless payload is an ERROR with the given code.
func expectCode(t *testing.T, payload []byte, code uint16) {
	t.Helper()
	re, err := wire.UnmarshalError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != code {
		t.Fatalf("error %v, want code %d", re, code)
	}
}

// TestGatewayRetiredTypesGetProtoError: the gateway relays the request
// types protocol 9 retired (8 DECODE_WINDOW, 10 STATS, 12 GET_ENCODED) and
// the type protocol 12 retired (17 SUBSCRIBE_ACK) like any other, so each
// draws the backend's PROTO error, and the connection keeps serving.
func TestGatewayRetiredTypesGetProtoError(t *testing.T) {
	b := startBackend(t)
	addr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)
	send, expect := rawSession(t, addr)
	for _, req := range []struct {
		typ     byte
		payload []byte
	}{{8, make([]byte, 16)}, {10, nil}, {12, nil}, {17, make([]byte, 16)}} {
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
	conn := dialRaw(t, addr)
	send = func(typ byte, payload []byte) {
		t.Helper()
		writeRaw(t, conn, typ, payload)
	}
	expect = func(want byte) []byte {
		t.Helper()
		return readRaw(t, conn, want)
	}
	send(wire.MsgHello, wire.MarshalHello(wire.Hello{W: 16, H: 16, Format: rpx.Gray8}))
	expect(wire.MsgHelloAck)
	return send, expect
}

// dialRaw opens a raw connection to addr, closed when the test ends.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// writeRaw sends one message on conn.
func writeRaw(t *testing.T, conn net.Conn, typ byte, payload []byte) {
	t.Helper()
	if err := wire.WriteMessage(conn, typ, payload, 0); err != nil {
		t.Fatal(err)
	}
}

// readRaw reads one message of type want from conn and returns its payload.
func readRaw(t *testing.T, conn net.Conn, want byte) []byte {
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

// TestStreamPayloadLayouts pins protocol 12's stream payloads, on rpxd and
// through rpxgw alike. SUBSCRIBE is answered by the empty ACK. A
// one-frame FRAME_PUSH is 5 + 12 + 4 bytes plus the container: the u64
// dropped count, the u32 record count, the u32 record length, then the
// container, byte-identical to the in-process pipeline's. CREDIT is a u32
// grant; STREAM_LABELS is a SET_LABELS payload, answered by a
// LABELS_APPLIED of a u64 boundary, a u16 code and the message. UNSUBSCRIBE
// is empty and answered by the empty ACK, and the connection then closes.
// A zero CREDIT or a non-empty UNSUBSCRIBE ends the stream unacknowledged,
// and a protocol-11 HELLO or SUBSCRIBE draws PROTO with the
// *wire.VersionError's message.
func TestStreamPayloadLayouts(t *testing.T) {
	b := startBackend(t)
	gaddr, _ := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)
	for _, via := range []struct{ name, addr string }{{"rpxd", b.addr}, {"rpxgw", gaddr}} {
		t.Run(via.name, func(t *testing.T) { checkStreamPayloads(t, via.addr) })
	}
	for deadline := time.Now().Add(5 * time.Second); b.mgr.SubscriptionsOpen() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend holds %d subscriptions after every stream ended", b.mgr.SubscriptionsOpen())
		}
	}
}

func checkStreamPayloads(t *testing.T, addr string) {
	const w, h = 16, 12
	labelsA := []rpx.RegionLabel{{X: 2, Y: 1, W: 9, H: 7, Stride: 1, Skip: 1}}
	labelsB := []rpx.RegionLabel{{X: 0, Y: 4, W: w, H: 8, Stride: 2, Skip: 1}}
	producer := dialVia(t, addr, w, h)
	ref, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	for _, install := range []func([]rpx.RegionLabel) error{producer.SetRegionLabels, ref.SetRegionLabels} {
		if err := install(labelsA); err != nil {
			t.Fatal(err)
		}
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	capture := func(i int) []byte { // the frame's reference container
		t.Helper()
		for p := range fr.Pix {
			fr.Pix[p] = byte(31*i + p)
		}
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Capture(fr); err != nil {
			t.Fatal(err)
		}
		return ref.LastEncoded().AppendTo(nil)
	}
	expectPush := func(conn net.Conn, dropped uint64, container []byte) {
		t.Helper()
		want := binary.LittleEndian.AppendUint32(nil, uint32(12+4+len(container)))
		want = append(want, wire.MsgFramePush)
		want = binary.LittleEndian.AppendUint64(want, dropped)
		want = binary.LittleEndian.AppendUint32(want, 1)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(container)))
		want = append(want, container...)
		got := make([]byte, len(want))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("one-frame FRAME_PUSH on the wire:\n got %x\nwant %x", got, want)
		}
	}
	subscribe := wire.MarshalSubscribe(wire.Subscribe{Target: producer.ID(), Credit: 1, Batch: 1})

	stream := dialRaw(t, addr)
	writeRaw(t, stream, wire.MsgSubscribe, subscribe)
	if ack := readRaw(t, stream, wire.MsgAck); len(ack) != 0 {
		t.Fatalf("SUBSCRIBE's ACK carries %d bytes, want none", len(ack))
	}
	expectPush(stream, 0, capture(0))
	capture(1) // the window is spent: dropped
	// The stream reads in order, so the labels' reply also says the grant
	// before them has landed.
	writeRaw(t, stream, wire.MsgCredit, binary.LittleEndian.AppendUint32(nil, 1))
	writeRaw(t, stream, wire.MsgStreamLabels, wire.MarshalLabels(labelsB))
	applied := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint64(nil, 2), 0)
	if got := readRaw(t, stream, wire.MsgLabelsApplied); !bytes.Equal(got, applied) {
		t.Fatalf("LABELS_APPLIED = %x, want %x (frame 2, code 0, no message)", got, applied)
	}
	if err := ref.SetRegionLabels(labelsB); err != nil {
		t.Fatal(err)
	}
	expectPush(stream, 1, capture(2))
	writeRaw(t, stream, wire.MsgUnsubscribe, nil)
	if ack := readRaw(t, stream, wire.MsgAck); len(ack) != 0 {
		t.Fatalf("UNSUBSCRIBE's ACK carries %d bytes, want none", len(ack))
	}
	if _, _, err := wire.ReadMessage(stream, 0); err == nil {
		t.Fatal("the stream's connection stayed open after UNSUBSCRIBE's ACK")
	}

	// Protocol 11's CREDIT and UNSUBSCRIBE led with a u64 subscription id.
	for _, msg := range []struct {
		typ     byte
		payload []byte
	}{
		{wire.MsgCredit, make([]byte, 4)},
		{wire.MsgCredit, make([]byte, 12)},
		{wire.MsgUnsubscribe, make([]byte, 8)},
	} {
		conn := dialRaw(t, addr)
		writeRaw(t, conn, wire.MsgSubscribe, subscribe)
		readRaw(t, conn, wire.MsgAck)
		writeRaw(t, conn, msg.typ, msg.payload)
		for {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			typ, _, err := wire.ReadMessage(conn, 0)
			if err != nil {
				break
			}
			if typ != wire.MsgError { // rpxgw reports the backend's hang-up
				t.Fatalf("message type %d with a %d-byte payload: the stream answered %d", msg.typ, len(msg.payload), typ)
			}
		}
	}

	v11 := (&wire.VersionError{Got: 11}).Error()
	hello := wire.MarshalHello(wire.Hello{W: w, H: h, Format: rpx.Gray8})
	for _, first := range []struct {
		typ     byte
		payload []byte
	}{{wire.MsgHello, hello}, {wire.MsgSubscribe, subscribe}} {
		msg := bytes.Clone(first.payload)
		binary.LittleEndian.PutUint32(msg[4:], 11)
		conn := dialRaw(t, addr)
		writeRaw(t, conn, first.typ, msg)
		re, err := wire.UnmarshalError(readRaw(t, conn, wire.MsgError))
		if err != nil {
			t.Fatal(err)
		}
		if re.Code != wire.CodeProto || re.Message != v11 {
			t.Fatalf("protocol-11 message type %d: error %v, want PROTO %q", first.typ, re, v11)
		}
	}
}
