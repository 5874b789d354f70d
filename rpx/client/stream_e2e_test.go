package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// TestStreamPushBasic: a producer session captures frames request/reply
// while a second session subscribes to its stream and receives every frame
// in order, byte-identical to an in-process rpx.System fed the same labels
// and frames. The subscribing session answers CAPTURE and DECODE of its
// own while its stream delivers.
func TestStreamPushBasic(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: 64, H: 48, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	sub, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	st, err := sub.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}

	labels := []rpx.RegionLabel{{X: 8, Y: 8, W: 32, H: 24, Stride: 1, Skip: 1}}
	if err := producer.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	ref, err := rpx.NewSystem(64, 48, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	const frames = 20
	fr := rpx.NewFrame(64, 48, rpx.Gray8)
	stats := make([]rpx.CaptureStats, frames)
	want := make([][]byte, frames)
	for i := 0; i < frames; i++ {
		fillFrame(fr, 1, i)
		cs, err := producer.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = cs
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
			t.Fatalf("frame %d has seq %d — gap or reorder", i, f.Seq)
		}
		if f.Stats != stats[i] {
			t.Fatalf("frame %d stats = %+v, want %+v", i, f.Stats, stats[i])
		}
		if f.Dropped != 0 {
			t.Fatalf("frame %d reports %d dropped with ample credit", i, f.Dropped)
		}
		if _, err := f.Decode(); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		if !bytes.Equal(f.Raw, want[i]) {
			t.Fatalf("pushed frame %d bytes differ from the in-process pipeline", i)
		}
		// The stream has a connection of its own, so the session it was
		// opened from keeps serving between frames.
		own := rpx.NewFrame(8, 8, rpx.Gray8)
		fillFrame(own, 9, i)
		cs, err := sub.Capture(own)
		if err != nil {
			t.Fatalf("Capture mid-stream, frame %d: %v", i, err)
		}
		if cs.FrameIndex != i {
			t.Fatalf("mid-stream capture %d has frame index %d", i, cs.FrameIndex)
		}
		if _, err := sub.Decoded(); err != nil {
			t.Fatalf("Decoded mid-stream, frame %d: %v", i, err)
		}
	}

	// Clean unsubscribe: the stream ends with io.EOF, and the session
	// serves on.
	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("Recv after close = %v, want io.EOF", err)
	}
	if _, err := sub.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
}

// TestStreamCreditStarvation: with the window exhausted the server drops
// frames (counted, visible as a seq gap) instead of buffering unboundedly
// or blocking the producer.
func TestStreamCreditStarvation(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: 32, H: 32, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	subSess, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer subSess.Close()
	st, err := subSess.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(32, 32, rpx.Gray8)
	for i := 0; i < 5; i++ {
		fillFrame(fr, 2, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
	}
	// Frames 0 and 1 consumed the window; 2..4 dropped.
	for i := 0; i < 2; i++ {
		f, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("got seq %d, want %d", f.Seq, i)
		}
	}
	if err := st.Grant(wire.MaxCreditWindow); err != nil {
		t.Fatal(err)
	}
	// The CREDIT grant travels on the subscriber connection and races the
	// producer's next capture on its own connection: a capture the server
	// processes first is dropped (zero credit, by design). Keep producing
	// until one frame lands in the re-opened window.
	stop := make(chan struct{})
	captureErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 5; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fillFrame(fr, 2, i)
			if _, err := producer.Capture(fr); err != nil {
				captureErr <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	f, err := st.Recv()
	close(stop)
	wg.Wait()
	if err != nil {
		select {
		case cerr := <-captureErr:
			t.Fatalf("recv: %v (capture: %v)", err, cerr)
		default:
		}
		t.Fatal(err)
	}
	if f.Seq < 5 {
		t.Fatalf("post-grant seq = %d, want >= 5 (frames 2..4 dropped)", f.Seq)
	}
	// Frames 2..f.Seq-1 were dropped while the window was closed; nothing
	// after the grant took effect may be lost.
	if f.Dropped != f.Seq-2 {
		t.Fatalf("dropped = %d, want %d (frames 2..%d)", f.Dropped, f.Seq-2, f.Seq-1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFanOutAndSessionClose: two subscribers on one producer receive
// identical bytes; when the producer's session ends mid-stream each gets
// the typed UNAVAILABLE error, not a torn stream.
func TestStreamFanOutAndSessionClose(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: 48, H: 32, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(48, 32)}); err != nil {
		t.Fatal(err)
	}

	const nSubs = 2
	streams := make([]*client.Stream, nSubs)
	for i := range streams {
		sess, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if streams[i], err = sess.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 16, Batch: 4}); err != nil {
			t.Fatal(err)
		}
	}

	const frames = 6
	fr := rpx.NewFrame(48, 32, rpx.Gray8)
	for i := 0; i < frames; i++ {
		fillFrame(fr, 3, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		var first []byte
		for si, st := range streams {
			f, err := st.Recv()
			if err != nil {
				t.Fatalf("sub %d frame %d: %v", si, i, err)
			}
			if f.Seq != uint64(i) {
				t.Fatalf("sub %d frame %d seq = %d", si, i, f.Seq)
			}
			if si == 0 {
				first = f.Raw
			} else if !bytes.Equal(first, f.Raw) {
				t.Fatalf("fan-out bytes diverge at frame %d", i)
			}
		}
	}

	// Producer goes away: both streams must end with the typed error.
	if err := producer.Close(); err != nil {
		t.Fatal(err)
	}
	for si, st := range streams {
		_, err := st.Recv()
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeUnavailable {
			t.Fatalf("sub %d end-of-stream err = %v, want UNAVAILABLE", si, err)
		}
		// Terminal server error ends only the stream, not the session.
		if _, err := st.Recv(); !errors.As(err, &re) {
			t.Fatalf("sub %d Recv after end = %v", si, err)
		}
	}
}

// TestStreamGrantRacesEnd: Grant is documented as safe to call while
// another goroutine blocks in Recv, and that includes the moment Recv sees
// the stream end. One goroutine grants credit in a loop while Recv observes
// the producer closing; under -race an unsynchronized read or write of the
// stream's end state is reported.
func TestStreamGrantRacesEnd(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: 16, H: 16, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	sub, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st, err := sub.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 1})
	if err != nil {
		t.Fatal(err)
	}

	granted := make(chan struct{})
	granterDone := make(chan struct{})
	go func() {
		defer close(granterDone)
		for i := 0; ; i++ {
			if err := st.Grant(1); err != nil {
				return // the stream has ended
			}
			if i == 0 {
				close(granted)
			}
		}
	}()
	<-granted
	if err := producer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err == nil {
		t.Fatal("Recv returned a frame from a producer that captured none")
	}
	<-granterDone
	if err := st.Grant(1); err == nil {
		t.Fatal("Grant after the stream ended succeeded")
	}
}

// TestStreamSubscribeErrors pins the failure modes: an unknown target and
// target 0 each draw an ERROR and open no subscription. One session may
// run several streams at once, each on its own connection.
func TestStreamSubscribeErrors(t *testing.T) {
	mgr := server.NewManager(server.Config{})
	addr := serveManager(t, mgr, server.TCPConfig{})
	sess, err := client.Dial(addr, client.Config{W: 16, H: 16, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, tc := range []struct {
		target uint64
		code   uint16
	}{{9999, wire.CodeBadRequest}, {0, wire.CodeProto}} {
		var re *wire.RemoteError
		if _, err := sess.Subscribe(client.SubscribeOptions{Target: tc.target}); !errors.As(err, &re) || re.Code != tc.code {
			t.Fatalf("target %d: err = %v, want code %d", tc.target, err, tc.code)
		}
	}
	if n := mgr.SubscriptionsOpen(); n != 0 {
		t.Fatalf("refused subscribes left %d subscriptions open", n)
	}

	producer, err := client.Dial(addr, client.Config{W: 16, H: 16, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	var streams [2]*client.Stream
	for i := range streams {
		if streams[i], err = sess.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := producer.Capture(rpx.NewFrame(16, 16, rpx.Gray8)); err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		if f, err := st.Recv(); err != nil || f.Seq != 0 {
			t.Fatalf("stream %d: frame seq %d, err %v; want frame 0", i, f.Seq, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Capture(rpx.NewFrame(16, 16, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
}

// TestSessionCloseEndsItsStreams: closing a session closes the streams it
// opened, so a Recv blocked on one returns promptly instead of waiting
// for a frame.
func TestSessionCloseEndsItsStreams(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: 16, H: 16, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	sess, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 1})
	if err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := st.Recv()
		recvErr <- err
	}()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("Recv returned a frame from a producer that captured none")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after its session closed")
	}
	if _, err := sess.Subscribe(client.SubscribeOptions{Target: producer.ID()}); err == nil {
		t.Fatal("Subscribe on a closed session succeeded")
	}
}

// TestStreamRejectsMalformedContainers: a FRAME_PUSH whose framing is
// sound but one of whose records is not the container its header
// describes — a bad header, or a length one byte off the size the header
// implies — ends the stream at Recv with an error and returns no frame of
// that push, whether the push comes straight from the peer or relayed by
// rpxgw. The peer is a raw protocol-12 server that opens sessions and
// pushes the given records on every stream.
func TestStreamRejectsMalformedContainers(t *testing.T) {
	sys, err := rpx.NewSystem(16, 12, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels([]rpx.RegionLabel{{X: 2, Y: 1, W: 9, H: 7, Stride: 2, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Capture(rpx.NewFrame(16, 12, rpx.Gray8)); err != nil {
		t.Fatal(err)
	}
	good := sys.LastEncoded().AppendTo(nil)
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xff
	for _, tc := range []struct {
		name    string
		records [][]byte
	}{
		{"bad magic", [][]byte{badMagic}},
		{"one byte short", [][]byte{good[:len(good)-1]}},
		{"one byte long", [][]byte{append(bytes.Clone(good), 0)}},
		{"after a good record", [][]byte{good, good[:len(good)-1]}},
	} {
		peer := startPushPeer(t, wire.MarshalFramePush(wire.FramePush{Frames: tc.records}))
		gw, err := gateway.New(gateway.Config{
			Backends: []gateway.Backend{{Addr: peer}},
			Health:   gateway.WatcherConfig{Interval: time.Hour, Timeout: 500 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go gw.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			gw.Shutdown(ctx)
		})
		for _, via := range []struct{ name, addr string }{{"direct", peer}, {"rpxgw", ln.Addr().String()}} {
			sess, err := client.Dial(via.addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, via.name, err)
			}
			st, err := sess.Subscribe(client.SubscribeOptions{Target: sess.ID(), Credit: 4})
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, via.name, err)
			}
			for i := 0; i < 2; i++ {
				f, err := st.Recv()
				if err == nil || f.Raw != nil {
					t.Fatalf("%s %s: Recv %d = frame %d (%d bytes), %v; want no frame and an error",
						tc.name, via.name, i, f.Seq, len(f.Raw), err)
				}
				if !strings.Contains(err.Error(), "FRAME_PUSH record") {
					t.Fatalf("%s %s: Recv %d: %v, want the record's error", tc.name, via.name, i, err)
				}
			}
			sess.Close()
		}
	}
}

// startPushPeer serves a minimal protocol-12 peer until the test ends: a
// HELLO opens a session (id 7) that answers CLOSE, and a SUBSCRIBE is
// acked and then sent the FRAME_PUSH payload push.
func startPushPeer(t *testing.T, push []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(conn net.Conn) {
		defer conn.Close()
		typ, _, err := wire.ReadMessage(conn, 0)
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgHello:
			ack := wire.MarshalHelloAck(wire.HelloAck{SessionID: 7, MaxPayload: wire.DefaultMaxPayload})
			if wire.WriteMessage(conn, wire.MsgHelloAck, ack, 0) != nil {
				return
			}
			for {
				typ, _, err := wire.ReadMessage(conn, 0)
				if err != nil || typ == wire.MsgClose {
					wire.WriteMessage(conn, wire.MsgAck, nil, 0)
					return
				}
				wire.WriteMessage(conn, wire.MsgError, wire.MarshalError(wire.CodeProto, "not served"), 0)
			}
		case wire.MsgSubscribe:
			if wire.WriteMessage(conn, wire.MsgAck, nil, 0) != nil ||
				wire.WriteMessage(conn, wire.MsgFramePush, push, 0) != nil {
				return
			}
			io.Copy(io.Discard, conn) // until the client hangs up
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}
