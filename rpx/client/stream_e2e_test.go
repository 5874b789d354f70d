package client_test

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// TestStreamPushBasic: a producer session captures frames request/reply
// while a second connection subscribes to its stream and receives every
// frame in order, byte-identical to an in-process rpx.System fed the same
// labels and frames.
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
	if st.NextSeq() != 0 {
		t.Fatalf("NextSeq = %d on a virgin producer", st.NextSeq())
	}
	// Request/reply is locked out while the stream owns the connection.
	if _, err := sub.Decoded(); !errors.Is(err, client.ErrStreaming) {
		t.Fatalf("Decoded during stream = %v, want ErrStreaming", err)
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
	}

	// Clean unsubscribe: the stream ends with io.EOF and the session
	// returns to request/reply mode on the same connection.
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

// TestStreamSubscribeErrors pins the failure modes: unknown target session
// and double subscribe.
func TestStreamSubscribeErrors(t *testing.T) {
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	sess, err := client.Dial(addr, client.Config{W: 16, H: 16, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var re *wire.RemoteError
	if _, err := sess.Subscribe(client.SubscribeOptions{Target: 9999}); !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("unknown target err = %v, want BAD_REQUEST", err)
	}
	// The failed subscribe left the session in request/reply mode.
	st, err := sess.Subscribe(client.SubscribeOptions{Credit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe(client.SubscribeOptions{Credit: 1}); !errors.Is(err, client.ErrStreaming) {
		t.Fatalf("double subscribe err = %v, want ErrStreaming", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Capture(rpx.NewFrame(16, 16, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
}
