package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/region"
	"repro/internal/wire"
	"repro/rpx"
)

// The push path queues a session's live encoded frames, pinned, and the
// stream writer sends their own bytes. These tests pin the rule that makes
// that safe: a frame is never recycled while a writer still holds it, and
// every pin is released again — after a successful write, a failed one, and
// on teardown.

// pinLabels returns the i-th of a cycle of label workloads whose masks all
// differ, so a recycled frame's storage always changes under a reader.
func pinLabels(i int) region.List {
	skip := 1 + i%3
	return region.List{
		{X: i % 7, Y: 1 + i%5, W: 24 + i%9, H: 16, Stride: 1 + i%2, Skip: 1},
		{X: 30, Y: 20 + i%6, W: 20, H: 12 + i%4, Stride: 1, Skip: skip, Phase: i % skip},
	}
}

// pipeSubscriber serves one connection over net.Pipe — whose writes
// complete only as the other end reads, and whose reads the race detector
// sees — and subscribes it to target's stream. It returns the client end
// and a channel closed once the server's handler has returned.
func pipeSubscriber(t *testing.T, srv *TCPServer, target uint64, credit, batch uint32) (net.Conn, <-chan struct{}) {
	t.Helper()
	cli, conn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handle(conn)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-served
	})
	send := func(typ byte, payload []byte) {
		t.Helper()
		cli.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteMessage(cli, typ, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.MsgHello, wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: frame.Gray8}))
	readExpect(t, cli, wire.MsgHelloAck)
	send(wire.MsgSubscribe, wire.MarshalSubscribe(wire.Subscribe{Target: target, Credit: credit, Batch: batch}))
	readExpect(t, cli, wire.MsgSubscribeAck)
	return cli, served
}

// TestStreamLaggingSubscriberReadsIntactFrames blocks a subscriber's writer
// in the middle of its first FRAME_PUSH while the producer captures three
// times its history depth in frames, with changing pixels and labels, so
// every queued frame — the one being written included — is evicted from
// the history while pinned. Once the reader resumes, every record must
// equal the serialization of an in-process rpx.System fed the same labels
// and frames. Recycling a pinned frame, or unpinning before the write
// returns, hands the frame's storage to a later capture and fails this
// test on every run.
func TestStreamLaggingSubscriberReadsIntactFrames(t *testing.T) {
	const frames = 1 + 3*core.DefaultHistoryDepth
	m := NewManager(Config{})
	defer m.Close()
	srv := NewTCPServer(m, TCPConfig{})
	prod, err := m.Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := pipeSubscriber(t, srv, prod.ID(), frames, 4)
	ref, err := rpx.NewSystem(64, 48, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}

	want := make([][]byte, frames)
	stats := make([]wire.CaptureAck, frames)
	capture := func(i int) {
		t.Helper()
		fr := testFrame(64, 48, frame.Gray8, 11*i+3)
		if err := prod.SetRegionLabels(pinLabels(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetRegionLabels(pinLabels(i)); err != nil {
			t.Fatal(err)
		}
		cs, err := prod.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Capture(fr); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.LastEncoded().AppendTo(nil)
		stats[i] = wire.CaptureAck{FrameIndex: cs.FrameIndex, EncodedPixels: cs.EncodedPixels,
			EncodedBytes: cs.EncodedBytes, PixelFraction: cs.PixelFraction}
	}

	// Frame 0's FRAME_PUSH starts; reading just its 5-byte message header
	// leaves the writer blocked inside the write that carries the frame.
	capture(0)
	var hdr [5]byte
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(cli, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if hdr[4] != wire.MsgFramePush {
		t.Fatalf("first stream message has type %d, want FRAME_PUSH", hdr[4])
	}
	for i := 1; i < frames; i++ {
		capture(i)
	}

	// Resume: finish the first message, then read the rest.
	payload := make([]byte, int(hdr[0])|int(hdr[1])<<8|int(hdr[2])<<16|int(hdr[3])<<24)
	if _, err := io.ReadFull(cli, payload); err != nil {
		t.Fatal(err)
	}
	next := 0
	for {
		p, err := wire.UnmarshalFramePush(payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.Dropped != 0 {
			t.Fatalf("FRAME_PUSH reports %d dropped with ample credit", p.Dropped)
		}
		for _, f := range p.Frames {
			if f.Seq != uint64(next) {
				t.Fatalf("record has seq %d, want %d", f.Seq, next)
			}
			if f.Stats != stats[next] {
				t.Errorf("frame %d stats: push %+v, capture %+v", next, f.Stats, stats[next])
			}
			if !bytes.Equal(f.Enc, want[next]) {
				t.Errorf("frame %d: pushed bytes differ from its serialization at capture", next)
			}
			next++
		}
		if next == frames {
			break
		}
		payload = readExpect(t, cli, wire.MsgFramePush)
	}
}

// TestStreamWriteTimeoutReleasesPins stalls a subscriber past WriteTimeout
// while the producer captures. The writer's failed write ends the stream;
// once it has ended, steady-state capture is back to zero allocations,
// which it is only if every frame the dead stream held was unpinned and so
// recycled on eviction.
func TestStreamWriteTimeoutReleasesPins(t *testing.T) {
	const depth = core.DefaultHistoryDepth
	m := NewManager(Config{})
	defer m.Close()
	srv := NewTCPServer(m, TCPConfig{WriteTimeout: 100 * time.Millisecond})
	prod, err := m.Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	if err := prod.SetRegionLabels(pinLabels(0)); err != nil {
		t.Fatal(err)
	}
	cli, served := pipeSubscriber(t, srv, prod.ID(), wire.MaxCreditWindow, 1)

	// The subscriber reads nothing: the writer blocks on frame 0 while the
	// later frames queue, pinned, until the write deadline ends the stream.
	for i := 0; i < 2*depth; i++ {
		if _, err := prod.Capture(testFrame(64, 48, frame.Gray8, i)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); m.SubscriptionsOpen() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscription still open long after WriteTimeout")
		}
	}
	cli.Close()
	<-served
	if got := m.streamPushed.Load(); got != 0 {
		t.Fatalf("%d frames pushed to a subscriber that never read", got)
	}

	// Evicting the stalled stream's frames must recycle each one.
	fr := testFrame(64, 48, frame.Gray8, 99)
	if allocs := testing.AllocsPerRun(depth, func() {
		if _, err := prod.Capture(fr); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("capture after the stalled stream ended allocates %v per frame, want 0: a pin leaked", allocs)
	}
}

// TestAllocsPublishPush gates the producer's push path — Session.Capture,
// which publishes under the session lock, plus the stream writers, on
// loopback TCP — at zero allocations per published frame, at 1, 2 and 8
// subscribers.
func TestAllocsPublishPush(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("subscribers%d", n), func(t *testing.T) {
			srv, addr := startTestServer(t, Config{}, TCPConfig{})
			prod, err := srv.Manager().Open(SessionConfig{W: 160, H: 120, Format: frame.Gray8})
			if err != nil {
				t.Fatal(err)
			}
			if err := prod.SetRegionLabels(pinLabels(1)); err != nil {
				t.Fatal(err)
			}
			got := make(chan struct{}, n)
			for i := 0; i < n; i++ {
				conn := dialRaw(t, addr)
				if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: frame.Gray8}), 0); err != nil {
					t.Fatal(err)
				}
				readExpect(t, conn, wire.MsgHelloAck)
				sub := wire.Subscribe{Target: prod.ID(), Credit: wire.MaxCreditWindow, Batch: 1}
				if err := wire.WriteMessage(conn, wire.MsgSubscribe, wire.MarshalSubscribe(sub), 0); err != nil {
					t.Fatal(err)
				}
				readExpect(t, conn, wire.MsgSubscribeAck)
				conn.SetReadDeadline(time.Time{})
				go func() {
					var buf []byte
					for {
						typ, _, err := wire.ReadMessageInto(conn, &buf, 0)
						if err != nil || typ != wire.MsgFramePush {
							return
						}
						got <- struct{}{}
					}
				}()
			}

			// Every subscriber has read the frame before the next one is
			// captured.
			fr := testFrame(160, 120, frame.Gray8, 5)
			push := func() {
				if _, err := prod.Capture(fr); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					<-got
				}
			}
			for i := 0; i < 8; i++ {
				push()
			}
			if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
				t.Fatalf("publishing to %d subscribers allocates %v objects per frame, want 0", n, allocs)
			}
		})
	}
}
