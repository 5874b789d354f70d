package client_test

import (
	"testing"

	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// TestStreamSetLabelsBoundary: the closed-loop path end to end. A subscriber
// pushes a label workload back to the producer mid-stream and the
// LABELS_APPLIED boundary is exact — every frame before it carries the old
// workload's pixel fraction, every frame from it on the new one.
func TestStreamSetLabelsBoundary(t *testing.T) {
	const w, h = 64, 48
	addr := startServer(t, server.Config{}, server.TCPConfig{})
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}

	sub, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	st, err := sub.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 64, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}

	var acks []client.LabelsApplied
	st.OnLabelsApplied(func(la client.LabelsApplied) { acks = append(acks, la) })

	capture := func(n int) {
		t.Helper()
		fr := rpx.NewFrame(w, h, rpx.Gray8)
		for i := 0; i < n; i++ {
			fillFrame(fr, 9, i)
			if _, err := producer.Capture(fr); err != nil {
				t.Fatal(err)
			}
		}
	}

	const before = 3
	capture(before)
	// Push the new workload from the subscriber side, mid-stream. The write
	// is async; the ack arrives through Recv, ordered before any frame
	// captured under the new labels.
	if err := st.SetLabels([]rpx.RegionLabel{{X: 0, Y: 0, W: w / 2, H: h / 2, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	// Captures submitted only after the ack is on the wire would be trivially
	// ordered; submitting them immediately exercises the session lock's
	// serialization instead. The boundary must still be exact.
	const after = 3
	capture(after)

	total := before + after
	frames := make([]client.StreamFrame, 0, total)
	for len(frames) < total {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		frames = append(frames, f)
	}
	// The ack and the frame pushes leave on independent writers, so keep
	// the stream moving until the ack has arrived.
	for len(acks) == 0 {
		capture(1)
		total++
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv awaiting ack: %v", err)
		}
		frames = append(frames, f)
	}
	if acks[0].Err != nil {
		t.Fatalf("labels rejected: %v", acks[0].Err)
	}
	boundary := acks[0].AppliedSeq
	// SetLabels raced the captures for the producer's session lock, so the
	// boundary may land anywhere up to the frames captured so far; wherever
	// it landed, it must split the pixel-fraction regimes exactly.
	if boundary > uint64(total) {
		t.Fatalf("boundary %d beyond the %d captured frames", boundary, total)
	}
	for _, f := range frames {
		full := f.Stats.PixelFraction > 0.99
		if f.Seq < boundary && !full {
			t.Fatalf("frame %d is before boundary %d but has fraction %.3f, want full",
				f.Seq, boundary, f.Stats.PixelFraction)
		}
		if f.Seq >= boundary && full {
			t.Fatalf("frame %d is at/after boundary %d but still full-frame", f.Seq, boundary)
		}
	}

	// A rejected workload reports its error through the same path and leaves
	// the stream and the previous labels intact.
	if err := st.SetLabels([]rpx.RegionLabel{{X: -4, Y: 0, W: w * 4, H: h, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	for len(acks) < 2 {
		capture(1)
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv after rejected labels: %v", err)
		}
		if f.Stats.PixelFraction > 0.99 {
			t.Fatal("rejected labels replaced the in-force workload")
		}
	}
	if acks[1].Err == nil {
		t.Fatalf("rejected workload: acks = %+v, want a second ack with an error", acks)
	}

	if err := st.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	// The session is back in request/reply mode.
	if _, err := sub.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
}
