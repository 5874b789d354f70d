package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// TestStreamLabelBoundaryDifferential: the differential acceptance test for
// mid-stream label updates. A label workload pushed over an open
// subscription takes effect on the deterministic boundary the server
// reports, and the streamed output is byte-identical to an in-process
// rpx.System that switches workloads at exactly that boundary: every pushed
// record equals the reference's LastEncoded serialization, and the frames
// on each side of the boundary reconstruct to the same bytes the reference
// produces. Cell pN runs N producer/subscriber pairs at once against one
// server, each on its own scene, so a label update that reached another
// session's stream would break that session's replay.
func TestStreamLabelBoundaryDifferential(t *testing.T) {
	for _, pairs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("p%d", pairs), func(t *testing.T) {
			addr := startServer(t, server.Config{}, server.TCPConfig{})
			for pair := 0; pair < pairs; pair++ {
				t.Run(fmt.Sprint(pair), func(t *testing.T) {
					t.Parallel()
					runLabelBoundaryDifferential(t, addr, 7+pair)
				})
			}
		})
	}
}

// runLabelBoundaryDifferential streams one producer's scene (fillFrame's
// session argument) through a subscriber that swaps the label workload
// mid-stream, and replays it on an in-process reference.
func runLabelBoundaryDifferential(t *testing.T, addr string, scene int) {
	const w, h = 64, 48
	labelsA := []rpx.RegionLabel{rpx.FullFrame(w, h)}
	// The replacement workload mixes sampling parameters so both the spatial
	// (stride) and temporal (skip/phase) decode paths cross the boundary.
	labelsB := []rpx.RegionLabel{
		{X: 0, Y: 0, W: 32, H: 24, Stride: 1, Skip: 1},
		{X: 32, Y: 24, W: 32, H: 24, Stride: 2, Skip: 2, Phase: 1},
	}
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels(labelsA); err != nil {
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

	// Inputs are a deterministic function of the scene and frame index, so
	// the reference below replays them exactly.
	next := 0
	capture := func(n int) {
		t.Helper()
		fr := rpx.NewFrame(w, h, rpx.Gray8)
		for i := 0; i < n; i++ {
			fillFrame(fr, scene, next)
			next++
			if _, err := producer.Capture(fr); err != nil {
				t.Fatal(err)
			}
		}
	}

	const before, after = 4, 4
	capture(before)
	if err := st.SetLabels(labelsB); err != nil {
		t.Fatal(err)
	}
	capture(after)

	var frames []client.StreamFrame
	for len(frames) < before+after {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		f.Raw = bytes.Clone(f.Raw) // kept past the next Recv
		frames = append(frames, f)
	}
	// The ack rides an independent writer; keep the stream moving until it
	// lands (frames captured meanwhile stay part of the comparison).
	for len(acks) == 0 {
		capture(1)
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv awaiting ack: %v", err)
		}
		f.Raw = bytes.Clone(f.Raw)
		frames = append(frames, f)
	}
	if acks[0].Err != nil {
		t.Fatalf("labels rejected: %v", acks[0].Err)
	}
	boundary := acks[0].AppliedSeq
	if boundary > uint64(next) {
		t.Fatalf("boundary %d beyond the %d captured frames", boundary, next)
	}

	// Reference: the in-process pipeline, fed the same inputs, switching
	// workloads exactly at the reported boundary. Byte-identity against it
	// proves the boundary exact.
	ref, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labelsA); err != nil {
		t.Fatal(err)
	}
	dec := core.NewDecoder(w, h, rpx.Gray8)
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	for i, f := range frames {
		if f.Seq != uint64(i) {
			t.Fatalf("stream frame %d has seq %d (dropped frames would desynchronize the replay)", i, f.Seq)
		}
		if f.Seq == boundary {
			if err := ref.SetRegionLabels(labelsB); err != nil {
				t.Fatal(err)
			}
		}
		fillFrame(fr, scene, i)
		refStats, err := ref.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		if f.Stats != refStats {
			t.Fatalf("frame %d stats %+v, reference %+v (boundary %d)", i, f.Stats, refStats, boundary)
		}
		if !bytes.Equal(f.Raw, ref.LastEncoded().AppendTo(nil)) {
			t.Fatalf("frame %d record differs from the reference serialization (boundary %d)", i, boundary)
		}
		refDec, err := ref.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		ef, err := f.Decode()
		if err != nil {
			t.Fatalf("frame %d container: %v", i, err)
		}
		if err := dec.Push(ef); err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(refDec) {
			t.Fatalf("frame %d decodes differently from the reference (boundary %d)", i, boundary)
		}
	}
}
