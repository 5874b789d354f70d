package rpx

import (
	"bytes"
	"testing"

	"repro/internal/synth"
)

func TestSystemRoundTrip(t *testing.T) {
	sys, err := NewSystem(64, 48, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := sys.Dimensions(); w != 64 || h != 48 {
		t.Errorf("Dimensions = %dx%d", w, h)
	}
	if err := sys.SetRegionLabels([]RegionLabel{FullFrame(64, 48)}); err != nil {
		t.Fatal(err)
	}
	world := synth.NewWorld(128, 128, 1)
	in := world.Render(synth.Pose{X: 64, Y: 64}, 64, 48)
	cs, err := sys.Capture(in)
	if err != nil {
		t.Fatal(err)
	}
	if cs.FrameIndex != 0 || cs.EncodedPixels != 64*48 || cs.PixelFraction != 1 {
		t.Errorf("CaptureStats = %+v", cs)
	}
	out, err := sys.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Error("full-frame round trip lossy")
	}
	if sys.FrameIndex() != 1 {
		t.Errorf("FrameIndex = %d", sys.FrameIndex())
	}
	if sys.LastEncoded() == nil {
		t.Error("LastEncoded nil after capture")
	}
}

func TestSystemRegionDiscard(t *testing.T) {
	sys, err := NewSystem(32, 32, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels([]RegionLabel{{X: 8, Y: 8, W: 16, H: 16, Stride: 2, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	in := NewFrame(32, 32, Gray8)
	in.Fill(200)
	cs, err := sys.Capture(in)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EncodedPixels != 64 { // 8x8 lattice
		t.Errorf("EncodedPixels = %d, want 64", cs.EncodedPixels)
	}
	st := sys.Stats()
	if st.PixelsStored != 64 || st.PixelsIn != 1024 || st.FramesCaptured != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ReductionVsFrameBased(1) < 0.5 {
		t.Errorf("reduction = %v, want substantial", st.ReductionVsFrameBased(1))
	}
	win, err := sys.DecodeWindow(8, 8, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if win.Gray(0, 0) != 200 {
		t.Error("window decode wrong")
	}
	if sys.Stats().BytesRead == 0 {
		t.Error("BytesRead not accounted")
	}
}

func TestSystemOptionValidation(t *testing.T) {
	if _, err := NewSystem(0, 5, Gray8); err == nil {
		t.Error("bad dims accepted")
	}
	sys, err := NewSystem(5, 5, Gray8, WithFirstFrameIndex(7))
	if err != nil {
		t.Fatal(err)
	}
	if sys.FrameIndex() != 7 {
		t.Errorf("first index = %d", sys.FrameIndex())
	}
	// Every System's register file is the hybrid encoder's 1600 labels.
	labels := make([]RegionLabel, 1601)
	for i := range labels {
		labels[i] = RegionLabel{W: 1, H: 1, Stride: 1, Skip: 1}
	}
	if err := sys.SetRegionLabels(labels[:1600]); err != nil {
		t.Errorf("1600 labels rejected: %v", err)
	}
	if err := sys.SetRegionLabels(labels); err == nil {
		t.Error("1601 labels accepted")
	}
}

func TestSystemEmptyLabelsDiscardAll(t *testing.T) {
	sys, _ := NewSystem(16, 16, Gray8)
	in := NewFrame(16, 16, Gray8)
	in.Fill(99)
	cs, err := sys.Capture(in)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EncodedPixels != 0 {
		t.Errorf("no labels stored %d pixels", cs.EncodedPixels)
	}
	out, err := sys.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Pix {
		if v != 0 {
			t.Fatal("expected all-black decode")
		}
	}
}

func TestSystemSkipAcrossFrames(t *testing.T) {
	sys, _ := NewSystem(16, 16, Gray8)
	if err := sys.SetRegionLabels([]RegionLabel{{X: 0, Y: 0, W: 16, H: 16, Stride: 1, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	a := NewFrame(16, 16, Gray8)
	a.Fill(111)
	b := NewFrame(16, 16, Gray8)
	b.Fill(222)
	if _, err := sys.Capture(a); err != nil { // frame 0: active
		t.Fatal(err)
	}
	if _, err := sys.Capture(b); err != nil { // frame 1: skipped
		t.Fatal(err)
	}
	out, err := sys.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	if out.Gray(5, 5) != 111 {
		t.Errorf("skipped frame decoded %d, want frame-0 value 111", out.Gray(5, 5))
	}
}

func TestPolicyHelpersCompose(t *testing.T) {
	kps := []KeyPoint{{X: 50, Y: 50, Size: 31, Octave: 1}}
	ls := FeatureRegions(kps, 2, 320, 240, DefaultFeatureParams())
	if len(ls) != 1 {
		t.Fatalf("FeatureRegions = %v", ls)
	}
	boxes := []Box{{X: 10, Y: 10, W: 30, H: 30}}
	bls := BoxRegions(boxes, []float64{1}, 320, 240, DefaultBoxParams())
	if len(bls) != 1 {
		t.Fatalf("BoxRegions = %v", bls)
	}
	pol := NewCyclePolicy(10, 320, 240, PolicySourceFunc(func(int) RegionList { return bls }))
	if got := pol.Labels(0); len(got) != 1 || got[0].W != 320 {
		t.Errorf("cycle frame 0 = %v", got)
	}
	if got := pol.Labels(3); len(got) != 1 || got[0].W == 320 {
		t.Errorf("cycle frame 3 = %v", got)
	}
	pred := NewPredictivePolicy(320, 240, DefaultBoxParams())
	pred.Observe(boxes)
	pred.Observe([]Box{{X: 12, Y: 10, W: 30, H: 30}})
	if got := pred.Labels(2); len(got) != 1 {
		t.Errorf("predictive labels = %v", got)
	}
}

func TestSystemLabelsPersistAcrossFrames(t *testing.T) {
	sys, _ := NewSystem(16, 16, Gray8)
	if err := sys.SetRegionLabels([]RegionLabel{{X: 0, Y: 0, W: 8, H: 8, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	in := NewFrame(16, 16, Gray8)
	for i := 0; i < 3; i++ {
		cs, err := sys.Capture(in)
		if err != nil {
			t.Fatal(err)
		}
		if cs.EncodedPixels != 64 {
			t.Fatalf("frame %d: %d pixels", i, cs.EncodedPixels)
		}
	}
	if len(sys.Labels()) != 1 {
		t.Error("labels did not persist")
	}
}

func TestStreamPersistence(t *testing.T) {
	sys, err := NewSystem(24, 24, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels([]RegionLabel{{X: 4, Y: 4, W: 12, H: 12, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for i := 0; i < 3; i++ {
		in := NewFrame(24, 24, Gray8)
		in.Fill(uint8(50 + 50*i))
		if _, err := sys.Capture(in); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteFrame(sys.LastEncoded()); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.W != 24 || sr.H != 24 {
		t.Errorf("stream geometry %dx%d", sr.W, sr.H)
	}
	count := 0
	err = DecodeStream(bytes.NewReader(buf.Bytes()), Gray8, func(idx int, dec *Frame) error {
		if got, want := dec.Gray(8, 8), uint8(50+50*idx); got != want {
			t.Errorf("frame %d: %d, want %d", idx, got, want)
		}
		count++
		return nil
	})
	if err != nil || count != 3 {
		t.Fatalf("replayed %d frames, err=%v", count, err)
	}
}

func TestPolicyRegistryThroughFacade(t *testing.T) {
	names := PolicyNames()
	if len(names) < 4 {
		t.Fatalf("only %d registered policies", len(names))
	}
	pol, err := BuildPolicy("feature-cycle", 320, 240, 10)
	if err != nil {
		t.Fatal(err)
	}
	pol.Observe(PolicyFeedback{
		KeyPoints:        []KeyPoint{{X: 100, Y: 100, Size: 31}},
		MeanDisplacement: 3,
	})
	if got := pol.Labels(1); len(got) == 0 {
		t.Error("no labels from registered policy")
	}
	if _, err := BuildPolicy("bogus", 320, 240, 10); err == nil {
		t.Error("unknown policy accepted")
	}
	if desc, ok := DescribePolicy("predictive"); !ok || desc == "" {
		t.Error("predictive description missing")
	}
}

// TestCaptureTraceSpans: a traced Capture records the commit, encode and
// push spans of its frame in pipeline order, with the encoded bytes on the
// encode span only.
func TestCaptureTraceSpans(t *testing.T) {
	sys, err := NewSystem(64, 48, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFrameTracer(16)
	sys.SetTracer(tr, 7)
	if err := sys.SetRegionLabels([]RegionLabel{{X: 8, Y: 8, W: 32, H: 24, Stride: 2, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	world := synth.NewWorld(128, 128, 1)
	var encoded []int
	for i := 0; i < 2; i++ {
		cs, err := sys.Capture(world.Render(synth.Pose{X: 64 + float64(i), Y: 64}, 64, 48))
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, cs.EncodedBytes)
	}
	spans := tr.Snapshot()
	if len(spans) != 6 {
		t.Fatalf("recorded %d spans, want 3 per capture: %+v", len(spans), spans)
	}
	for i, sp := range spans {
		frame, op := i/3, []string{"commit", "encode", "push"}[i%3]
		if sp.Op != op || sp.Frame != frame || sp.Session != 7 {
			t.Errorf("span %d = %+v, want op %q of frame %d in session 7", i, sp, op, frame)
		}
		wantBytes := 0
		if op == "encode" {
			wantBytes = encoded[frame]
		}
		if sp.Bytes != wantBytes {
			t.Errorf("span %d (%s) carries %d bytes, want %d", i, op, sp.Bytes, wantBytes)
		}
		if i > 0 && sp.Start < spans[i-1].Start {
			t.Errorf("span %d (%s) starts at %d, before span %d (%s) at %d", i, op, sp.Start, i-1, spans[i-1].Op, spans[i-1].Start)
		}
	}
}
