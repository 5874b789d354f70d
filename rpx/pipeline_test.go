package rpx

import (
	"testing"

	"repro/internal/synth"
)

func TestCameraPipelineEndToEnd(t *testing.T) {
	p, err := NewCameraPipeline(CameraConfig{W: 64, H: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetRegionLabels([]RegionLabel{FullFrame(64, 48)}); err != nil {
		t.Fatal(err)
	}
	world := synth.NewWorld(128, 128, 2)
	scene := world.Render(synth.Pose{X: 64, Y: 64}, 64, 48)
	cs, err := p.CaptureScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EncodedPixels != 64*48 {
		t.Errorf("EncodedPixels = %d", cs.EncodedPixels)
	}
	dec, err := p.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	// The decoded frame went through Bayer + noise + demosaic + gamma; it
	// cannot equal the scene, but it must correlate: bright scene areas
	// stay brighter than dark ones.
	scene.FillRect(0, 0, 1, 1, 0) // no-op touch to keep scene in scope
	var brightIn, darkIn, brightOut, darkOut int
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			if scene.Gray(x, y) > 128 {
				brightIn++
				brightOut += int(dec.Gray(x, y))
			} else {
				darkIn++
				darkOut += int(dec.Gray(x, y))
			}
		}
	}
	if brightIn > 10 && darkIn > 10 {
		if brightOut/brightIn <= darkOut/darkIn {
			t.Error("pipeline destroyed scene contrast")
		}
	}
	st := p.FrontEndStats()
	// CSI bytes = pixel payload plus packet framing overhead (FS/FE short
	// packets and per-line header+CRC): 64*48 + 2*4 + 48*6 = 3368.
	if st.FramesSensed != 1 || st.CSIBytes != 64*48+8+48*6 || st.ISPPixels != 64*48 {
		t.Errorf("front-end stats = %+v", st)
	}
	if st.EncoderWriteByte == 0 {
		t.Error("no encoder writes recorded")
	}
	if p.ProcessedFormat() != Gray8 {
		t.Error("processed format should be Gray8")
	}
}

func TestCameraPipelineValidation(t *testing.T) {
	if _, err := NewCameraPipeline(CameraConfig{W: 63, H: 48}); err == nil {
		t.Error("odd width accepted (Bayer needs even dims)")
	}
	if _, err := NewCameraPipeline(CameraConfig{W: 3840, H: 2160, FPS: 200}); err == nil {
		t.Error("rate beyond the ISP budget accepted")
	}
	p, err := NewCameraPipeline(CameraConfig{W: 64, H: 48, Options: []Option{WithFirstFrameIndex(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Sys.FrameIndex() != 7 {
		t.Errorf("system option not applied: first index = %d, want 7", p.Sys.FrameIndex())
	}
}

func TestCameraPipelineRegionCapture(t *testing.T) {
	p, err := NewCameraPipeline(CameraConfig{W: 64, H: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetRegionLabels([]RegionLabel{{X: 16, Y: 16, W: 32, H: 32, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	world := synth.NewWorld(128, 128, 4)
	scene := world.Render(synth.Pose{X: 64, Y: 64}, 64, 64)
	cs, err := p.CaptureScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EncodedPixels != 32*32 {
		t.Errorf("EncodedPixels = %d, want 1024", cs.EncodedPixels)
	}
	dec, err := p.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gray(0, 0) != 0 {
		t.Error("outside-region pixel not black")
	}
}

// TestStreamFrameScratchReuse asserts the CSI serialization path does not
// rebuild its line slice every frame: after warm-up, the only allocation
// left is the packet list the link model returns (1 alloc), not the
// per-frame lines slice it used to rebuild.
func TestStreamFrameScratchReuse(t *testing.T) {
	p, err := NewCameraPipeline(CameraConfig{W: 64, H: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bayer := NewFrame(64, 64, Gray8)
	p.streamFrame(bayer) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() { p.streamFrame(bayer) })
	if allocs > 1 {
		t.Errorf("streamFrame allocates %.1f objects/frame, want <= 1 (lines scratch not reused)", allocs)
	}
}

func BenchmarkCaptureScene(b *testing.B) {
	p, err := NewCameraPipeline(CameraConfig{W: 256, H: 256, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.SetRegionLabels([]RegionLabel{{X: 64, Y: 64, W: 128, H: 128, Stride: 2, Skip: 1}}); err != nil {
		b.Fatal(err)
	}
	world := synth.NewWorld(512, 512, 4)
	scene := world.Render(synth.Pose{X: 256, Y: 256}, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CaptureScene(scene); err != nil {
			b.Fatal(err)
		}
	}
}
