package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// testFrame builds a deterministic gradient-ish frame so every pixel value
// is distinct enough to catch addressing bugs.
func testFrame(w, h int, format frame.Format, seed int64) *frame.Frame {
	fr := frame.New(w, h, format)
	rng := rand.New(rand.NewSource(seed))
	for i := range fr.Pix {
		fr.Pix[i] = uint8(rng.Intn(256))
	}
	return fr
}

func mustEncode(t *testing.T, e *Encoder, fr *frame.Frame, idx int) *EncodedFrame {
	t.Helper()
	ef, err := e.EncodeFrame(fr, idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ef.Validate(); err != nil {
		t.Fatalf("encoded frame invalid: %v", err)
	}
	return ef
}

func TestEncodeFullFrameKeepsEveryPixel(t *testing.T) {
	fr := testFrame(32, 24, frame.Gray8, 1)
	e := NewEncoder(32, 24, frame.Gray8)
	if err := e.SetRegionLabels(region.List{region.FullFrame(32, 24)}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	if ef.NumEncodedPixels() != 32*24 {
		t.Fatalf("encoded %d pixels, want %d", ef.NumEncodedPixels(), 32*24)
	}
	if !bytes.Equal(ef.Pix, fr.Pix) {
		t.Fatal("full-frame encode should preserve the raster stream verbatim")
	}
	h := ef.Mask.Histogram()
	if h[bitpack.CodeR] != 32*24 {
		t.Fatalf("mask histogram %v, want all R", h)
	}
}

func TestEncodeNoRegionsDropsEverything(t *testing.T) {
	fr := testFrame(16, 16, frame.Gray8, 2)
	e := NewEncoder(16, 16, frame.Gray8)
	ef := mustEncode(t, e, fr, 0)
	if ef.NumEncodedPixels() != 0 {
		t.Fatalf("encoded %d pixels with no labels, want 0", ef.NumEncodedPixels())
	}
	if e.Stats().RowsWithNoRegions != 16 {
		t.Errorf("RowsWithNoRegions = %d, want 16", e.Stats().RowsWithNoRegions)
	}
}

func TestEncodeSingleRegionPacksRasterOrder(t *testing.T) {
	fr := frame.New(8, 8, frame.Gray8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			fr.SetGray(x, y, uint8(y*8+x))
		}
	}
	e := NewEncoder(8, 8, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 2, Y: 3, W: 3, H: 2, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	want := []byte{3*8 + 2, 3*8 + 3, 3*8 + 4, 4*8 + 2, 4*8 + 3, 4*8 + 4}
	if !bytes.Equal(ef.Pix, want) {
		t.Fatalf("packed pixels = %v, want %v", ef.Pix, want)
	}
	if ef.RowOffsets[3] != 0 || ef.RowOffsets[4] != 3 || ef.RowOffsets[5] != 6 || ef.RowOffsets[8] != 6 {
		t.Fatalf("row offsets = %v", ef.RowOffsets)
	}
}

func TestEncodeOverlappingRegionsStoreOnce(t *testing.T) {
	fr := testFrame(20, 20, frame.Gray8, 3)
	e := NewEncoder(20, 20, frame.Gray8)
	// Two fully overlapping regions: pixel stored once, not twice.
	err := e.SetRegionLabels(region.List{
		{X: 5, Y: 5, W: 10, H: 10, Stride: 1, Skip: 1},
		{X: 5, Y: 5, W: 10, H: 10, Stride: 1, Skip: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	if ef.NumEncodedPixels() != 100 {
		t.Fatalf("encoded %d pixels, want 100 (no duplication)", ef.NumEncodedPixels())
	}
}

func TestEncodeStrideLattice(t *testing.T) {
	fr := testFrame(12, 12, frame.Gray8, 4)
	e := NewEncoder(12, 12, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 2, Y: 2, W: 8, H: 8, Stride: 2, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	if ef.NumEncodedPixels() != 16 { // ceil(8/2)^2
		t.Fatalf("encoded %d pixels, want 16", ef.NumEncodedPixels())
	}
	h := ef.Mask.Histogram()
	if h[bitpack.CodeR] != 16 || h[bitpack.CodeSt] != 64-16 || h[bitpack.CodeN] != 144-64 {
		t.Fatalf("histogram = %v", h)
	}
	// Lattice points carry the original values.
	for y := 2; y < 10; y += 2 {
		for x := 2; x < 10; x += 2 {
			px, err := ef.PixelAt(x, y)
			if err != nil {
				t.Fatalf("PixelAt(%d,%d): %v", x, y, err)
			}
			if px[0] != fr.Gray(x, y) {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, px[0], fr.Gray(x, y))
			}
		}
	}
}

func TestEncodeSkipMarksSk(t *testing.T) {
	fr := testFrame(10, 10, frame.Gray8, 5)
	e := NewEncoder(10, 10, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 10, H: 10, Stride: 1, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	// Frame 0: active (skip=2, phase=0).
	ef0 := mustEncode(t, e, fr, 0)
	if ef0.NumEncodedPixels() != 100 {
		t.Fatalf("frame 0: %d pixels, want 100", ef0.NumEncodedPixels())
	}
	// Frame 1: inactive, everything Sk, nothing stored.
	ef1 := mustEncode(t, e, fr, 1)
	if ef1.NumEncodedPixels() != 0 {
		t.Fatalf("frame 1: %d pixels, want 0", ef1.NumEncodedPixels())
	}
	if h := ef1.Mask.Histogram(); h[bitpack.CodeSk] != 100 {
		t.Fatalf("frame 1 histogram = %v, want all Sk", h)
	}
}

func TestEncodeRGB(t *testing.T) {
	fr := testFrame(6, 4, frame.RGB24, 6)
	e := NewEncoder(6, 4, frame.RGB24)
	if err := e.SetRegionLabels(region.List{{X: 1, Y: 1, W: 2, H: 2, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	if ef.NumEncodedPixels() != 4 || len(ef.Pix) != 12 {
		t.Fatalf("encoded %d px / %d bytes", ef.NumEncodedPixels(), len(ef.Pix))
	}
	px, err := ef.PixelAt(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(px, fr.Pixel(2, 2)) {
		t.Fatal("RGB pixel bytes mismatch")
	}
}

// TestAllocsPixelAtMiss: a pixel the frame does not store is a miss that
// errors.Is reports as ErrNotStored, at zero allocations, while a stored
// pixel still reads back and an out-of-frame one is a different error.
func TestAllocsPixelAtMiss(t *testing.T) {
	fr := testFrame(16, 16, frame.Gray8, 9)
	e := NewEncoder(16, 16, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 4, Y: 4, W: 8, H: 8, Stride: 2, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	for _, p := range [][2]int{{0, 0}, {5, 4}, {15, 15}} { // N, St, N
		if _, err := ef.PixelAt(p[0], p[1]); !errors.Is(err, ErrNotStored) {
			t.Fatalf("PixelAt(%d,%d) = %v, want ErrNotStored", p[0], p[1], err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ef.PixelAt(5, 4) }); allocs != 0 {
		t.Fatalf("a PixelAt miss allocates %v objects, want 0", allocs)
	}
	if px, err := ef.PixelAt(4, 4); err != nil || px[0] != fr.Gray(4, 4) {
		t.Fatalf("PixelAt(4,4) = %v, %v, want %d", px, err, fr.Gray(4, 4))
	}
	if _, err := ef.PixelAt(16, 0); err == nil || errors.Is(err, ErrNotStored) {
		t.Fatalf("PixelAt(16,0) = %v, want an out-of-range error", err)
	}
}

func TestEncoderMatchesClassifyFrameAllDesigns(t *testing.T) {
	const w, h = 64, 48
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		var labels region.List
		for i := 0; i < 1+rng.Intn(12); i++ {
			l, ok := region.Clip(region.Label{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(30), H: 1 + rng.Intn(30),
				Stride: 1 + rng.Intn(4), Skip: 1 + rng.Intn(4),
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
		labels.SortByY()
		frameIdx := rng.Intn(7)

		fr := testFrame(w, h, frame.Gray8, int64(trial))
		e := NewEncoder(w, h, frame.Gray8)
		if err := e.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		ef := mustEncode(t, e, fr, frameIdx)

		for _, d := range []Design{DesignHybrid, DesignParallel, DesignNaive} {
			mask, _ := ClassifyFrame(w, h, frameIdx, labels, d)
			if !ef.Mask.Equal(mask) {
				t.Fatalf("trial %d: encoder mask differs from %v ClassifyFrame (labels=%v frame=%d)",
					trial, d, labels, frameIdx)
			}
		}
	}
}

func TestDesignsAgreeAndHybridDoesLessWork(t *testing.T) {
	const w, h = 320, 240
	rng := rand.New(rand.NewSource(21))
	var labels region.List
	for i := 0; i < 40; i++ {
		l, ok := region.Clip(region.Label{
			X: rng.Intn(w), Y: rng.Intn(h), W: 10 + rng.Intn(40), H: 10 + rng.Intn(40),
			Stride: 1 + rng.Intn(3), Skip: 1 + rng.Intn(3),
		}, w, h)
		if ok {
			labels = append(labels, l)
		}
	}
	labels.SortByY()
	maskH, statsH := ClassifyFrame(w, h, 0, labels, DesignHybrid)
	maskP, statsP := ClassifyFrame(w, h, 0, labels, DesignParallel)
	maskN, statsN := ClassifyFrame(w, h, 0, labels, DesignNaive)
	if !maskH.Equal(maskP) || !maskH.Equal(maskN) {
		t.Fatal("designs disagree on classification")
	}
	if statsP.PixelCompares != w*h*len(labels) {
		t.Errorf("parallel compares = %d, want %d", statsP.PixelCompares, w*h*len(labels))
	}
	if statsN.PixelCompares > statsP.PixelCompares {
		t.Error("naive should never exceed parallel comparisons")
	}
	if statsH.TotalCompares() >= statsN.PixelCompares/5 {
		t.Errorf("hybrid total compares = %d, not ≪ naive %d — RoI selector not saving work",
			statsH.TotalCompares(), statsN.PixelCompares)
	}
	if statsH.RunSkippedPixels == 0 {
		t.Error("hybrid run-length optimization never engaged")
	}
}

func TestEncoderRejectsBadInput(t *testing.T) {
	e := NewEncoder(10, 10, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 20, H: 5, Stride: 1, Skip: 1}}); err == nil {
		t.Error("oversized label accepted")
	}
	if _, err := e.EncodeFrame(frame.New(5, 5, frame.Gray8), 0); err == nil {
		t.Error("wrong-size frame accepted")
	}
	if _, err := e.EncodeFrame(frame.New(10, 10, frame.RGB24), 0); err == nil {
		t.Error("wrong-format frame accepted")
	}
	for name, fn := range map[string]func(){
		"PushRowBeforeBegin": func() { NewEncoder(4, 4, frame.Gray8).PushRow(make([]byte, 4)) },
		"EndBeforeBegin":     func() { NewEncoder(4, 4, frame.Gray8).EndFrame() },
		"ShortRow": func() {
			e := NewEncoder(4, 4, frame.Gray8)
			e.BeginFrame(0)
			e.PushRow(make([]byte, 3))
		},
		"TooManyRows": func() {
			e := NewEncoder(2, 1, frame.Gray8)
			e.BeginFrame(0)
			e.PushRow(make([]byte, 2))
			e.PushRow(make([]byte, 2))
		},
		"EarlyEnd": func() {
			e := NewEncoder(2, 2, frame.Gray8)
			e.BeginFrame(0)
			e.EndFrame()
		},
		"BadDims": func() { NewEncoder(0, 4, frame.Gray8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEncoderLabelsSortedAndIsolated(t *testing.T) {
	e := NewEncoder(100, 100, frame.Gray8)
	ls := region.List{
		{X: 0, Y: 50, W: 5, H: 5, Stride: 1, Skip: 1},
		{X: 0, Y: 10, W: 5, H: 5, Stride: 1, Skip: 1},
	}
	if err := e.SetRegionLabels(ls); err != nil {
		t.Fatal(err)
	}
	if !e.Labels().IsSortedByY() {
		t.Error("installed labels not sorted")
	}
	ls[0].X = 90 // caller mutation must not affect the encoder
	if e.Labels()[0].X == 90 || e.Labels()[1].X == 90 {
		t.Error("encoder shares label storage with caller")
	}
}

func TestEncoderStatsAccumulate(t *testing.T) {
	fr := testFrame(16, 16, frame.Gray8, 8)
	e := NewEncoder(16, 16, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 0, Y: 0, W: 8, H: 8, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	mustEncode(t, e, fr, 0)
	mustEncode(t, e, fr, 1)
	s := e.Stats()
	if s.FramesEncoded != 2 || s.RowsProcessed != 32 || s.PixelsIn != 512 || s.PixelsOut != 128 {
		t.Errorf("stats = %+v", s)
	}
	e.ResetStats()
	if e.Stats().FramesEncoded != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestEncodedFrameSerializationRoundTrip(t *testing.T) {
	fr := testFrame(40, 30, frame.Gray8, 9)
	e := NewEncoder(40, 30, frame.Gray8)
	if err := e.SetRegionLabels(region.List{
		{X: 3, Y: 2, W: 20, H: 15, Stride: 2, Skip: 2},
		{X: 25, Y: 20, W: 10, H: 8, Stride: 1, Skip: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 3)
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEncodedFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != ef.W || got.H != ef.H || got.FrameIndex != 3 || !bytes.Equal(got.Pix, ef.Pix) || !got.Mask.Equal(ef.Mask) {
		t.Fatal("serialization round trip mismatch")
	}
	for i, v := range ef.RowOffsets {
		if got.RowOffsets[i] != v {
			t.Fatal("row offsets mismatch")
		}
	}
}

func TestReadEncodedFrameErrors(t *testing.T) {
	// Corrupt magic.
	bad := make([]byte, 28)
	if _, err := ReadEncodedFrame(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	fr := testFrame(8, 8, frame.Gray8, 10)
	e := NewEncoder(8, 8, frame.Gray8)
	if err := e.SetRegionLabels(region.List{region.FullFrame(8, 8)}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 20, 30, len(full) - 2} {
		if _, err := ReadEncodedFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncodedFrameValidateCatchesCorruption(t *testing.T) {
	fr := testFrame(8, 8, frame.Gray8, 12)
	e := NewEncoder(8, 8, frame.Gray8)
	if err := e.SetRegionLabels(region.List{{X: 1, Y: 1, W: 4, H: 4, Stride: 1, Skip: 1}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)

	c := *ef
	c.RowOffsets = append([]uint32(nil), ef.RowOffsets...)
	c.RowOffsets[3]++
	if c.Validate() == nil {
		t.Error("offset corruption not detected")
	}

	c2 := *ef
	c2.Pix = c2.Pix[:len(c2.Pix)-1]
	if c2.Validate() == nil {
		t.Error("payload truncation not detected")
	}

	c3 := *ef
	c3.Mask = ef.Mask.Clone()
	c3.Mask.Set(1*8+1, bitpack.CodeN) // remove an R without fixing offsets
	if c3.Validate() == nil {
		t.Error("mask corruption not detected")
	}
}

func TestMetadataOverheadIsRoughly8Percent(t *testing.T) {
	// Paper §4.1.2: EncMask occupies 2 bits per pixel = ~8% of frame data
	// for a Gray8 1080p frame (500 KB); per-row offsets add a sliver.
	e := NewEncoder(1920, 1080, frame.Gray8)
	fr := frame.New(1920, 1080, frame.Gray8)
	ef := mustEncode(t, e, fr, 0)
	overhead := float64(ef.MetadataBytes()) / float64(1920*1080)
	if overhead < 0.25 || overhead > 0.26 {
		// 2bpp = exactly 25% of 8-bit pixel data; the paper's "8%" figure
		// is relative to a 3-byte (RGB/YUV) pixel: 0.25/3 ≈ 8.3%.
		t.Errorf("Gray8 metadata overhead = %.3f, want ~0.252", overhead)
	}
	e3 := NewEncoder(1920, 1080, frame.YUV444)
	fr3 := frame.New(1920, 1080, frame.YUV444)
	ef3 := mustEncode(t, e3, fr3, 0)
	overhead3 := float64(ef3.MetadataBytes()) / float64(1920*1080*3)
	if overhead3 < 0.08 || overhead3 > 0.09 {
		t.Errorf("YUV444 metadata overhead = %.3f, want ~0.084 (paper's 8%%)", overhead3)
	}
}
