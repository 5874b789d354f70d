package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/region"
)

// encodeDecodeSetup runs one frame through encoder and decoder.
func encodeDecodeSetup(t *testing.T, w, h int, labels region.List, seed int64) (*frame.Frame, *frame.Frame) {
	t.Helper()
	fr := testFrame(w, h, frame.Gray8, seed)
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	d := NewDecoder(w, h, frame.Gray8)
	if err := d.Push(ef); err != nil {
		t.Fatal(err)
	}
	dec, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	return fr, dec
}

func TestDecodeFullFrameLossless(t *testing.T) {
	fr, dec := encodeDecodeSetup(t, 33, 27, region.List{region.FullFrame(33, 27)}, 1)
	if !dec.Equal(fr) {
		t.Fatal("full-frame encode/decode must be lossless")
	}
}

func TestDecodeNoRegionsAllBlack(t *testing.T) {
	_, dec := encodeDecodeSetup(t, 16, 16, nil, 2)
	for i, v := range dec.Pix {
		if v != 0 {
			t.Fatalf("pixel %d = %d, want black", i, v)
		}
	}
}

func TestDecodeRegionExactOutsideBlack(t *testing.T) {
	labels := region.List{{X: 4, Y: 5, W: 8, H: 6, Stride: 1, Skip: 1}}
	fr, dec := encodeDecodeSetup(t, 20, 20, labels, 3)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			want := uint8(0)
			if labels[0].Contains(x, y) {
				want = fr.Gray(x, y)
			}
			if got := dec.Gray(x, y); got != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestDecodeStrideNearestNeighbor(t *testing.T) {
	// A strided region must reconstruct as nearest-neighbor (top-left hold)
	// of its lattice pixels, both horizontally and vertically.
	labels := region.List{{X: 4, Y: 4, W: 8, H: 8, Stride: 2, Skip: 1}}
	fr, dec := encodeDecodeSetup(t, 16, 16, labels, 4)
	for y := 4; y < 12; y++ {
		for x := 4; x < 12; x++ {
			latX := 4 + (x-4)/2*2
			latY := 4 + (y-4)/2*2
			if got, want := dec.Gray(x, y), fr.Gray(latX, latY); got != want {
				t.Fatalf("pixel (%d,%d) = %d, want lattice (%d,%d) = %d", x, y, got, latX, latY, want)
			}
		}
	}
}

func TestDecodeStride4VerticalPropagation(t *testing.T) {
	labels := region.List{{X: 0, Y: 0, W: 12, H: 12, Stride: 4, Skip: 1}}
	fr, dec := encodeDecodeSetup(t, 12, 12, labels, 5)
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ {
			if got, want := dec.Gray(x, y), fr.Gray(x/4*4, y/4*4); got != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestDecodeTemporalSkipFetchesFromHistory(t *testing.T) {
	const w, h = 16, 16
	labels := region.List{{X: 2, Y: 2, W: 10, H: 10, Stride: 1, Skip: 3}}
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(w, h, frame.Gray8)

	fr0 := testFrame(w, h, frame.Gray8, 10) // frame 0: region active
	fr1 := testFrame(w, h, frame.Gray8, 11) // frame 1: region skipped
	ef0 := mustEncode(t, e, fr0, 0)
	ef1 := mustEncode(t, e, fr1, 1)
	if err := d.Push(ef0); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(ef1); err != nil {
		t.Fatal(err)
	}
	dec, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	// Skipped pixels must come from frame 0's capture.
	for y := 2; y < 12; y++ {
		for x := 2; x < 12; x++ {
			if got, want := dec.Gray(x, y), fr0.Gray(x, y); got != want {
				t.Fatalf("skipped pixel (%d,%d) = %d, want frame-0 value %d", x, y, got, want)
			}
		}
	}
	if d.Stats().FetchedSk != 100 {
		t.Errorf("FetchedSk = %d, want 100", d.Stats().FetchedSk)
	}
}

func TestDecodeSkipBeyondHistoryIsBlack(t *testing.T) {
	const w, h = 8, 8
	// Region skips for longer than the scratchpad depth: with depth 2 the
	// hosting frame is evicted and skipped pixels decode black.
	labels := region.List{{X: 0, Y: 0, W: 8, H: 8, Stride: 1, Skip: 10}}
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(w, h, frame.Gray8, WithHistoryDepth(2))
	for i := 0; i < 4; i++ { // frame 0 active, 1..3 skipped
		ef := mustEncode(t, e, testFrame(w, h, frame.Gray8, int64(20+i)), i)
		if err := d.Push(ef); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Pix {
		if v != 0 {
			t.Fatalf("pixel %d = %d, want black (history evicted)", i, v)
		}
	}
	if d.Stats().Black != 64 {
		t.Errorf("Black = %d, want 64", d.Stats().Black)
	}
}

func TestDecodeSkipWithinDepth4(t *testing.T) {
	// Default depth 4: a region sampled every 4 frames stays decodable.
	const w, h = 8, 8
	labels := region.List{{X: 0, Y: 0, W: 8, H: 8, Stride: 1, Skip: 4}}
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(w, h, frame.Gray8)
	frames := make([]*frame.Frame, 4)
	for i := range frames {
		frames[i] = testFrame(w, h, frame.Gray8, int64(30+i))
		ef := mustEncode(t, e, frames[i], i)
		if err := d.Push(ef); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Gray(3, 3), frames[0].Gray(3, 3); got != want {
		t.Errorf("skip-4 pixel = %d, want frame-0 value %d", got, want)
	}
	if d.HistoryLen() != 4 {
		t.Errorf("HistoryLen = %d, want 4", d.HistoryLen())
	}
}

func TestDecodeWindow(t *testing.T) {
	labels := region.List{{X: 8, Y: 8, W: 16, H: 16, Stride: 2, Skip: 1}}
	const w, h = 32, 32
	fr := testFrame(w, h, frame.Gray8, 40)
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	d := NewDecoder(w, h, frame.Gray8)
	if err := d.Push(ef); err != nil {
		t.Fatal(err)
	}
	full, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	// Any window decode must match the corresponding crop of the full
	// decode, including windows starting mid-region (stride seeding and
	// vertical lookback).
	for _, win := range [][4]int{{0, 0, 32, 32}, {10, 10, 12, 12}, {9, 9, 5, 5}, {11, 13, 8, 3}, {0, 20, 32, 12}, {31, 31, 1, 1}} {
		got, err := d.DecodeWindow(win[0], win[1], win[2], win[3])
		if err != nil {
			t.Fatalf("window %v: %v", win, err)
		}
		want := full.Crop(win[0], win[1], win[2], win[3])
		if !got.Equal(want) {
			t.Fatalf("window %v decode differs from full-frame crop", win)
		}
	}
}

func TestDecodeWindowErrors(t *testing.T) {
	d := NewDecoder(16, 16, frame.Gray8)
	if _, err := d.DecodeFrame(); err == nil {
		t.Error("decode before push: want error")
	}
	e := NewEncoder(16, 16, frame.Gray8)
	ef := mustEncode(t, e, frame.New(16, 16, frame.Gray8), 0)
	if err := d.Push(ef); err != nil {
		t.Fatal(err)
	}
	for _, win := range [][4]int{{-1, 0, 4, 4}, {0, 0, 0, 4}, {14, 0, 4, 4}, {0, 14, 4, 4}} {
		if _, err := d.DecodeWindow(win[0], win[1], win[2], win[3]); err == nil {
			t.Errorf("window %v accepted", win)
		}
	}
}

func TestDecoderPushRejectsMismatch(t *testing.T) {
	d := NewDecoder(16, 16, frame.Gray8)
	e := NewEncoder(8, 8, frame.Gray8)
	ef := mustEncode(t, e, frame.New(8, 8, frame.Gray8), 0)
	if err := d.Push(ef); err == nil {
		t.Error("mismatched encoded frame accepted")
	}
}

func TestDecoderOptionValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"ZeroDepth": func() { NewDecoder(4, 4, frame.Gray8, WithHistoryDepth(0)) },
		"BadDims":   func() { NewDecoder(0, 4, frame.Gray8) },
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
	d := NewDecoder(4, 4, frame.Gray8, WithHistoryDepth(7))
	if d.HistoryDepth() != 7 {
		t.Errorf("HistoryDepth = %d, want 7", d.HistoryDepth())
	}
}

// TestDecoderPushRingOrder exercises the fixed-ring history window past one
// full wrap: the newest-first view and eviction order must match the old
// prepend-and-truncate semantics exactly.
func TestDecoderPushRingOrder(t *testing.T) {
	const w, h = 8, 8
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(region.List{region.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(w, h, frame.Gray8, WithHistoryDepth(3))
	fr := testFrame(w, h, frame.Gray8, 60)
	for i := 0; i < 5; i++ {
		if err := d.Push(mustEncode(t, e, fr, i)); err != nil {
			t.Fatal(err)
		}
		wantLen := min(i+1, 3)
		if d.HistoryLen() != wantLen {
			t.Fatalf("after push %d: HistoryLen = %d, want %d", i, d.HistoryLen(), wantLen)
		}
		for j, hf := range d.history {
			if want := i - j; hf.FrameIndex != want {
				t.Fatalf("after push %d: history[%d].FrameIndex = %d, want %d (newest first)",
					i, j, hf.FrameIndex, want)
			}
		}
	}
}

// TestDecoderPushNoAllocs pins the fix for the per-push history
// reallocation: once constructed, Push must never allocate, at any fill
// level of the ring.
func TestDecoderPushNoAllocs(t *testing.T) {
	const w, h = 16, 16
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(region.List{region.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, testFrame(w, h, frame.Gray8, 61), 0)
	d := NewDecoder(w, h, frame.Gray8) // default depth 4
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Push(ef); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Push allocates %v per call, want 0", n)
	}
}

func TestDecoderStatsConsistent(t *testing.T) {
	labels := region.List{{X: 0, Y: 0, W: 8, H: 8, Stride: 2, Skip: 1}}
	const w, h = 16, 16
	fr := testFrame(w, h, frame.Gray8, 50)
	e := NewEncoder(w, h, frame.Gray8)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	d := NewDecoder(w, h, frame.Gray8)
	if err := d.Push(ef); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeFrame(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.PixelsRequested != w*h {
		t.Errorf("PixelsRequested = %d, want %d", s.PixelsRequested, w*h)
	}
	if s.DirectR+s.HeldSt+s.FetchedSk+s.Black != s.PixelsRequested {
		t.Errorf("stats don't partition: %+v", s)
	}
	if s.DirectR != 16 { // 4x4 lattice
		t.Errorf("DirectR = %d, want 16", s.DirectR)
	}
	if s.EncodedBytesRead != 16 {
		t.Errorf("EncodedBytesRead = %d, want 16", s.EncodedBytesRead)
	}
	d.ResetStats()
	if d.Stats().PixelsRequested != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestDecodeRGBRegion(t *testing.T) {
	labels := region.List{{X: 2, Y: 2, W: 4, H: 4, Stride: 1, Skip: 1}}
	const w, h = 8, 8
	fr := testFrame(w, h, frame.RGB24, 60)
	e := NewEncoder(w, h, frame.RGB24)
	if err := e.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, e, fr, 0)
	d := NewDecoder(w, h, frame.RGB24)
	if err := d.Push(ef); err != nil {
		t.Fatal(err)
	}
	dec, err := d.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	for y := 2; y < 6; y++ {
		for x := 2; x < 6; x++ {
			got, want := dec.Pixel(x, y), fr.Pixel(x, y)
			for c := 0; c < 3; c++ {
				if got[c] != want[c] {
					t.Fatalf("RGB pixel (%d,%d) channel %d = %d, want %d", x, y, c, got[c], want[c])
				}
			}
		}
	}
}

// Property test: for random label sets with stride=1, skip=1, every regional
// pixel round-trips exactly and every non-regional pixel is black.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	const w, h = 24, 24
	f := func(seed int64, rects [4][4]uint8) bool {
		var labels region.List
		for _, r := range rects {
			l, ok := region.Clip(region.Label{
				X: int(r[0]) % w, Y: int(r[1]) % h,
				W: int(r[2])%12 + 1, H: int(r[3])%12 + 1,
				Stride: 1, Skip: 1,
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
		labels.SortByY()
		fr := testFrame(w, h, frame.Gray8, seed)
		e := NewEncoder(w, h, frame.Gray8)
		if err := e.SetRegionLabels(labels); err != nil {
			return false
		}
		ef, err := e.EncodeFrame(fr, 0)
		if err != nil || ef.Validate() != nil {
			return false
		}
		d := NewDecoder(w, h, frame.Gray8)
		if d.Push(ef) != nil {
			return false
		}
		dec, err := d.DecodeFrame()
		if err != nil {
			return false
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				inside := false
				for _, l := range labels {
					if l.Contains(x, y) {
						inside = true
						break
					}
				}
				want := uint8(0)
				if inside {
					want = fr.Gray(x, y)
				}
				if dec.Gray(x, y) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: encoded payload size always equals the R-code count times bpp,
// for arbitrary stride/skip/phase mixes.
func TestEncodedSizeMatchesMaskProperty(t *testing.T) {
	const w, h = 32, 32
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		var labels region.List
		for i := 0; i < rng.Intn(8); i++ {
			skip := 1 + rng.Intn(5)
			l, ok := region.Clip(region.Label{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(20), H: 1 + rng.Intn(20),
				Stride: 1 + rng.Intn(5), Skip: skip, Phase: rng.Intn(skip),
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
		labels.SortByY()
		e := NewEncoder(w, h, frame.Gray8)
		if err := e.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		ef := mustEncode(t, e, testFrame(w, h, frame.Gray8, int64(trial)), rng.Intn(9))
		if got, want := ef.NumEncodedPixels(), ef.Mask.Histogram()[3]; got != want {
			t.Fatalf("trial %d: payload %d pixels, mask has %d R codes", trial, got, want)
		}
	}
}

// Property: when every region is active this frame (skip=1), the decode is
// independent of whatever history the decoder holds.
func TestDecodeActiveFrameIgnoresHistoryProperty(t *testing.T) {
	const w, h = 24, 24
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		var labels region.List
		for i := 0; i < 1+rng.Intn(6); i++ {
			l, ok := region.Clip(region.Label{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(16), H: 1 + rng.Intn(16),
				Stride: 1 + rng.Intn(3), Skip: 1,
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
		labels.SortByY()
		enc := NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		fr := testFrame(w, h, frame.Gray8, int64(500+trial))
		ef := mustEncode(t, enc, fr, 3)

		// Decoder A: fresh. Decoder B: polluted with unrelated history.
		decA := NewDecoder(w, h, frame.Gray8)
		if err := decA.Push(ef); err != nil {
			t.Fatal(err)
		}
		decB := NewDecoder(w, h, frame.Gray8)
		encJunk := NewEncoder(w, h, frame.Gray8)
		if err := encJunk.SetRegionLabels(region.List{region.FullFrame(w, h)}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			junk := mustEncode(t, encJunk, testFrame(w, h, frame.Gray8, int64(900+k)), k)
			if err := decB.Push(junk); err != nil {
				t.Fatal(err)
			}
		}
		if err := decB.Push(ef); err != nil {
			t.Fatal(err)
		}
		a, err := decA.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		b, err := decB.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: skip-free decode depends on history (labels %v)", trial, labels)
		}
	}
}

// Property: for any valid encoded frame, every window decode agrees with
// the corresponding crop of the full decode.
func TestDecodeWindowConsistencyProperty(t *testing.T) {
	const w, h = 32, 32
	rng := rand.New(rand.NewSource(654))
	for trial := 0; trial < 15; trial++ {
		var labels region.List
		for i := 0; i < 1+rng.Intn(8); i++ {
			skip := 1 + rng.Intn(3)
			l, ok := region.Clip(region.Label{
				X: rng.Intn(w), Y: rng.Intn(h),
				W: 1 + rng.Intn(20), H: 1 + rng.Intn(20),
				Stride: 1 + rng.Intn(4), Skip: skip, Phase: rng.Intn(skip),
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
		labels.SortByY()
		enc := NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(w, h, frame.Gray8)
		for f := 0; f < 3; f++ {
			ef := mustEncode(t, enc, testFrame(w, h, frame.Gray8, int64(700+3*trial+f)), f)
			if err := dec.Push(ef); err != nil {
				t.Fatal(err)
			}
		}
		full, err := dec.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			x0, y0 := rng.Intn(w-4), rng.Intn(h-4)
			ww := 1 + rng.Intn(w-x0)
			wh := 1 + rng.Intn(h-y0)
			win, err := dec.DecodeWindow(x0, y0, ww, wh)
			if err != nil {
				t.Fatal(err)
			}
			if !win.Equal(full.Crop(x0, y0, ww, wh)) {
				t.Fatalf("trial %d: window (%d,%d %dx%d) inconsistent (labels %v)",
					trial, x0, y0, ww, wh, labels)
			}
		}
	}
}

// TestDecodeStrideCapWindows is the regression test for strides of 10 and
// more, whose windows reconstructed their first strided rows from an
// unprimed line buffer while the decoder warmed up a fixed eight rows.
// Strides above region.MaxStride are rejected; at every stride up to the
// cap, windows equal the full-frame decode (see assertWindows) on a
// captured frame and on the skipped frame after it, which resolves against
// the first.
func TestDecodeStrideCapWindows(t *testing.T) {
	const w, h = 13, 8 * 12
	for stride := 1; stride <= 16; stride++ {
		// Two overlapping regions with lattices at different row phases;
		// skip 2 makes frame 1 all Sk over them.
		labels := region.List{
			{X: 0, Y: 3, W: 9, H: h - 3, Stride: stride, Skip: 2},
			{X: 5, Y: 10, W: 8, H: 70, Stride: stride, Skip: 2},
		}
		enc := NewEncoder(w, h, frame.Gray8)
		err := enc.SetRegionLabels(labels)
		if stride > region.MaxStride {
			if err == nil {
				t.Fatalf("stride %d accepted by Encoder", stride)
			}
			continue
		}
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		dec := NewDecoder(w, h, frame.Gray8)
		for fi := 0; fi < 2; fi++ {
			if err := dec.Push(mustEncode(t, enc, testFrame(w, h, frame.Gray8, int64(80+fi)), fi)); err != nil {
				t.Fatal(err)
			}
			assertWindows(t, fmt.Sprintf("stride %d frame %d", stride, fi), dec)
		}
	}
}

// TestDecodeLineChainAcrossLabelChange is the regression test for line
// buffer chains no fixed warm-up covers. Frame 0 captures column 3 strided
// out on every row (a stride-2 region); frame 1 captures rows 0-1 and
// skips a region whose left edge is column 3. Decoding frame 1, each
// pixel of column 3 resolves to St in frame 0 with no fetch before it in
// its row, so it copies the pixel above — a chain from row 63 up to the
// captured row 1 that a window starting below row 9 used to cut off and
// fill with black.
func TestDecodeLineChainAcrossLabelChange(t *testing.T) {
	const w, h = 16, 64
	enc := NewEncoder(w, h, frame.Gray8)
	dec := NewDecoder(w, h, frame.Gray8)
	for fi, labels := range []region.List{
		{{X: 0, Y: 0, W: w, H: h, Stride: 2, Skip: 1}},
		{{X: 0, Y: 0, W: w, H: 2, Stride: 1, Skip: 1}, {X: 3, Y: 2, W: w - 3, H: h - 2, Stride: 1, Skip: 2}},
	} {
		if err := enc.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		if err := dec.Push(mustEncode(t, enc, testFrame(w, h, frame.Gray8, int64(90+fi)), fi)); err != nil {
			t.Fatal(err)
		}
	}
	assertWindows(t, "frame 1", dec)
}

// assertWindows checks that a full-height window starting at every row
// equals the crop of dec's full-frame decode.
func assertWindows(t *testing.T, tag string, dec *Decoder) {
	t.Helper()
	want, err := dec.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	w, h := want.W, want.H
	for y0 := 0; y0 < h; y0++ {
		got, err := dec.DecodeWindow(0, y0, w, h-y0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Crop(0, y0, w, h-y0)) {
			t.Fatalf("%s: window from row %d differs from the full decode", tag, y0)
		}
	}
}

// TestAllocsDecodeFrame pins the decoder's steady-state allocations: a
// full-frame decode allocates its output frame (the translator, sampler and
// row buffer are the decoder's own) and never anything per row, so the
// count is the same at 1080 rows as at 270. The workload is a 16-pixel
// tile grid of skipped and strided tiles over a warmed 4-frame history,
// repeating every four tile rows so both heights hold the same row shapes.
func TestAllocsDecodeFrame(t *testing.T) {
	const w = 1920
	allocs := func(h int) float64 {
		var labels region.List
		for y := 0; y < h; y += 16 {
			for x := 0; x < w; x += 16 {
				k := (x/16 + y/16) % 4
				labels = append(labels, region.Label{
					X: x, Y: y, W: 16, H: min(16, h-y),
					Stride: 1 + k%2, Skip: 1 + k, Phase: (x / 16) % (1 + k),
				})
			}
		}
		enc := NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(w, h, frame.Gray8)
		for fi := 0; fi < DefaultHistoryDepth; fi++ {
			if err := dec.Push(mustEncode(t, enc, testFrame(w, h, frame.Gray8, int64(fi)), fi)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := dec.DecodeFrame(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// With the collector running, its own bookkeeping can add an object to
	// a run now and then, more often at 1080 rows, which allocate more.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	full, quarter := allocs(1080), allocs(270)
	if full != quarter {
		t.Errorf("DecodeFrame allocates %v objects at 1080 rows and %v at 270, want a constant", full, quarter)
	}
	t.Logf("DecodeFrame allocates %v objects per 1080p frame", full)
}

// TestDecodeFrameIntoMatchesDecodeFrame: a decode into a reused, dirty
// output frame equals a fresh DecodeFrame, frame after frame, and a frame
// of the wrong geometry or format is refused.
func TestDecodeFrameIntoMatchesDecodeFrame(t *testing.T) {
	const w, h = 40, 36
	enc := NewEncoder(w, h, frame.RGB24)
	if err := enc.SetRegionLabels(region.List{
		{X: 2, Y: 1, W: 30, H: 20, Stride: 2, Skip: 1},
		{X: 0, Y: 18, W: w, H: 18, Stride: 1, Skip: 3, Phase: 1},
	}); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(w, h, frame.RGB24)
	out := frame.New(w, h, frame.RGB24)
	if err := dec.DecodeFrameInto(out); err == nil {
		t.Fatal("decode before any push succeeded")
	}
	for i := 0; i < 8; i++ {
		if err := dec.Push(mustEncode(t, enc, testFrame(w, h, frame.RGB24, int64(i)), i)); err != nil {
			t.Fatal(err)
		}
		want, err := dec.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		for j := range out.Pix {
			out.Pix[j] = 0xA5
		}
		if err := dec.DecodeFrameInto(out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("frame %d: DecodeFrameInto differs from DecodeFrame", i)
		}
	}
	for _, bad := range []*frame.Frame{frame.New(w, h-1, frame.RGB24), frame.New(w, h, frame.Gray8)} {
		if err := dec.DecodeFrameInto(bad); err == nil {
			t.Errorf("decode into a %dx%d %v frame succeeded", bad.W, bad.H, bad.Format)
		}
	}
}
