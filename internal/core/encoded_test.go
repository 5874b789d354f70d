package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// Regression: the payload-length bound used to be `payloadLen > w*h*bpp`,
// whose product overflows a 32-bit int at the maximum geometry (2^15 *
// 2^15 * 4 == 2^32 wraps to 0) — and a hostile length of 0x80000000
// arrives negative through the uint32->int conversion, so `negative > 0`
// let it through to allocation. payloadLenOK is generic so this test pins
// the 32-bit arithmetic on any host.
func TestPayloadLenCheckOverflow32Bit(t *testing.T) {
	var w, h, bpp int32 = MaxFrameDim, MaxFrameDim, 4
	hostile := int32(math.MinInt32) // int32(uint32(0x80000000))

	// Demonstrate the old check's failure mode: the product wraps to 0 and
	// the comparison accepts the hostile length.
	if product := w * h * bpp; product != 0 {
		t.Fatalf("expected w*h*bpp to wrap to 0 in int32, got %d", product)
	}
	if oldCheckRejects := hostile > w*h*bpp; oldCheckRejects {
		t.Fatal("multiply-form check unexpectedly rejected the hostile length; regression premise broken")
	}

	// The divide-form must reject it.
	if payloadLenOK(hostile, w, h, bpp) {
		t.Fatal("payloadLenOK accepted a negative (wrapped) payload length")
	}
	// And still accept the true maximum payload, which only fits in 64 bits.
	if !payloadLenOK[int64](1<<32, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK rejected the exact maximum payload")
	}
	if payloadLenOK[int64](1<<32+1, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK accepted one byte over the maximum")
	}
}

// TestPayloadLenCheckMatchesReference checks divide-form equivalence with
// the overflow-free 64-bit comparison across randomized geometries.
func TestPayloadLenCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		w := int64(1 + rng.Intn(MaxFrameDim))
		h := int64(1 + rng.Intn(MaxFrameDim))
		bpp := int64(1 + rng.Intn(4))
		var pl int64
		switch rng.Intn(4) {
		case 0:
			pl = rng.Int63n(1 << 33)
		case 1:
			pl = w*h*bpp + int64(rng.Intn(5)) - 2 // boundary neighborhood
		case 2:
			pl = int64(int32(rng.Uint32())) // includes negatives
		case 3:
			pl = rng.Int63n(w*h*bpp + 1)
		}
		want := pl >= 0 && pl <= w*h*bpp
		if got := payloadLenOK(pl, w, h, bpp); got != want {
			t.Fatalf("payloadLenOK(%d, %d, %d, %d) = %v, want %v", pl, w, h, bpp, got, want)
		}
	}
}

// TestParseEncodedHeader: the header parse a stream subscriber reads a
// pushed frame's index and statistics with agrees with ReadEncodedFrame
// and with the frame's own TotalBytes and NumEncodedPixels on every
// container an encoder writes, and rejects a container one byte short or
// long of what its header says, and the headers ReadEncodedFrame rejects.
func TestParseEncodedHeader(t *testing.T) {
	for _, tc := range []struct {
		w, h   int
		format frame.Format
		labels region.List
	}{
		{16, 12, frame.Gray8, region.List{{X: 2, Y: 1, W: 9, H: 7, Stride: 2, Skip: 1}}},
		{15, 9, frame.RGB24, region.List{{X: 0, Y: 0, W: 15, H: 9, Stride: 1, Skip: 1}}},
		{7, 5, frame.YUV444, nil},
	} {
		e := NewEncoder(tc.w, tc.h, tc.format)
		if err := e.SetRegionLabels(tc.labels); err != nil {
			t.Fatal(err)
		}
		ef := mustEncode(t, e, testFrame(tc.w, tc.h, tc.format, 3), 1<<20+3)
		c := ef.AppendTo(nil)
		h, err := ParseEncodedHeader(c)
		if err != nil {
			t.Fatalf("%dx%d %v: %v", tc.w, tc.h, tc.format, err)
		}
		want := EncodedHeader{W: ef.W, H: ef.H, BytesPerPixel: ef.BytesPerPixel, FrameIndex: ef.FrameIndex, PayloadLen: len(ef.Pix)}
		if h != want || h.NumEncodedPixels() != ef.NumEncodedPixels() || h.TotalBytes() != ef.TotalBytes() {
			t.Fatalf("%dx%d %v: header %+v (%d pixels, %d bytes), frame %+v (%d pixels, %d bytes)", tc.w, tc.h, tc.format,
				h, h.NumEncodedPixels(), h.TotalBytes(), want, ef.NumEncodedPixels(), ef.TotalBytes())
		}
		if _, err := ParseEncodedHeader(c[:len(c)-1]); err == nil {
			t.Fatalf("%dx%d %v: container one byte short accepted", tc.w, tc.h, tc.format)
		}
		if _, err := ParseEncodedHeader(append(c, 0)); err == nil {
			t.Fatalf("%dx%d %v: container one byte long accepted", tc.w, tc.h, tc.format)
		}
	}

	e := NewEncoder(8, 8, frame.Gray8)
	if err := e.SetRegionLabels(region.List{region.FullFrame(8, 8)}); err != nil {
		t.Fatal(err)
	}
	good := mustEncode(t, e, testFrame(8, 8, frame.Gray8, 4), 0).AppendTo(nil)
	for _, tc := range []struct {
		name string
		off  int
		v    uint32
	}{
		{"magic", 0, 0xdeadbeef},
		{"version", 4, 2},
		{"width", 8, 0},
		{"height", 12, MaxFrameDim + 1},
		{"bytes per pixel", 16, 5},
		{"payload length", 24, 8*8 + 1},
	} {
		bad := slices.Clone(good)
		binary.LittleEndian.PutUint32(bad[tc.off:], tc.v)
		if _, err := ParseEncodedHeader(bad); err == nil {
			t.Errorf("bad %s accepted", tc.name)
		}
		if _, err := ReadEncodedFrame(bytes.NewReader(bad)); err == nil {
			t.Errorf("ReadEncodedFrame accepted a bad %s", tc.name)
		}
	}
	if _, err := ParseEncodedHeader(good[:encodedHeaderSize-1]); err == nil {
		t.Error("short header accepted")
	}
}
