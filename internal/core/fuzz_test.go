package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// Fuzz targets for the two untrusted decode surfaces owned by this package:
// the RPXE encoded-frame container and the RPXS stream container. Both
// guarantee error-never-panic on arbitrary bytes, with allocations bounded
// by the bytes actually present (see readAppend) — the fuzzers double as
// regression tests for those bounds.

// fuzzEncodedSeed encodes a small synthetic frame so the corpus starts from
// structurally valid containers in both pixel formats.
func fuzzEncodedSeed(tb testing.TB, format frame.Format) []byte {
	tb.Helper()
	const w, h = 16, 12
	enc := NewEncoder(w, h, format)
	if err := enc.SetRegionLabels(region.List{
		{X: 2, Y: 1, W: 9, H: 7, Stride: 2, Skip: 1},
		{X: 0, Y: 8, W: w, H: 4, Stride: 1, Skip: 2},
	}); err != nil {
		tb.Fatal(err)
	}
	fr := frame.New(w, h, format)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i * 7)
	}
	ef, err := enc.EncodeFrame(fr, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzRetiredVersionSeed is fuzzEncodedSeed's container relabelled as the
// retired RPXE v2 (packed metadata), which ReadEncodedFrame must reject:
// the fuzzer starts one mutation away from the version check.
func fuzzRetiredVersionSeed(tb testing.TB, format frame.Format) []byte {
	b := fuzzEncodedSeed(tb, format)
	binary.LittleEndian.PutUint32(b[4:], 2)
	return b
}

// fuzzHostilePayloadLenSeed is the ISSUE 9 overflow regression as a corpus
// entry: maximum geometry with payloadLen 0x80000000, which wraps negative
// through the uint32->int conversion on 32-bit platforms while w*h*bpp
// wraps to 0 — the old multiply-form bound check accepted it.
func fuzzHostilePayloadLenSeed() []byte {
	hdr := make([]byte, 0, 28)
	hdr = binary.LittleEndian.AppendUint32(hdr, encodedMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, encodedVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, MaxFrameDim)
	hdr = binary.LittleEndian.AppendUint32(hdr, MaxFrameDim)
	hdr = binary.LittleEndian.AppendUint32(hdr, 4)          // bpp
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)          // frame index
	hdr = binary.LittleEndian.AppendUint32(hdr, 0x80000000) // payloadLen
	return hdr
}

// fuzzDirtyPaddingSeed is a valid 3x3 Gray8 v1 container except the mask's
// final-byte padding fields are nonzero — the FromBytes canonicalization
// regression (ISSUE 9) as a corpus entry.
func fuzzDirtyPaddingSeed() []byte {
	b := make([]byte, 0, 48)
	b = binary.LittleEndian.AppendUint32(b, encodedMagic)
	b = binary.LittleEndian.AppendUint32(b, encodedVersion)
	b = binary.LittleEndian.AppendUint32(b, 3) // w
	b = binary.LittleEndian.AppendUint32(b, 3) // h
	b = binary.LittleEndian.AppendUint32(b, 1) // bpp
	b = binary.LittleEndian.AppendUint32(b, 0) // frame index
	b = binary.LittleEndian.AppendUint32(b, 0) // payloadLen: all-N frame
	for i := 0; i < 4; i++ {
		b = binary.LittleEndian.AppendUint32(b, 0) // row offsets
	}
	// 9 mask elements -> 3 bytes; codes all N but padding fields dirty.
	return append(b, 0x00, 0x00, 0xC0)
}

// fuzzRecycleSeed is a w x h RGB24 full-frame container whose pixel, row
// offset and mask bytes are all nonzero: a frame parsed from it leaves
// stale bytes in every buffer a later parse into it reuses.
func fuzzRecycleSeed(tb testing.TB, w, h int) []byte {
	tb.Helper()
	enc := NewEncoder(w, h, frame.RGB24)
	if err := enc.SetRegionLabels(region.List{region.FullFrame(w, h)}); err != nil {
		tb.Fatal(err)
	}
	fr := frame.New(w, h, frame.RGB24)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i*13 + 1)
	}
	ef, err := enc.EncodeFrame(fr, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return ef.AppendTo(nil)
}

// sameEncoded reports whether a and b hold the same frame, down to the
// length of every buffer and the mask's padding bits.
func sameEncoded(a, b *EncodedFrame) bool {
	return a.W == b.W && a.H == b.H && a.BytesPerPixel == b.BytesPerPixel && a.FrameIndex == b.FrameIndex &&
		bytes.Equal(a.Pix, b.Pix) && slices.Equal(a.RowOffsets, b.RowOffsets) &&
		a.Mask.Len() == b.Mask.Len() && bytes.Equal(a.Mask.Bytes(), b.Mask.Bytes())
}

func FuzzReadEncodedFrame(f *testing.F) {
	// Every input is also parsed into recycled frames, one filled from a
	// container larger than the seeds (its buffers are reused in place, so
	// stale bytes must not leak through) and one from a smaller container
	// (its buffers must grow): each must fail exactly when a fresh parse
	// fails and otherwise equal it.
	recycled := [][]byte{fuzzRecycleSeed(f, 40, 30), fuzzRecycleSeed(f, 3, 2)}
	f.Add(fuzzEncodedSeed(f, frame.Gray8))
	f.Add(fuzzEncodedSeed(f, frame.RGB24))
	f.Add(fuzzRetiredVersionSeed(f, frame.Gray8))
	f.Add(fuzzRetiredVersionSeed(f, frame.RGB24))
	f.Add(fuzzHostilePayloadLenSeed())
	f.Add(fuzzDirtyPaddingSeed())
	f.Add([]byte{0x45, 0x58, 0x50, 0x52}) // magic only, truncated header
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		ef, err := ReadEncodedFrame(bytes.NewReader(data))
		for _, src := range recycled {
			dirty, derr := ReadEncodedFrame(bytes.NewReader(src))
			if derr != nil {
				t.Fatal(derr)
			}
			rerr := ReadEncodedFrameInto(bytes.NewReader(data), dirty)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("fresh parse error %v, recycled parse into a %dx%d frame error %v", err, dirty.W, dirty.H, rerr)
			}
			if err == nil && !sameEncoded(ef, dirty) {
				t.Fatalf("recycled parse differs from a fresh parse")
			}
		}
		if err != nil {
			return
		}
		// Anything that deserializes must satisfy the structural invariants
		// and survive a byte-identical round trip.
		if verr := ef.Validate(); verr != nil {
			t.Fatalf("accepted frame fails Validate: %v", verr)
		}
		var buf bytes.Buffer
		if _, werr := ef.WriteTo(&buf); werr != nil {
			t.Fatalf("re-serialize: %v", werr)
		}
		ef2, rerr := ReadEncodedFrame(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if ef2.W != ef.W || ef2.H != ef.H || !bytes.Equal(ef2.Pix, ef.Pix) || !ef2.Mask.Equal(ef.Mask) {
			t.Fatalf("round trip not identical")
		}
	})
}

// fuzzStreamSeed writes a short two-frame stream.
func fuzzStreamSeed(tb testing.TB) []byte {
	tb.Helper()
	const w, h = 16, 12
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{{X: 1, Y: 1, W: 10, H: 10, Stride: 1, Skip: 2}}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	fr := frame.New(w, h, frame.Gray8)
	for i := 0; i < 2; i++ {
		for j := range fr.Pix {
			fr.Pix[j] = byte(i + j)
		}
		ef, err := enc.EncodeFrame(fr, i)
		if err != nil {
			tb.Fatal(err)
		}
		if err := sw.WriteFrame(ef); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func FuzzStreamReader(f *testing.F) {
	f.Add(fuzzStreamSeed(f))
	f.Add([]byte{0x53, 0x58, 0x50, 0x52, 1, 0, 0, 0}) // magic + version, truncated
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A hostile stream cannot make the reader loop forever on bounded
		// input, but cap the frame count anyway so the fuzzer's time goes
		// into parsing, not decoding pathological-but-valid megastreams.
		for i := 0; i < 16; i++ {
			ef, err := sr.ReadFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if ef.W != sr.W || ef.H != sr.H {
				t.Fatalf("reader accepted frame geometry %dx%d in %dx%d stream", ef.W, ef.H, sr.W, sr.H)
			}
		}
	})
}
