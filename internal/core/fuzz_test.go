package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// Fuzz targets for the two untrusted decode surfaces owned by this package:
// the RPXE encoded-frame container and the RPXS stream container. Both
// guarantee error-never-panic on arbitrary bytes, with allocations bounded
// by the bytes actually present (see readExact) — the fuzzers double as
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

func FuzzReadEncodedFrame(f *testing.F) {
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
