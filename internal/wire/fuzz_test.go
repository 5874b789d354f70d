package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/region"
)

// FuzzReadMessage drives arbitrary bytes through the framing layer and every
// payload unmarshaler a server or client would dispatch to. The protocol's
// untrusted-input guarantee: malformed input yields an error, never a panic,
// and allocation is bounded by the payload cap regardless of the length
// prefix's claim.
func FuzzReadMessage(f *testing.F) {
	// Structurally valid seeds for each message family.
	seed := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, typ, payload, DefaultMaxPayload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(MsgHello, MarshalHello(Hello{W: 64, H: 48})))
	f.Add(seed(MsgHelloAck, MarshalHelloAck(HelloAck{SessionID: 7, MaxPayload: DefaultMaxPayload})))
	// HELLOs from retired revisions in their own layouts, one mutation away
	// from the version check: v9 and v8 appended a u32 decoder history
	// depth to today's 17 bytes (21), v7 a u32 queue depth and a u8 block
	// flag after that (26), v6 a u32 parallelism field after those (30),
	// and v5 a packed-mask codec byte after that field (31).
	v9 := binary.LittleEndian.AppendUint32(MarshalHello(Hello{W: 64, H: 48}), 1<<30)
	binary.LittleEndian.PutUint32(v9[4:], 9)
	f.Add(seed(MsgHello, v9))
	v8 := binary.LittleEndian.AppendUint32(MarshalHello(Hello{W: 64, H: 48}), 4)
	binary.LittleEndian.PutUint32(v8[4:], 8)
	f.Add(seed(MsgHello, v8))
	v7 := append(binary.LittleEndian.AppendUint32(bytes.Clone(v8), 16), 1)
	binary.LittleEndian.PutUint32(v7[4:], 7)
	f.Add(seed(MsgHello, v7))
	v6 := binary.LittleEndian.AppendUint32(bytes.Clone(v7), 2)
	binary.LittleEndian.PutUint32(v6[4:], 6)
	f.Add(seed(MsgHello, v6))
	v5 := append(binary.LittleEndian.AppendUint32(bytes.Clone(v7), 0), 1)
	binary.LittleEndian.PutUint32(v5[4:], 5)
	f.Add(seed(MsgHello, v5))
	f.Add(seed(MsgSubscribe, MarshalSubscribe(Subscribe{Target: 3, Credit: 8, Batch: 4})))
	f.Add(seed(MsgFramePush, MarshalFramePush(FramePush{Frames: [][]byte{{1, 2, 3}}})))
	f.Add(seed(MsgCaptureAck, MarshalCaptureAck(CaptureAck{FrameIndex: 3, EncodedPixels: 10, EncodedBytes: 10, PixelFraction: 0.5})))
	f.Add(seed(MsgStreamLabels, MarshalLabels(region.List{{X: 1, Y: 1, W: 8, H: 8, Stride: 1}})))
	f.Add(seed(MsgLabelsApplied, MarshalLabelsApplied(LabelsApplied{AppliedSeq: 11})))
	f.Add(seed(MsgError, MarshalError(CodeBadRequest, "nope")))
	f.Add(seed(MsgAck, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // hostile length prefix
	// Hostile length just under the cap with a tiny body: the chunked read
	// must fail on the truncation without allocating the claimed length.
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, MsgCapture, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPayload = 1 << 16
		r := bytes.NewReader(data)
		for i := 0; i < 8; i++ {
			typ, payload, err := ReadMessage(r, maxPayload)
			if err != nil {
				return
			}
			if len(payload) > maxPayload {
				t.Fatalf("ReadMessage returned %d bytes above the %d cap", len(payload), maxPayload)
			}
			// Dispatch the payload to the unmarshaler its type selects,
			// mirroring both the server's and the client's read paths.
			switch typ {
			case MsgHello:
				UnmarshalHello(payload)
			case MsgHelloAck:
				UnmarshalHelloAck(payload)
			case MsgSetLabels, MsgStreamLabels:
				UnmarshalLabels(payload)
			case MsgCaptureAck:
				UnmarshalCaptureAck(payload)
			case MsgFrame:
				UnmarshalFrame(payload)
			case MsgError:
				UnmarshalError(payload)
			case MsgSubscribe:
				UnmarshalSubscribe(payload)
			case MsgCredit:
				UnmarshalCredit(payload)
			case MsgFramePush:
				UnmarshalFramePush(payload)
			case MsgLabelsApplied:
				UnmarshalLabelsApplied(payload)
			}
		}
	})
}

// FuzzReadSubscribe exercises the small fixed-size streaming control
// payloads (SUBSCRIBE, CREDIT) with arbitrary bytes: errors, never panics,
// any accepted SUBSCRIBE obeys the credit and batch caps — the bounds the
// server's per-subscription ledger relies on — and any accepted CREDIT
// grants at least one credit.
func FuzzReadSubscribe(f *testing.F) {
	f.Add(MarshalSubscribe(Subscribe{Target: 1, Credit: 1, Batch: 1}))
	f.Add(MarshalSubscribe(Subscribe{Target: 0, Credit: 1, Batch: 1}))
	f.Add(MarshalSubscribe(Subscribe{Target: 1 << 40, Credit: MaxCreditWindow, Batch: MaxBatch}))
	f.Add(MarshalCredit(1 << 30))
	v11 := MarshalSubscribe(Subscribe{Target: 1, Credit: 1, Batch: 1})
	binary.LittleEndian.PutUint32(v11[4:], 11) // protocol 11's layout
	f.Add(v11)
	hostile := MarshalSubscribe(Subscribe{Target: 1})
	for i := len(hostile) - 8; i < len(hostile); i++ {
		hostile[i] = 0xff // credit and batch fields at their uint32 max
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := UnmarshalSubscribe(data); err == nil {
			if s.Credit > MaxCreditWindow || s.Batch > MaxBatch {
				t.Fatalf("accepted subscribe breaks caps: %+v", s)
			}
		}
		if n, err := UnmarshalCredit(data); err == nil && n == 0 {
			t.Fatal("accepted a CREDIT of zero")
		}
	})
}

// FuzzReadFramePush drives arbitrary bytes through the batched push
// decoder. Hostile batch counts and per-record lengths must fail before any
// allocation proportional to the claim, and every accepted payload must
// re-marshal byte-identically (the decoder neither invents nor drops
// bytes). Every accepted record then goes through the header parse a
// subscriber reads its frame's index and statistics with,
// core.ParseEncodedHeader, which must not panic: where it and
// core.ReadEncodedFrame both accept a record they agree on the frame index,
// the geometry and the size, and a record ReadEncodedFrame reads to its
// last byte the header parse accepts.
func FuzzReadFramePush(f *testing.F) {
	c0, c1 := containerSeed(f, 7), containerSeed(f, 8)
	f.Add(MarshalFramePush(FramePush{}))
	f.Add(MarshalFramePush(FramePush{Dropped: 5, Frames: [][]byte{c0, c1}}))
	f.Add(MarshalFramePush(FramePush{Frames: [][]byte{c0[:len(c0)-1]}})) // shorter than its header says
	f.Add(MarshalFramePush(FramePush{Frames: [][]byte{append(bytes.Clone(c1), 0)}}))
	hostileCount := MarshalFramePush(FramePush{Frames: [][]byte{{8}}})
	hostileCount[8], hostileCount[9], hostileCount[10], hostileCount[11] = 0xff, 0xff, 0xff, 0xff
	f.Add(hostileCount)
	hostileLen := MarshalFramePush(FramePush{Frames: [][]byte{{8, 9}}})
	hostileLen[framePushHeaderSize] = 0xf0
	hostileLen[framePushHeaderSize+3] = 0xff
	f.Add(hostileLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalFramePush(data)
		if err != nil {
			return
		}
		if len(p.Frames) > MaxBatch {
			t.Fatalf("accepted push with %d frames above the %d batch cap", len(p.Frames), MaxBatch)
		}
		if got := MarshalFramePush(p); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal differs: %d bytes in, %d out", len(data), len(got))
		}
		for i, rec := range p.Frames {
			h, herr := core.ParseEncodedHeader(rec)
			r := bytes.NewReader(rec)
			ef, rerr := core.ReadEncodedFrame(r)
			if rerr != nil {
				continue
			}
			if r.Len() == 0 && herr != nil {
				t.Fatalf("record %d: ReadEncodedFrame reads all %d bytes, the header parse rejects them: %v", i, len(rec), herr)
			}
			if herr == nil && (h.FrameIndex != ef.FrameIndex || h.W != ef.W || h.H != ef.H ||
				h.BytesPerPixel != ef.BytesPerPixel || len(rec) != ef.EncodedSize() ||
				h.NumEncodedPixels() != ef.NumEncodedPixels() || h.TotalBytes() != ef.TotalBytes()) {
				t.Fatalf("record %d: header %+v disagrees with the frame read (%dx%d bpp %d, index %d, %d bytes)",
					i, h, ef.W, ef.H, ef.BytesPerPixel, ef.FrameIndex, ef.EncodedSize())
			}
		}
	})
}

// containerSeed encodes a small synthetic frame at index idx and returns
// its RPXE container.
func containerSeed(tb testing.TB, idx int) []byte {
	tb.Helper()
	const w, h = 16, 12
	enc := core.NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{
		{X: 2, Y: 1, W: 9, H: 7, Stride: 2, Skip: 1},
		{X: 0, Y: 8, W: w, H: 4, Stride: 1, Skip: 2},
	}); err != nil {
		tb.Fatal(err)
	}
	fr := frame.New(w, h, frame.Gray8)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i * 7)
	}
	ef, err := enc.EncodeFrame(fr, idx)
	if err != nil {
		tb.Fatal(err)
	}
	return ef.AppendTo(nil)
}
