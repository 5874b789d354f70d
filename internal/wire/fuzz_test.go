package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

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
	f.Add(seed(MsgFramePush, MarshalFramePush(FramePush{SubID: 1, Frames: []PushFrame{{Seq: 2, Enc: []byte{1, 2, 3}}}})))
	f.Add(seed(MsgCaptureAck, MarshalCaptureAck(CaptureAck{FrameIndex: 3, EncodedPixels: 10, EncodedBytes: 10, PixelFraction: 0.5})))
	f.Add(seed(MsgStreamLabels, MarshalStreamLabels(StreamLabels{SubID: 5, Labels: region.List{{X: 1, Y: 1, W: 8, H: 8, Stride: 1}}})))
	f.Add(seed(MsgLabelsApplied, MarshalLabelsApplied(LabelsApplied{SubID: 5, AppliedSeq: 11})))
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
			case MsgSetLabels:
				UnmarshalLabels(payload)
			case MsgCaptureAck:
				UnmarshalCaptureAck(payload)
			case MsgFrame:
				UnmarshalFrame(payload)
			case MsgError:
				UnmarshalError(payload)
			case MsgSubscribe:
				UnmarshalSubscribe(payload)
			case MsgSubscribeAck:
				UnmarshalSubscribeAck(payload)
			case MsgCredit:
				UnmarshalCredit(payload)
			case MsgFramePush:
				UnmarshalFramePush(payload)
			case MsgUnsubscribe:
				UnmarshalUnsubscribe(payload)
			case MsgStreamLabels:
				UnmarshalStreamLabels(payload)
			case MsgLabelsApplied:
				UnmarshalLabelsApplied(payload)
			}
		}
	})
}

// FuzzReadSubscribe exercises the small fixed-size streaming control
// payloads (SUBSCRIBE, SUBSCRIBE_ACK, CREDIT, UNSUBSCRIBE) with arbitrary
// bytes: errors, never panics, and any accepted SUBSCRIBE obeys the credit
// and batch caps — the bounds the server's per-subscription ledger relies
// on.
func FuzzReadSubscribe(f *testing.F) {
	f.Add(MarshalSubscribe(Subscribe{Target: 0, Credit: 1, Batch: 1}))
	f.Add(MarshalSubscribe(Subscribe{Target: 1 << 40, Credit: MaxCreditWindow, Batch: MaxBatch}))
	f.Add(MarshalCredit(Credit{SubID: 9, N: 1 << 30}))
	f.Add(MarshalUnsubscribe(Unsubscribe{SubID: ^uint64(0)}))
	hostile := MarshalSubscribe(Subscribe{})
	for i := 8; i < len(hostile); i++ {
		hostile[i] = 0xff // credit and batch fields at their uint32 max
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := UnmarshalSubscribe(data); err == nil {
			if s.Credit > MaxCreditWindow || s.Batch > MaxBatch {
				t.Fatalf("accepted subscribe breaks caps: %+v", s)
			}
		}
		UnmarshalSubscribeAck(data)
		UnmarshalCredit(data)
		UnmarshalUnsubscribe(data)
	})
}

// FuzzReadFramePush drives arbitrary bytes through the batched push
// decoder. Hostile batch counts and per-record encoded lengths must fail
// before any allocation proportional to the claim, and every accepted
// payload must re-marshal byte-identically (the decoder neither invents
// nor drops bytes).
func FuzzReadFramePush(f *testing.F) {
	f.Add(MarshalFramePush(FramePush{SubID: 1}))
	f.Add(MarshalFramePush(FramePush{
		SubID:   2,
		Dropped: 5,
		Frames: []PushFrame{
			{Seq: 7, Stats: CaptureAck{FrameIndex: 7, EncodedPixels: 4, EncodedBytes: 12, PixelFraction: 0.5}, Enc: []byte{1, 2, 3, 4}},
			{Seq: 9, Stats: CaptureAck{FrameIndex: 9}, Enc: nil},
		},
	}))
	hostileCount := MarshalFramePush(FramePush{SubID: 3, Frames: []PushFrame{{Seq: 1, Enc: []byte{8}}}})
	hostileCount[16], hostileCount[17], hostileCount[18], hostileCount[19] = 0xff, 0xff, 0xff, 0xff
	f.Add(hostileCount)
	hostileLen := MarshalFramePush(FramePush{SubID: 4, Frames: []PushFrame{{Seq: 1, Enc: []byte{8, 9}}}})
	hostileLen[framePushHeaderSize+28] = 0xf0
	hostileLen[framePushHeaderSize+31] = 0xff
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
	})
}
