package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Streaming push mode payloads.
//
// The flow-control contract: a subscription starts with Subscribe.Credit
// push credits; every frame the server accepts into the subscription
// consumes one credit, and CREDIT messages grant more. The server never
// holds more undelivered frames than the client has granted credit for, so
// a stalled client bounds server memory by construction; frames produced
// while a subscription has no credit are dropped for that subscriber and
// counted in FramePush.Dropped (sequence numbers expose the gap).

// Streaming bounds. They cap what a hostile SUBSCRIBE can ask the server
// to buffer (credits are accepted-but-undelivered frames held server-side)
// or assemble into one message (batch).
const (
	// MaxCreditWindow caps a subscription's outstanding credit: granted
	// but unconsumed credits plus accepted-but-undelivered frames.
	MaxCreditWindow = 4096
	// MaxBatch caps how many frames one FRAME_PUSH message may carry.
	MaxBatch = 64
)

// IsStreamMessage reports whether typ is one of the client messages that
// belong to an open push stream — CREDIT, UNSUBSCRIBE and STREAM_LABELS.
// None of them draws a reply outside the stream, so a server that receives
// one after its stream ended (a credit grant or label update racing the
// stream's close) drops it: answering would hand the client a reply to a
// call it has not made yet.
func IsStreamMessage(typ byte) bool {
	return typ == MsgCredit || typ == MsgUnsubscribe || typ == MsgStreamLabels
}

// Subscribe opens a push subscription.
type Subscribe struct {
	// Target selects the session whose encoded-frame stream to attach to:
	// 0 means the connection's own session, otherwise a server-assigned
	// session id (from HELLO_ACK) of another live session — the
	// multi-subscriber fan-out path.
	Target uint64
	// Credit is the initial credit window in frames (may be 0: frames are
	// dropped until the first CREDIT grant).
	Credit uint32
	// Batch bounds how many frames the server packs into one FRAME_PUSH
	// (0 means 1, capped at MaxBatch).
	Batch uint32
}

const subscribeSize = 8 + 4 + 4

// AppendSubscribe appends a SUBSCRIBE payload to dst.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Target)
	dst = binary.LittleEndian.AppendUint32(dst, s.Credit)
	return binary.LittleEndian.AppendUint32(dst, s.Batch)
}

// MarshalSubscribe encodes a SUBSCRIBE payload into a fresh buffer.
func MarshalSubscribe(s Subscribe) []byte { return AppendSubscribe(nil, s) }

// UnmarshalSubscribe decodes and validates a SUBSCRIBE payload.
func UnmarshalSubscribe(b []byte) (Subscribe, error) {
	if len(b) != subscribeSize {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE payload is %d bytes, want %d", len(b), subscribeSize)
	}
	s := Subscribe{
		Target: binary.LittleEndian.Uint64(b),
		Credit: binary.LittleEndian.Uint32(b[8:]),
		Batch:  binary.LittleEndian.Uint32(b[12:]),
	}
	if s.Credit > MaxCreditWindow {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE credit %d exceeds window cap %d", s.Credit, MaxCreditWindow)
	}
	if s.Batch > MaxBatch {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE batch %d exceeds cap %d", s.Batch, MaxBatch)
	}
	return s, nil
}

// SubscribeAck confirms a subscription.
type SubscribeAck struct {
	// SubID identifies the subscription in CREDIT, FRAME_PUSH and
	// UNSUBSCRIBE messages.
	SubID uint64
	// NextSeq is the sequence number (session frame index) of the first
	// frame the subscription can observe; frames captured before the
	// subscription attached are never replayed.
	NextSeq uint64
}

const subscribeAckSize = 8 + 8

// AppendSubscribeAck appends a SUBSCRIBE_ACK payload to dst.
func AppendSubscribeAck(dst []byte, a SubscribeAck) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, a.SubID)
	return binary.LittleEndian.AppendUint64(dst, a.NextSeq)
}

// MarshalSubscribeAck encodes a SUBSCRIBE_ACK payload into a fresh buffer.
func MarshalSubscribeAck(a SubscribeAck) []byte { return AppendSubscribeAck(nil, a) }

// UnmarshalSubscribeAck decodes a SUBSCRIBE_ACK payload.
func UnmarshalSubscribeAck(b []byte) (SubscribeAck, error) {
	if len(b) != subscribeAckSize {
		return SubscribeAck{}, fmt.Errorf("wire: SUBSCRIBE_ACK payload is %d bytes, want %d", len(b), subscribeAckSize)
	}
	return SubscribeAck{
		SubID:   binary.LittleEndian.Uint64(b),
		NextSeq: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// Credit grants a subscription more push credits.
type Credit struct {
	SubID uint64
	// N is the number of additional frames the server may push (>= 1; the
	// server clamps the total outstanding window at MaxCreditWindow).
	N uint32
}

const creditSize = 8 + 4

// AppendCredit appends a CREDIT payload to dst.
func AppendCredit(dst []byte, c Credit) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.SubID)
	return binary.LittleEndian.AppendUint32(dst, c.N)
}

// MarshalCredit encodes a CREDIT payload into a fresh buffer.
func MarshalCredit(c Credit) []byte { return AppendCredit(nil, c) }

// UnmarshalCredit decodes and validates a CREDIT payload.
func UnmarshalCredit(b []byte) (Credit, error) {
	if len(b) != creditSize {
		return Credit{}, fmt.Errorf("wire: CREDIT payload is %d bytes, want %d", len(b), creditSize)
	}
	c := Credit{
		SubID: binary.LittleEndian.Uint64(b),
		N:     binary.LittleEndian.Uint32(b[8:]),
	}
	if c.N == 0 {
		return Credit{}, fmt.Errorf("wire: CREDIT grants zero credits")
	}
	return c, nil
}

// Unsubscribe ends a subscription.
type Unsubscribe struct {
	SubID uint64
}

const unsubscribeSize = 8

// AppendUnsubscribe appends an UNSUBSCRIBE payload to dst.
func AppendUnsubscribe(dst []byte, u Unsubscribe) []byte {
	return binary.LittleEndian.AppendUint64(dst, u.SubID)
}

// MarshalUnsubscribe encodes an UNSUBSCRIBE payload into a fresh buffer.
func MarshalUnsubscribe(u Unsubscribe) []byte { return AppendUnsubscribe(nil, u) }

// UnmarshalUnsubscribe decodes an UNSUBSCRIBE payload.
func UnmarshalUnsubscribe(b []byte) (Unsubscribe, error) {
	if len(b) != unsubscribeSize {
		return Unsubscribe{}, fmt.Errorf("wire: UNSUBSCRIBE payload is %d bytes, want %d", len(b), unsubscribeSize)
	}
	return Unsubscribe{SubID: binary.LittleEndian.Uint64(b)}, nil
}

// PushFrame is one encoded frame inside a FRAME_PUSH batch.
type PushFrame struct {
	// Seq is the frame's sequence number: the session frame index the
	// producer captured it at. Consecutive pushes with non-consecutive Seq
	// mean the subscription ran out of credit and frames were dropped.
	Seq uint64
	// Stats are the frame's capture statistics, identical to what a
	// CAPTURE_ACK for the same frame reported.
	Stats CaptureAck
	// Enc is the encoded frame in the RPXE container framing
	// (core.EncodedFrame.WriteTo) — byte-identical to an rpx.System's
	// LastEncoded().WriteTo for the same frame.
	Enc []byte
}

// FramePush is the server-to-client push message: up to Batch frames.
type FramePush struct {
	SubID uint64
	// Dropped is the cumulative count of frames this subscription missed
	// because it had no credit when they were produced.
	Dropped uint64
	Frames  []PushFrame
}

// framePushHeaderSize is u64 subID + u64 dropped + u32 count.
const framePushHeaderSize = 8 + 8 + 4

// pushRecordHeaderSize prefixes each frame record: u64 seq + the 20-byte
// capture statistics + u32 encoded length.
const pushRecordHeaderSize = 8 + 20 + 4

// A FRAME_PUSH payload is AppendFramePushHeader's bytes, then for each
// frame AppendPushRecordHeader's bytes followed by the frame's RPXE
// container. AppendFramePush concatenates them; a sender that holds the
// container in pieces (the server's push writer, which never copies a
// frame) hands the same sequence to MessageWriter.WriteMessageVec instead.

// AppendFramePushHeader appends the header of a FRAME_PUSH payload that
// carries n frame records.
func AppendFramePushHeader(dst []byte, subID, dropped uint64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, subID)
	dst = binary.LittleEndian.AppendUint64(dst, dropped)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendPushRecordHeader appends the header of one FRAME_PUSH record whose
// RPXE container is encLen bytes long.
func AppendPushRecordHeader(dst []byte, seq uint64, stats CaptureAck, encLen int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = AppendCaptureAck(dst, stats)
	return binary.LittleEndian.AppendUint32(dst, uint32(encLen))
}

// PushFit returns how many of the next n records one FRAME_PUSH carries
// under maxPayload (0 means DefaultMaxPayload), given each record's
// container length: the longest run whose payload fits the cap, but at
// least one record, so a record too large on its own goes out alone and
// its write fails with ErrTooLarge.
func PushFit(n int, encLen func(i int) int, maxPayload int) int {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	size := framePushHeaderSize
	for i := 0; i < n; i++ {
		size += pushRecordHeaderSize + encLen(i)
		if i > 0 && size > maxPayload {
			return i
		}
	}
	return n
}

// AppendFramePush appends a FRAME_PUSH payload to dst. With a dst of
// sufficient capacity it performs no allocation.
func AppendFramePush(dst []byte, p FramePush) []byte {
	dst = AppendFramePushHeader(dst, p.SubID, p.Dropped, len(p.Frames))
	for _, f := range p.Frames {
		dst = AppendPushRecordHeader(dst, f.Seq, f.Stats, len(f.Enc))
		dst = append(dst, f.Enc...)
	}
	return dst
}

// FramePushSize returns the exact payload length AppendFramePush produces
// for p, so a sender can size its scratch buffer up front.
func FramePushSize(p FramePush) int {
	n := framePushHeaderSize
	for _, f := range p.Frames {
		n += pushRecordHeaderSize + len(f.Enc)
	}
	return n
}

// MarshalFramePush encodes a FRAME_PUSH payload into a fresh buffer.
func MarshalFramePush(p FramePush) []byte {
	return AppendFramePush(make([]byte, 0, FramePushSize(p)), p)
}

// UnmarshalFramePush decodes a FRAME_PUSH payload. The input is untrusted:
// the claimed batch count is bounded by what the payload can actually carry
// before any allocation, and every record's encoded length is checked
// against the remaining bytes, so hostile counts or length prefixes yield
// an error, never a panic or an oversized allocation.
func UnmarshalFramePush(b []byte) (FramePush, error) {
	var p FramePush
	if err := UnmarshalFramePushInto(b, &p); err != nil {
		return FramePush{}, err
	}
	return p, nil
}

// UnmarshalFramePushInto is UnmarshalFramePush into p, reusing the storage
// of p.Frames: a consumer that keeps one FramePush decodes a steady stream
// without allocating. The frames' Enc slices point into b. On error p's
// contents are unspecified.
func UnmarshalFramePushInto(b []byte, p *FramePush) error {
	if len(b) < framePushHeaderSize {
		return fmt.Errorf("wire: FRAME_PUSH payload is %d bytes, want >= %d", len(b), framePushHeaderSize)
	}
	p.SubID = binary.LittleEndian.Uint64(b)
	p.Dropped = binary.LittleEndian.Uint64(b[8:])
	count := int64(binary.LittleEndian.Uint32(b[16:]))
	if count > MaxBatch {
		return fmt.Errorf("wire: FRAME_PUSH claims %d frames, batch cap is %d", count, MaxBatch)
	}
	if max := int64(len(b)-framePushHeaderSize) / pushRecordHeaderSize; count > max {
		return fmt.Errorf("wire: FRAME_PUSH claims %d frames, payload fits %d", count, max)
	}
	p.Frames = slices.Grow(p.Frames[:0], int(count))
	off := framePushHeaderSize
	for i := int64(0); i < count; i++ {
		if len(b)-off < pushRecordHeaderSize {
			return fmt.Errorf("wire: FRAME_PUSH record %d truncated at %d bytes", i, len(b)-off)
		}
		var f PushFrame
		f.Seq = binary.LittleEndian.Uint64(b[off:])
		stats, err := UnmarshalCaptureAck(b[off+8 : off+28])
		if err != nil {
			return fmt.Errorf("wire: FRAME_PUSH record %d: %w", i, err)
		}
		f.Stats = stats
		encLen := int64(binary.LittleEndian.Uint32(b[off+28:]))
		off += pushRecordHeaderSize
		if encLen > int64(len(b)-off) {
			return fmt.Errorf("wire: FRAME_PUSH record %d claims %d encoded bytes, %d remain", i, encLen, len(b)-off)
		}
		f.Enc = b[off : off+int(encLen)]
		off += int(encLen)
		p.Frames = append(p.Frames, f)
	}
	if off != len(b) {
		return fmt.Errorf("wire: FRAME_PUSH carries %d trailing bytes", len(b)-off)
	}
	return nil
}
