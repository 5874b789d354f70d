package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Stream connection payloads.
//
// The flow-control contract: a subscription starts with Subscribe.Credit
// push credits; every frame the server accepts into the subscription
// consumes one credit, and CREDIT messages grant more. The server never
// holds more undelivered frames than the client has granted credit for, so
// a stalled client bounds server memory by construction; frames produced
// while a subscription has no credit are dropped for that subscriber and
// counted in FramePush.Dropped (the pushed frames' indexes expose the gap).

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

// Subscribe opens a push subscription. On the wire it is prefixed with
// ProtoMagic and ProtoVersion, since it opens its connection.
type Subscribe struct {
	// Target is the server-assigned id (from HELLO_ACK) of the session
	// whose encoded-frame stream to attach to. A stream connection has no
	// session of its own, so 0 names nothing and is rejected.
	Target uint64
	// Credit is the initial credit window in frames (may be 0: frames are
	// dropped until the first CREDIT grant).
	Credit uint32
	// Batch bounds how many frames the server packs into one FRAME_PUSH
	// (0 means 1, capped at MaxBatch).
	Batch uint32
}

const subscribeSize = protoSize + 8 + 4 + 4

// AppendSubscribe appends a SUBSCRIBE payload to dst, prefixed with magic
// and ProtoVersion.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	dst = appendProto(dst)
	dst = binary.LittleEndian.AppendUint64(dst, s.Target)
	dst = binary.LittleEndian.AppendUint32(dst, s.Credit)
	return binary.LittleEndian.AppendUint32(dst, s.Batch)
}

// MarshalSubscribe encodes a SUBSCRIBE payload into a fresh buffer.
func MarshalSubscribe(s Subscribe) []byte { return AppendSubscribe(nil, s) }

// UnmarshalSubscribe validates magic and version, as UnmarshalHello does,
// and decodes and validates a SUBSCRIBE payload.
func UnmarshalSubscribe(b []byte) (Subscribe, error) {
	if err := checkProto("SUBSCRIBE", b); err != nil {
		return Subscribe{}, err
	}
	if len(b) != subscribeSize {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE payload is %d bytes, want %d", len(b), subscribeSize)
	}
	s := Subscribe{
		Target: binary.LittleEndian.Uint64(b[protoSize:]),
		Credit: binary.LittleEndian.Uint32(b[protoSize+8:]),
		Batch:  binary.LittleEndian.Uint32(b[protoSize+12:]),
	}
	if s.Target == 0 {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE names no target session")
	}
	if s.Credit > MaxCreditWindow {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE credit %d exceeds window cap %d", s.Credit, MaxCreditWindow)
	}
	if s.Batch > MaxBatch {
		return Subscribe{}, fmt.Errorf("wire: SUBSCRIBE batch %d exceeds cap %d", s.Batch, MaxBatch)
	}
	return s, nil
}

// A stream connection holds one subscription, so no stream message names
// it. SUBSCRIBE is answered with the empty ACK, UNSUBSCRIBE is empty and
// answered with the empty ACK once the stream has drained, STREAM_LABELS
// is exactly a SET_LABELS payload (AppendLabels / UnmarshalLabels), and
// FRAME_PUSH records carry nothing but their RPXE containers: a frame's
// index and capture statistics are in its container's header.

// creditSize is the CREDIT payload: one u32 grant.
const creditSize = 4

// MarshalCredit encodes a CREDIT payload granting n more push credits (the
// server clamps the outstanding window at MaxCreditWindow).
func MarshalCredit(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

// UnmarshalCredit decodes and validates a CREDIT payload: a grant of at
// least one credit.
func UnmarshalCredit(b []byte) (uint32, error) {
	if len(b) != creditSize {
		return 0, fmt.Errorf("wire: CREDIT payload is %d bytes, want %d", len(b), creditSize)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 {
		return 0, fmt.Errorf("wire: CREDIT grants zero credits")
	}
	return n, nil
}

// FramePush is the server-to-client push message: up to Batch frames.
type FramePush struct {
	// Dropped is the cumulative count of frames this subscription missed
	// because it had no credit when they were produced.
	Dropped uint64
	// Frames holds each pushed frame's RPXE container
	// (core.EncodedFrame.WriteTo), byte-identical to an rpx.System's
	// LastEncoded().WriteTo for the same frame. Its header carries the
	// frame index, which consecutive pushes skip only when frames were
	// dropped.
	Frames [][]byte
}

// framePushHeaderSize is u64 dropped + u32 count.
const framePushHeaderSize = 8 + 4

// pushRecordHeaderSize prefixes each frame record: its u32 container
// length.
const pushRecordHeaderSize = 4

// A FRAME_PUSH payload is AppendFramePushHeader's bytes, then for each
// frame AppendPushRecordHeader's bytes followed by the frame's RPXE
// container. AppendFramePush concatenates them; a sender that holds the
// container in pieces (the server's push writer, which never copies a
// frame) hands the same sequence to MessageWriter.WriteMessageVec instead.

// AppendFramePushHeader appends the header of a FRAME_PUSH payload that
// carries n frame records.
func AppendFramePushHeader(dst []byte, dropped uint64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, dropped)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendPushRecordHeader appends the header of one FRAME_PUSH record whose
// RPXE container is encLen bytes long.
func AppendPushRecordHeader(dst []byte, encLen int) []byte {
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
	dst = AppendFramePushHeader(dst, p.Dropped, len(p.Frames))
	for _, enc := range p.Frames {
		dst = AppendPushRecordHeader(dst, len(enc))
		dst = append(dst, enc...)
	}
	return dst
}

// FramePushSize returns the exact payload length AppendFramePush produces
// for p, so a sender can size its scratch buffer up front.
func FramePushSize(p FramePush) int {
	n := framePushHeaderSize
	for _, enc := range p.Frames {
		n += pushRecordHeaderSize + len(enc)
	}
	return n
}

// MarshalFramePush encodes a FRAME_PUSH payload into a fresh buffer.
func MarshalFramePush(p FramePush) []byte {
	return AppendFramePush(make([]byte, 0, FramePushSize(p)), p)
}

// UnmarshalFramePush decodes a FRAME_PUSH payload. The input is untrusted:
// the claimed batch count is bounded by what the payload can actually carry
// before any allocation, and every record's length is checked against the
// remaining bytes, so hostile counts or length prefixes yield an error,
// never a panic or an oversized allocation. The records' containers are
// not parsed: core.ParseEncodedHeader reads one's header.
func UnmarshalFramePush(b []byte) (FramePush, error) {
	var p FramePush
	if err := UnmarshalFramePushInto(b, &p); err != nil {
		return FramePush{}, err
	}
	return p, nil
}

// UnmarshalFramePushInto is UnmarshalFramePush into p, reusing the storage
// of p.Frames: a consumer that keeps one FramePush decodes a steady stream
// without allocating. The frames point into b. On error p's contents are
// unspecified.
func UnmarshalFramePushInto(b []byte, p *FramePush) error {
	if len(b) < framePushHeaderSize {
		return fmt.Errorf("wire: FRAME_PUSH payload is %d bytes, want >= %d", len(b), framePushHeaderSize)
	}
	p.Dropped = binary.LittleEndian.Uint64(b)
	count := int64(binary.LittleEndian.Uint32(b[8:]))
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
		encLen := int64(binary.LittleEndian.Uint32(b[off:]))
		off += pushRecordHeaderSize
		if encLen > int64(len(b)-off) {
			return fmt.Errorf("wire: FRAME_PUSH record %d claims %d encoded bytes, %d remain", i, encLen, len(b)-off)
		}
		p.Frames = append(p.Frames, b[off:off+int(encLen)])
		off += int(encLen)
	}
	if off != len(b) {
		return fmt.Errorf("wire: FRAME_PUSH carries %d trailing bytes", len(b)-off)
	}
	return nil
}
