package wire

import (
	"encoding/binary"
	"fmt"
)

// Closed-loop label feedback.
//
// A subscriber may push region-label workloads *back* to the session its
// stream is attached to, on the stream connection itself: STREAM_LABELS,
// whose payload is exactly a SET_LABELS payload (AppendLabels /
// UnmarshalLabels), rides the connection's write side (like CREDIT) while
// FRAME_PUSH batches keep flowing the other way. The server applies the
// labels under the target session's lock — serialized against in-flight
// captures exactly like a SET_LABELS from the producer itself — and answers
// with LABELS_APPLIED carrying the first frame sequence number that will
// observe the new workload. That boundary is deterministic: every pushed
// frame with Seq >= AppliedSeq was captured under the new labels, every
// earlier frame under the old ones.

// LabelsApplied is the server-to-client reply to STREAM_LABELS. It rides
// the push stream (interleaved with FRAME_PUSH batches, never tearing them:
// the MessageWriter serializes whole messages).
type LabelsApplied struct {
	// AppliedSeq is the first frame sequence number captured under the new
	// labels. Meaningful only when Code is zero.
	AppliedSeq uint64
	// Code is zero on success, otherwise a Code* value explaining the
	// rejection (e.g. CodeBadRequest for labels outside the session
	// geometry). A rejected workload leaves the previous labels in force.
	Code uint16
	// Msg is the human-readable rejection reason when Code is nonzero.
	Msg string
}

// labelsAppliedHeaderSize is u64 appliedSeq + u16 code.
const labelsAppliedHeaderSize = 8 + 2

// AppendLabelsApplied appends a LABELS_APPLIED payload to dst.
func AppendLabelsApplied(dst []byte, la LabelsApplied) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, la.AppliedSeq)
	dst = binary.LittleEndian.AppendUint16(dst, la.Code)
	return append(dst, la.Msg...)
}

// MarshalLabelsApplied encodes a LABELS_APPLIED payload into a fresh buffer.
func MarshalLabelsApplied(la LabelsApplied) []byte { return AppendLabelsApplied(nil, la) }

// UnmarshalLabelsApplied decodes a LABELS_APPLIED payload. The trailing
// message bytes are length-bounded by the framing layer's payload cap, so no
// further validation is needed beyond the fixed header.
func UnmarshalLabelsApplied(b []byte) (LabelsApplied, error) {
	if len(b) < labelsAppliedHeaderSize {
		return LabelsApplied{}, fmt.Errorf("wire: LABELS_APPLIED payload is %d bytes, want >= %d", len(b), labelsAppliedHeaderSize)
	}
	return LabelsApplied{
		AppliedSeq: binary.LittleEndian.Uint64(b),
		Code:       binary.LittleEndian.Uint16(b[8:]),
		Msg:        string(b[labelsAppliedHeaderSize:]),
	}, nil
}
