package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/region"
)

// Closed-loop label feedback.
//
// A subscriber may push region-label workloads *back* to the session its
// subscription is attached to without leaving push mode: STREAM_LABELS rides
// the connection's write side (like CREDIT) while FRAME_PUSH batches keep
// flowing the other way. The server applies the labels through the target
// session's request queue — serialized against in-flight captures exactly
// like a SET_LABELS from the producer itself — and answers with
// LABELS_APPLIED carrying the first frame sequence number that will observe
// the new workload. That boundary is deterministic: every pushed frame with
// Seq >= AppliedSeq was captured under the new labels, every earlier frame
// under the old ones.

// StreamLabels is the client-to-server feedback message: a region-label
// workload for the session the subscription targets.
type StreamLabels struct {
	// SubID names the subscription whose target session receives the
	// labels (must match the connection's open subscription).
	SubID uint64
	// Labels is the capture workload, encoded exactly as SET_LABELS.
	Labels region.List
}

// streamLabelsHeaderSize is the u64 subscription id before the labels body.
const streamLabelsHeaderSize = 8

// AppendStreamLabels appends a STREAM_LABELS payload to dst.
func AppendStreamLabels(dst []byte, sl StreamLabels) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, sl.SubID)
	return AppendLabels(dst, sl.Labels)
}

// MarshalStreamLabels encodes a STREAM_LABELS payload into a fresh buffer.
func MarshalStreamLabels(sl StreamLabels) []byte { return AppendStreamLabels(nil, sl) }

// UnmarshalStreamLabels decodes a STREAM_LABELS payload. The labels body is
// untrusted and goes through the same bounded decode as SET_LABELS.
func UnmarshalStreamLabels(b []byte) (StreamLabels, error) {
	if len(b) < streamLabelsHeaderSize {
		return StreamLabels{}, fmt.Errorf("wire: STREAM_LABELS payload is %d bytes, want >= %d", len(b), streamLabelsHeaderSize)
	}
	labels, err := UnmarshalLabels(b[streamLabelsHeaderSize:])
	if err != nil {
		return StreamLabels{}, fmt.Errorf("wire: STREAM_LABELS: %w", err)
	}
	return StreamLabels{
		SubID:  binary.LittleEndian.Uint64(b),
		Labels: labels,
	}, nil
}

// LabelsApplied is the server-to-client reply to STREAM_LABELS. It rides
// the push stream (interleaved with FRAME_PUSH batches, never tearing them:
// the MessageWriter serializes whole messages).
type LabelsApplied struct {
	// SubID echoes the subscription the feedback arrived on.
	SubID uint64
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

// labelsAppliedHeaderSize is u64 subID + u64 appliedSeq + u16 code.
const labelsAppliedHeaderSize = 8 + 8 + 2

// AppendLabelsApplied appends a LABELS_APPLIED payload to dst.
func AppendLabelsApplied(dst []byte, la LabelsApplied) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, la.SubID)
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
		SubID:      binary.LittleEndian.Uint64(b),
		AppliedSeq: binary.LittleEndian.Uint64(b[8:]),
		Code:       binary.LittleEndian.Uint16(b[16:]),
		Msg:        string(b[labelsAppliedHeaderSize:]),
	}, nil
}
