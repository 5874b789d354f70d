package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/region"
)

func TestStreamLabelsRoundTrip(t *testing.T) {
	for _, sl := range []StreamLabels{
		{SubID: 0, Labels: nil},
		{SubID: 7, Labels: region.List{{X: 1, Y: 2, W: 3, H: 4, Stride: 1, Skip: 0, Phase: 0}}},
		{SubID: ^uint64(0), Labels: region.List{
			{X: 0, Y: 0, W: 64, H: 48, Stride: 1, Skip: 3, Phase: 2},
			{X: 8, Y: 8, W: 16, H: 16, Stride: 4, Skip: 1, Phase: 1},
		}},
	} {
		got, err := UnmarshalStreamLabels(MarshalStreamLabels(sl))
		if err != nil {
			t.Fatalf("round trip %+v: %v", sl, err)
		}
		if got.SubID != sl.SubID || len(got.Labels) != len(sl.Labels) {
			t.Fatalf("round trip %+v: got %+v", sl, got)
		}
		for i := range sl.Labels {
			if got.Labels[i] != sl.Labels[i] {
				t.Fatalf("label %d: got %+v, want %+v", i, got.Labels[i], sl.Labels[i])
			}
		}
	}
}

func TestStreamLabelsHostile(t *testing.T) {
	// Truncated before the subscription id.
	if _, err := UnmarshalStreamLabels([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted 3-byte STREAM_LABELS")
	}
	// Valid header, labels body claiming more labels than the payload holds.
	b := MarshalStreamLabels(StreamLabels{SubID: 1, Labels: region.List{{W: 1, H: 1, Stride: 1}}})
	b[streamLabelsHeaderSize] = 0xff // count low byte
	if _, err := UnmarshalStreamLabels(b); err == nil {
		t.Fatal("accepted STREAM_LABELS with an inflated label count")
	}
	// Trailing garbage after the last label must be rejected, not ignored.
	b = append(MarshalStreamLabels(StreamLabels{SubID: 1, Labels: nil}), 0xee)
	if _, err := UnmarshalStreamLabels(b); err == nil {
		t.Fatal("accepted STREAM_LABELS with trailing bytes")
	}
}

func TestLabelsAppliedRoundTrip(t *testing.T) {
	for _, la := range []LabelsApplied{
		{SubID: 0, AppliedSeq: 0, Code: 0, Msg: ""},
		{SubID: 9, AppliedSeq: 1 << 40, Code: 0, Msg: ""},
		{SubID: ^uint64(0), AppliedSeq: 3, Code: CodeBadRequest, Msg: "label outside geometry"},
	} {
		got, err := UnmarshalLabelsApplied(MarshalLabelsApplied(la))
		if err != nil {
			t.Fatalf("round trip %+v: %v", la, err)
		}
		if got != la {
			t.Fatalf("round trip: got %+v, want %+v", got, la)
		}
	}
}

func TestLabelsAppliedHostile(t *testing.T) {
	full := MarshalLabelsApplied(LabelsApplied{SubID: 1, AppliedSeq: 2, Code: 0})
	for n := 0; n < labelsAppliedHeaderSize; n++ {
		if _, err := UnmarshalLabelsApplied(full[:n]); err == nil {
			t.Fatalf("accepted %d-byte LABELS_APPLIED", n)
		}
		if !strings.Contains(mustErr(t, full[:n]), "LABELS_APPLIED") {
			t.Fatalf("error for %d bytes does not name the message", n)
		}
	}
}

func mustErr(t *testing.T, b []byte) string {
	t.Helper()
	_, err := UnmarshalLabelsApplied(b)
	if err == nil {
		t.Fatal("expected error")
	}
	return err.Error()
}

// FuzzReadStreamLabels drives arbitrary bytes through both feedback
// decoders: errors, never panics, and anything accepted re-marshals
// byte-identically (the decoders neither invent nor drop bytes).
func FuzzReadStreamLabels(f *testing.F) {
	f.Add(MarshalStreamLabels(StreamLabels{SubID: 1, Labels: region.List{{X: 1, Y: 2, W: 3, H: 4, Stride: 1}}}))
	f.Add(MarshalStreamLabels(StreamLabels{SubID: ^uint64(0)}))
	f.Add(MarshalLabelsApplied(LabelsApplied{SubID: 3, AppliedSeq: 17}))
	f.Add(MarshalLabelsApplied(LabelsApplied{SubID: 3, Code: CodeBadRequest, Msg: "no"}))
	hostile := MarshalStreamLabels(StreamLabels{SubID: 2, Labels: region.List{{W: 1, H: 1}}})
	for i := streamLabelsHeaderSize; i < streamLabelsHeaderSize+4; i++ {
		hostile[i] = 0xff // label count at its uint32 max
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if sl, err := UnmarshalStreamLabels(data); err == nil {
			if got := MarshalStreamLabels(sl); !bytes.Equal(got, data) {
				t.Fatalf("STREAM_LABELS re-marshal differs: %d bytes in, %d out", len(data), len(got))
			}
		}
		if la, err := UnmarshalLabelsApplied(data); err == nil {
			if got := MarshalLabelsApplied(la); !bytes.Equal(got, data) {
				t.Fatalf("LABELS_APPLIED re-marshal differs: %d bytes in, %d out", len(data), len(got))
			}
		}
	})
}
