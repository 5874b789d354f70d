package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/region"
)

// TestStreamLabelsRoundTrip: a STREAM_LABELS payload is exactly a
// SET_LABELS payload, so MarshalLabels' bytes sent as STREAM_LABELS come
// back through the framing and UnmarshalLabels unchanged.
func TestStreamLabelsRoundTrip(t *testing.T) {
	for _, labels := range []region.List{
		nil,
		{{X: 1, Y: 2, W: 3, H: 4, Stride: 1, Skip: 0, Phase: 0}},
		{
			{X: 0, Y: 0, W: 64, H: 48, Stride: 1, Skip: 3, Phase: 2},
			{X: 8, Y: 8, W: 16, H: 16, Stride: 4, Skip: 1, Phase: 1},
		},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, MsgStreamLabels, MarshalLabels(labels), 0); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadMessage(&buf, 0)
		if err != nil || typ != MsgStreamLabels {
			t.Fatalf("read back type %d, %v", typ, err)
		}
		if want := 4 + 28*len(labels); len(payload) != want {
			t.Fatalf("STREAM_LABELS of %d labels is %d bytes, want %d", len(labels), len(payload), want)
		}
		got, err := UnmarshalLabels(payload)
		if err != nil {
			t.Fatalf("round trip %+v: %v", labels, err)
		}
		if len(got) != len(labels) {
			t.Fatalf("round trip %+v: got %+v", labels, got)
		}
		for i := range labels {
			if got[i] != labels[i] {
				t.Fatalf("label %d: got %+v, want %+v", i, got[i], labels[i])
			}
		}
	}
}

// TestStreamLabelsHostile: the labels decoder a stream's STREAM_LABELS
// goes through rejects a payload too short for its count, an inflated
// count and trailing bytes, rather than ignoring them.
func TestStreamLabelsHostile(t *testing.T) {
	if _, err := UnmarshalLabels([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted a 3-byte label payload")
	}
	b := MarshalLabels(region.List{{W: 1, H: 1, Stride: 1}})
	b[0] = 0xff // count low byte
	if _, err := UnmarshalLabels(b); err == nil {
		t.Fatal("accepted a label payload with an inflated count")
	}
	if _, err := UnmarshalLabels(append(MarshalLabels(nil), 0xee)); err == nil {
		t.Fatal("accepted a label payload with trailing bytes")
	}
}

func TestLabelsAppliedRoundTrip(t *testing.T) {
	for _, la := range []LabelsApplied{
		{AppliedSeq: 0, Code: 0, Msg: ""},
		{AppliedSeq: 1 << 40, Code: 0, Msg: ""},
		{AppliedSeq: 3, Code: CodeBadRequest, Msg: "label outside geometry"},
	} {
		b := MarshalLabelsApplied(la)
		if want := 8 + 2 + len(la.Msg); len(b) != want {
			t.Fatalf("LABELS_APPLIED %+v is %d bytes, want %d", la, len(b), want)
		}
		got, err := UnmarshalLabelsApplied(b)
		if err != nil {
			t.Fatalf("round trip %+v: %v", la, err)
		}
		if got != la {
			t.Fatalf("round trip: got %+v, want %+v", got, la)
		}
	}
}

func TestLabelsAppliedHostile(t *testing.T) {
	full := MarshalLabelsApplied(LabelsApplied{AppliedSeq: 2, Code: 0})
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
// decoders — STREAM_LABELS, whose payload UnmarshalLabels decodes as it
// does SET_LABELS, and LABELS_APPLIED: errors, never panics, and anything
// accepted re-marshals byte-identically (the decoders neither invent nor
// drop bytes).
func FuzzReadStreamLabels(f *testing.F) {
	f.Add(MarshalLabels(region.List{{X: 1, Y: 2, W: 3, H: 4, Stride: 1}}))
	f.Add(MarshalLabels(nil))
	f.Add(MarshalLabelsApplied(LabelsApplied{AppliedSeq: 17}))
	f.Add(MarshalLabelsApplied(LabelsApplied{Code: CodeBadRequest, Msg: "no"}))
	hostile := MarshalLabels(region.List{{W: 1, H: 1}})
	for i := 0; i < 4; i++ {
		hostile[i] = 0xff // label count at its uint32 max
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if labels, err := UnmarshalLabels(data); err == nil {
			if got := MarshalLabels(labels); !bytes.Equal(got, data) {
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
