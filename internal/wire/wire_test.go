package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteMessage(&buf, MsgCapture, payload, 0); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	if err := WriteMessage(&buf, MsgDecode, nil, 0); err != nil {
		t.Fatalf("WriteMessage empty: %v", err)
	}
	typ, got, err := ReadMessage(&buf, 0)
	if err != nil || typ != MsgCapture || !bytes.Equal(got, payload) {
		t.Fatalf("ReadMessage = %d %v %v, want %d %v", typ, got, err, MsgCapture, payload)
	}
	typ, got, err = ReadMessage(&buf, 0)
	if err != nil || typ != MsgDecode || got != nil {
		t.Fatalf("ReadMessage empty = %d %v %v", typ, got, err)
	}
	if _, _, err := ReadMessage(&buf, 0); err != io.EOF {
		t.Fatalf("ReadMessage at end = %v, want io.EOF", err)
	}
}

func TestMessageSizeLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgCapture, make([]byte, 100), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("WriteMessage over cap = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes", buf.Len())
	}
	// A hostile length prefix must be rejected before allocation.
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr, 1<<31)
	hdr[4] = MsgCapture
	if _, _, err := ReadMessage(bytes.NewReader(hdr), 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadMessage hostile length = %v, want ErrTooLarge", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{W: 640, H: 480, Format: frame.RGB24}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatalf("UnmarshalHello: %v", err)
	}
	if got != h {
		t.Fatalf("hello round trip = %+v, want %+v", got, h)
	}
}

// TestHelloVersionNegotiation pins the single-revision contract: only a
// ProtoVersion HELLO is accepted, and every other version — including the
// retired revisions 1-9 in their own byte layouts — fails with the typed
// *VersionError rather than a stringly error.
func TestHelloVersionNegotiation(t *testing.T) {
	cur := MarshalHello(Hello{W: 64, H: 48, Format: frame.Gray8})
	if len(cur) != 17 {
		t.Fatalf("HELLO is %d bytes, want 17", len(cur))
	}
	if _, err := UnmarshalHello(cur); err != nil {
		t.Fatalf("v%d HELLO rejected: %v", ProtoVersion, err)
	}
	// Today's fields with a trailing u32 are the right version at the
	// wrong length: HELLO is matched exactly.
	if _, err := UnmarshalHello(binary.LittleEndian.AppendUint32(bytes.Clone(cur), 4)); err == nil {
		t.Fatal("21-byte HELLO at the current version accepted")
	}
	// helloAt rebuilds the HELLO at version v in today's layout; v9At in
	// the 21-byte layout of v9 and v8, which appended a u32 decoder history
	// depth to today's fields; v7At in the 26-byte layout of v7 and v1,
	// which appended a u32 queue depth (here 16) and a u8 block flag to
	// those. v2 to v6 appended a u32 parallelism field (here 2) to that,
	// and v4 and v5 a codec byte after it (1 = packed mask).
	helloAt := func(v uint32) []byte {
		b := append([]byte(nil), cur...)
		binary.LittleEndian.PutUint32(b[4:], v)
		return b
	}
	v9At := func(v, depth uint32) []byte {
		return binary.LittleEndian.AppendUint32(helloAt(v), depth)
	}
	v7At := func(v uint32) []byte {
		return append(binary.LittleEndian.AppendUint32(v9At(v, 4), 16), 1)
	}
	withPar := func(v uint32, codec ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(v7At(v), 2), codec...)
	}
	for _, tc := range []struct {
		name  string
		hello []byte
		got   uint32
	}{
		{"v1", v7At(1), 1},
		{"v2", withPar(2), 2},
		{"v3", withPar(3), 3},
		{"v4 raw", withPar(4, 0), 4},
		{"v4 packed", withPar(4, 1), 4},
		{"v5 raw", withPar(5, 0), 5},
		{"v5 packed", withPar(5, 1), 5},
		{"v6", withPar(6), 6},
		{"v7", v7At(7), 7},
		{"v8", v9At(8, 4), 8},
		// The depth that ended a v9 server with an out-of-memory error.
		{"v9 depth 1<<30", v9At(9, 1<<30), 9},
		{"next", helloAt(ProtoVersion + 1), ProtoVersion + 1},
		{"max", helloAt(0xffffffff), 0xffffffff},
	} {
		_, err := UnmarshalHello(tc.hello)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Errorf("%s: err = %v, want *VersionError", tc.name, err)
			continue
		}
		if ve.Got != tc.got {
			t.Errorf("%s: VersionError.Got = %d, want %d", tc.name, ve.Got, tc.got)
		}
	}
}

// TestHelloAckRoundTrip: HELLO_ACK has one 12-byte form; the 16- and
// 17-byte acknowledgments of retired revisions are rejected.
func TestHelloAckRoundTrip(t *testing.T) {
	want := HelloAck{SessionID: 9, MaxPayload: 1 << 20}
	b := MarshalHelloAck(want)
	if len(b) != 12 {
		t.Fatalf("HELLO_ACK is %d bytes, want 12", len(b))
	}
	got, err := UnmarshalHelloAck(b)
	if err != nil || got != want {
		t.Fatalf("ack round trip = %+v %v, want %+v", got, err, want)
	}
	for _, n := range []int{11, 16, 17} {
		if _, err := UnmarshalHelloAck(append(b, 6, 0, 0, 0, 1)[:n]); err == nil {
			t.Fatalf("%d-byte HELLO_ACK accepted", n)
		}
	}
	if _, err := UnmarshalHelloAck(MarshalHelloAck(HelloAck{SessionID: 9})); err == nil {
		t.Fatal("HELLO_ACK with zero payload cap accepted")
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	b := MarshalHello(Hello{W: 64, H: 64, Format: frame.Gray8})
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic err = %v", err)
	}
	bad = append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad[4:], ProtoVersion+7)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version err = %v", err)
	}
	bad = append([]byte(nil), b...)
	bad[16] = byte(frame.BayerRGGB)
	if _, err := UnmarshalHello(bad); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("bad format err = %v", err)
	}
	if _, err := UnmarshalHello(b[:10]); err == nil {
		t.Fatal("short hello accepted")
	}
	if _, err := UnmarshalHello(append(b, 0)); err == nil {
		t.Fatal("oversized hello accepted")
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := region.List{
		{X: 10, Y: 20, W: 100, H: 80, Stride: 2, Skip: 3, Phase: 1},
		{X: 0, Y: 0, W: 640, H: 480, Stride: 1, Skip: 1},
	}
	got, err := UnmarshalLabels(MarshalLabels(labels))
	if err != nil {
		t.Fatalf("UnmarshalLabels: %v", err)
	}
	if len(got) != len(labels) {
		t.Fatalf("got %d labels, want %d", len(got), len(labels))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d = %+v, want %+v", i, got[i], labels[i])
		}
	}
	if got, err := UnmarshalLabels(MarshalLabels(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty labels = %v %v", got, err)
	}
	// Count not matching payload size must fail, not over-read.
	b := MarshalLabels(labels)
	binary.LittleEndian.PutUint32(b, 99)
	if _, err := UnmarshalLabels(b); err == nil {
		t.Fatal("mismatched label count accepted")
	}
}

// TestLabelsCountOverflow is the regression test for the 32-bit length-check
// bypass: a crafted count chosen so that 4+n*labelSize wraps a 32-bit int
// back to the actual payload length would pass the framing check and reach
// the allocation with n in the hundreds of millions. The count must be
// bounded by what the payload can carry before any multiplication.
func TestLabelsCountOverflow(t *testing.T) {
	// 28*153391690+4 = 2^32+28, which truncates to 28 in a 32-bit int —
	// exactly the length of this one-label payload.
	b := MarshalLabels(region.List{{X: 1, Y: 2, W: 3, H: 4, Stride: 1, Skip: 1}})
	binary.LittleEndian.PutUint32(b, 153391690)
	if _, err := UnmarshalLabels(b); err == nil {
		t.Fatal("overflowing label count accepted")
	}
	// The same guard must catch every count the payload cannot carry, with
	// no allocation proportional to the claim.
	for _, n := range []uint32{2, 1 << 20, 0xffffffff} {
		binary.LittleEndian.PutUint32(b, n)
		if _, err := UnmarshalLabels(b); err == nil {
			t.Fatalf("count %d accepted for a one-label payload", n)
		}
	}
}

func TestFramePayloadSize(t *testing.T) {
	if got := FramePayloadSize(16, 8, frame.Gray8); got != 9+16*8 {
		t.Fatalf("FramePayloadSize(16,8,Gray8) = %d", got)
	}
	// The 32k×32k RGB24 worst case must not overflow: 3 GiB and change.
	if got := FramePayloadSize(1<<15, 1<<15, frame.RGB24); got != 9+3*(1<<30) {
		t.Fatalf("FramePayloadSize(32k,32k,RGB24) = %d", got)
	}
}

func TestCaptureAckRoundTrip(t *testing.T) {
	a := CaptureAck{FrameIndex: 41, EncodedPixels: 12345, EncodedBytes: 54321, PixelFraction: 0.375}
	got, err := UnmarshalCaptureAck(MarshalCaptureAck(a))
	if err != nil || got != a {
		t.Fatalf("capture ack round trip = %+v %v, want %+v", got, err, a)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	fr := frame.New(16, 8, frame.RGB24)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i * 7)
	}
	got, err := UnmarshalFrame(MarshalFrame(fr))
	if err != nil {
		t.Fatalf("UnmarshalFrame: %v", err)
	}
	if !got.Equal(fr) {
		t.Fatal("frame round trip mismatch")
	}
	// Pixel count must match header geometry.
	b := MarshalFrame(fr)
	if _, err := UnmarshalFrame(b[:len(b)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re, err := UnmarshalError(MarshalError(CodeUnavailable, "session closed"))
	if err != nil {
		t.Fatalf("UnmarshalError: %v", err)
	}
	if re.Code != CodeUnavailable || re.Message != "session closed" {
		t.Fatalf("remote error = %+v", re)
	}
	if !strings.Contains(re.Error(), "session closed") {
		t.Fatalf("Error() = %q", re.Error())
	}
	if _, err := UnmarshalError([]byte{1}); err == nil {
		t.Fatal("short error payload accepted")
	}
}
