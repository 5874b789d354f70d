package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

func TestSubscribeRoundTrip(t *testing.T) {
	s := Subscribe{Target: 42, Credit: 16, Batch: 4}
	got, err := UnmarshalSubscribe(MarshalSubscribe(s))
	if err != nil || got != s {
		t.Fatalf("subscribe round trip = %+v %v, want %+v", got, err, s)
	}
	// Zero credit is legal (frames drop until the first grant).
	if _, err := UnmarshalSubscribe(MarshalSubscribe(Subscribe{Target: 42})); err != nil {
		t.Fatalf("zero-credit subscribe rejected: %v", err)
	}
	// A stream connection has no session of its own for target 0 to name.
	if _, err := UnmarshalSubscribe(MarshalSubscribe(Subscribe{Credit: 1})); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := UnmarshalSubscribe(MarshalSubscribe(Subscribe{Target: 42, Credit: MaxCreditWindow + 1})); err == nil {
		t.Fatal("credit above window cap accepted")
	}
	if _, err := UnmarshalSubscribe(MarshalSubscribe(Subscribe{Target: 42, Batch: MaxBatch + 1})); err == nil {
		t.Fatal("batch above cap accepted")
	}
	if _, err := UnmarshalSubscribe(make([]byte, subscribeSize-1)); err == nil {
		t.Fatal("short subscribe accepted")
	}
}

// TestSubscribeCarriesProtocolVersion: SUBSCRIBE opens its connection, so
// it carries the magic and version HELLO does and is checked the same
// way: another version fails with *VersionError whatever its length (the
// 24-byte SUBSCRIBE of protocol 11 had today's layout), and the 16-byte
// SUBSCRIBE of protocol 10, which had no such prefix, is rejected.
func TestSubscribeCarriesProtocolVersion(t *testing.T) {
	cur := MarshalSubscribe(Subscribe{Target: 42, Credit: 4, Batch: 1})
	if len(cur) != 24 {
		t.Fatalf("SUBSCRIBE is %d bytes, want 24", len(cur))
	}
	for _, v := range []uint32{10, 11, ProtoVersion + 1} {
		b := bytes.Clone(cur)
		binary.LittleEndian.PutUint32(b[4:], v)
		for _, msg := range [][]byte{b, b[:12]} {
			var ve *VersionError
			if _, err := UnmarshalSubscribe(msg); !errors.As(err, &ve) || ve.Got != v {
				t.Fatalf("v%d SUBSCRIBE of %d bytes: err = %v, want *VersionError{Got: %d}", v, len(msg), err, v)
			}
		}
	}
	bad := bytes.Clone(cur)
	binary.LittleEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := UnmarshalSubscribe(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic err = %v", err)
	}
	v10 := binary.LittleEndian.AppendUint64(nil, 42)
	v10 = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(v10, 4), 1)
	if _, err := UnmarshalSubscribe(v10); err == nil {
		t.Fatal("protocol-10 SUBSCRIBE accepted")
	}
}

// TestCreditRoundTrip: CREDIT is one u32 grant of at least one credit.
func TestCreditRoundTrip(t *testing.T) {
	b := MarshalCredit(9)
	if len(b) != 4 {
		t.Fatalf("CREDIT is %d bytes, want 4", len(b))
	}
	if n, err := UnmarshalCredit(b); err != nil || n != 9 {
		t.Fatalf("credit round trip = %d %v, want 9", n, err)
	}
	if _, err := UnmarshalCredit(MarshalCredit(0)); err == nil {
		t.Fatal("zero-credit grant accepted")
	}
	// Protocol 11's CREDIT led with a u64 subscription id.
	for _, n := range []int{0, creditSize - 1, creditSize + 1, 12} {
		if _, err := UnmarshalCredit(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte credit accepted", n)
		}
	}
}

// TestFramePushRoundTrip: a FRAME_PUSH is a u64 dropped count, a u32
// record count, and per record a u32 length and the container bytes.
func TestFramePushRoundTrip(t *testing.T) {
	p := FramePush{
		Dropped: 2,
		Frames:  [][]byte{{1, 2, 3}, nil, bytes.Repeat([]byte{0xAB}, 100)},
	}
	b := MarshalFramePush(p)
	if want := 8 + 4 + 3*4 + 3 + 100; len(b) != want {
		t.Fatalf("FRAME_PUSH of 3 records is %d bytes, want %d", len(b), want)
	}
	got, err := UnmarshalFramePush(b)
	if err != nil {
		t.Fatalf("UnmarshalFramePush: %v", err)
	}
	if got.Dropped != p.Dropped || len(got.Frames) != len(p.Frames) {
		t.Fatalf("push header = %+v", got)
	}
	for i, enc := range p.Frames {
		if !bytes.Equal(got.Frames[i], enc) {
			t.Fatalf("frame %d = %v, want %v", i, got.Frames[i], enc)
		}
	}
	if got, err := UnmarshalFramePush(MarshalFramePush(FramePush{})); err != nil || len(got.Frames) != 0 {
		t.Fatalf("empty push = %+v %v", got, err)
	}
}

// TestFramePushHostileCounts pins the untrusted-input guarantees: batch
// counts and per-record encoded lengths the payload cannot carry must fail
// before any allocation proportional to the claim.
func TestFramePushHostileCounts(t *testing.T) {
	b := MarshalFramePush(FramePush{Frames: [][]byte{{9, 9}}})
	// Claimed count far beyond what the payload carries.
	for _, n := range []uint32{2, MaxBatch, 1 << 20, 0xffffffff} {
		bad := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(bad[8:], n)
		if _, err := UnmarshalFramePush(bad); err == nil {
			t.Fatalf("count %d accepted for a one-frame payload", n)
		}
	}
	// Hostile per-record encoded length overrunning the payload.
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad[framePushHeaderSize:], 0xfffffff0)
	if _, err := UnmarshalFramePush(bad); err == nil {
		t.Fatal("overrunning encoded length accepted")
	}
	// Truncated mid-record.
	if _, err := UnmarshalFramePush(b[:len(b)-1]); err == nil {
		t.Fatal("truncated push accepted")
	}
	// Trailing garbage after the declared batch.
	if _, err := UnmarshalFramePush(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// pushParts returns p's FRAME_PUSH payload as the parts of a vectored write,
// built the way a sender that never copies a frame builds them: every
// header from the appenders in one scratch, and each record's container
// passed through in pieces cut at random points (some empty).
func pushParts(p FramePush, rng *rand.Rand) [][]byte {
	scratch := AppendFramePushHeader(nil, p.Dropped, len(p.Frames))
	var cuts []int
	for _, enc := range p.Frames {
		scratch = AppendPushRecordHeader(scratch, len(enc))
		cuts = append(cuts, len(scratch))
	}
	var parts [][]byte
	start := 0
	for i, enc := range p.Frames {
		parts = append(parts, scratch[start:cuts[i]])
		start = cuts[i]
		for k := 0; k < 3; k++ {
			c := rng.Intn(len(enc) + 1)
			parts = append(parts, enc[:c])
			enc = enc[c:]
		}
		parts = append(parts, enc)
	}
	return parts
}

// randomPush returns a FRAME_PUSH of the given record lengths with a random
// dropped count and random bytes.
func randomPush(rng *rand.Rand, encLens []int) FramePush {
	p := FramePush{Dropped: uint64(rng.Intn(2)) * rng.Uint64()}
	for _, n := range encLens {
		enc := make([]byte, n)
		rng.Read(enc)
		p.Frames = append(p.Frames, enc)
	}
	return p
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestFramePushVectoredWrite pins the FRAME_PUSH framing to one definition.
// For batches of 1 to MaxBatch frames, the bytes a vectored write of the
// header appenders' output plus the frames' own bytes puts on a TCP
// connection (one writev) equal WriteMessage(MsgFramePush,
// MarshalFramePush(p)). A batch split by PushFit at a payload cap goes out
// as the same messages the server sent before it wrote frames in place —
// the longest run of records whose payload fits, at least one — and a
// single record over the cap fails with ErrTooLarge, writing nothing.
func TestFramePushVectoredWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := tcpPair(t)
	mw := NewMessageWriter(a)
	for n := 1; n <= MaxBatch; n++ {
		lens := make([]int, n)
		for i := range lens {
			lens[i] = rng.Intn(400)
		}
		p := randomPush(rng, lens)
		var want bytes.Buffer
		if err := WriteMessage(&want, MsgFramePush, MarshalFramePush(p), 0); err != nil {
			t.Fatal(err)
		}
		parts := pushParts(p, rng)
		errc := make(chan error, 1)
		go func() { errc <- mw.WriteMessageVec(MsgFramePush, parts, 0) }()
		got := make([]byte, want.Len())
		b.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("batch of %d: vectored write: %v", n, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("batch of %d: vectored FRAME_PUSH differs from WriteMessage(MarshalFramePush)", n)
		}
	}

	rec := func(encLen int) int { return pushRecordHeaderSize + encLen }
	two := framePushHeaderSize + 2*rec(100) // exactly two 100-byte records
	for _, tc := range []struct {
		name  string
		lens  []int
		max   int
		split []int // records per message
	}{
		{"all fit", []int{100, 100, 100}, 0, []int{3}},
		{"at the cap", []int{100, 100, 100, 100}, two, []int{2, 2}},
		{"one byte over", []int{100, 100, 100, 100}, two - 1, []int{1, 1, 1, 1}},
		{"uneven", []int{10, 100, 60, 100, 5}, two, []int{3, 2}},
		{"oversized alone", []int{10, 300, 10, 10}, two, []int{1, 1, 2}},
		{"oversized first", []int{300, 10}, two, []int{1, 1}},
		{"empty records", []int{0, 0, 0}, framePushHeaderSize + 2*rec(0), []int{2, 1}},
	} {
		p := randomPush(rng, tc.lens)
		var split []int
		for frames := p.Frames; len(frames) > 0; {
			n := PushFit(len(frames), func(i int) int { return len(frames[i]) }, tc.max)
			split = append(split, n)
			msg := FramePush{Dropped: p.Dropped, Frames: frames[:n]}
			payload := MarshalFramePush(msg)
			var got bytes.Buffer
			err := NewMessageWriter(&got).WriteMessageVec(MsgFramePush, pushParts(msg, rng), tc.max)
			if max := tc.max; max > 0 && len(payload) > max {
				if !errors.Is(err, ErrTooLarge) || got.Len() != 0 {
					t.Errorf("%s: %d-byte push over a %d cap: err %v, %d bytes written; want ErrTooLarge, none",
						tc.name, len(payload), max, err, got.Len())
				}
			} else {
				var want bytes.Buffer
				WriteMessage(&want, MsgFramePush, payload, 0)
				if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s: message of %d records: err %v, bytes equal %v", tc.name, n, err, bytes.Equal(got.Bytes(), want.Bytes()))
				}
			}
			frames = frames[n:]
		}
		if fmt.Sprint(split) != fmt.Sprint(tc.split) {
			t.Errorf("%s: split %v, want %v", tc.name, split, tc.split)
		}
	}
}
