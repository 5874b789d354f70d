package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
)

// TestMessageWriterFramingMatchesWriteMessage pins MessageWriter to the
// exact bytes the plain WriteMessage emits.
func TestMessageWriterFramingMatchesWriteMessage(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		var want, got bytes.Buffer
		if err := WriteMessage(&want, MsgCapture, p, 0); err != nil {
			t.Fatal(err)
		}
		mw := NewMessageWriter(&got)
		if err := mw.WriteMessage(MsgCapture, p, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("payload len %d: MessageWriter framing differs", len(p))
		}
	}
	mw := NewMessageWriter(io.Discard)
	if err := mw.WriteMessage(MsgCapture, make([]byte, 100), 10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: got %v, want ErrTooLarge", err)
	}
}

// TestMessageWriterConcurrentWritersNoTearing is the torn-write regression:
// it forces the interleaving the old two-Write framing allowed. Several
// goroutines write messages through one shared writer to a net.Pipe whose
// reader byte-checks every frame. Routing the same workload through bare
// WriteMessage calls on a shared conn interleaves header and payload bytes
// of different messages (that is exactly the FRAME_PUSH publisher vs.
// reply writer hazard); the MessageWriter must deliver every message intact.
func TestMessageWriterConcurrentWritersNoTearing(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 64
		totalMsgs  = writers * perWriter
		maxPayload = 1 << 16
	)
	cw, cr := net.Pipe()
	mw := NewMessageWriter(cw)

	type rxErr struct{ err error }
	done := make(chan rxErr, 1)
	counts := make([]int, writers)
	go func() {
		br := cr
		for i := 0; i < totalMsgs; i++ {
			typ, payload, err := ReadMessage(br, maxPayload)
			if err != nil {
				done <- rxErr{err}
				return
			}
			w := int(typ) - 100
			if w < 0 || w >= writers {
				done <- rxErr{errors.New("message type corrupted")}
				return
			}
			// Writer w sends payloads of length w*31+1 filled with byte w.
			if len(payload) != w*31+1 {
				done <- rxErr{errors.New("payload length torn across messages")}
				return
			}
			for _, b := range payload {
				if b != byte(w) {
					done <- rxErr{errors.New("payload bytes interleaved between writers")}
					return
				}
			}
			counts[w]++
		}
		done <- rxErr{nil}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, w*31+1)
			for i := 0; i < perWriter; i++ {
				if err := mw.WriteMessage(byte(100+w), payload, maxPayload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res := <-done
	cw.Close()
	cr.Close()
	if res.err != nil {
		t.Fatalf("reader: %v", res.err)
	}
	for w, c := range counts {
		if c != perWriter {
			t.Fatalf("writer %d: reader saw %d of %d messages", w, c, perWriter)
		}
	}
}

// TestReadMessageHostileLength is the over-allocation regression: a header
// claiming a payload near the cap followed by a short body must fail after
// at most one readChunk of growth, never allocate the claimed length up
// front.
func TestReadMessageHostileLength(t *testing.T) {
	// Claim 30 MiB, deliver 3 bytes.
	hostile := []byte{0x00, 0x00, 0xE0, 0x01, MsgCapture, 1, 2, 3}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := ReadMessage(bytes.NewReader(hostile), DefaultMaxPayload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated hostile-length message did not error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*readChunk {
		t.Fatalf("hostile length prefix forced %d bytes of allocation, cap is one %d chunk", grew, readChunk)
	}
	// The reusable-buffer variant must behave identically and leave the
	// buffer usable.
	var buf []byte
	if _, _, err := ReadMessageInto(bytes.NewReader(hostile), &buf, DefaultMaxPayload); err == nil {
		t.Fatal("ReadMessageInto accepted truncated hostile-length message")
	}
	var good bytes.Buffer
	if err := WriteMessage(&good, MsgAck, []byte{9, 9}, 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadMessageInto(bytes.NewReader(good.Bytes()), &buf, 0)
	if err != nil || typ != MsgAck || !bytes.Equal(payload, []byte{9, 9}) {
		t.Fatalf("buffer unusable after hostile read: typ=%d payload=%v err=%v", typ, payload, err)
	}
}

// TestReadMessageIntoReuse proves consecutive reads land in the same
// backing array (the per-connection buffer contract).
func TestReadMessageIntoReuse(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 4; i++ {
		if err := WriteMessage(&stream, MsgCapture, bytes.Repeat([]byte{byte(i)}, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	r := bytes.NewReader(stream.Bytes())
	var first []byte
	for i := 0; i < 4; i++ {
		_, payload, err := ReadMessageInto(r, &buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = payload
			continue
		}
		if &payload[0] != &first[0] {
			t.Fatalf("read %d allocated a new buffer instead of reusing", i)
		}
		for _, b := range payload {
			if b != byte(i) {
				t.Fatalf("read %d returned stale bytes", i)
			}
		}
	}
}

// TestAllocsWirePath pins the pooled wire hot path at zero steady-state
// allocations: Append* marshaling into scratch, MessageWriter framing, and
// ReadMessageInto with a reused buffer.
func TestAllocsWirePath(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 2048)
	mw := NewMessageWriter(io.Discard)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := mw.WriteMessage(MsgCapture, payload, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("MessageWriter.WriteMessage allocates %v per message, want 0", allocs)
	}

	scratch := make([]byte, 0, 4096)
	ack := CaptureAck{FrameIndex: 9, EncodedPixels: 64, EncodedBytes: 64, PixelFraction: 0.25}
	push := FramePush{SubID: 3, Frames: []PushFrame{{Seq: 4, Stats: ack, Enc: payload[:512]}}}
	if allocs := testing.AllocsPerRun(200, func() {
		scratch = AppendCaptureAck(scratch[:0], ack)
		scratch = AppendError(scratch[:0], CodeBadRequest, "no")
		scratch = AppendFramePush(scratch[:0], push)
	}); allocs != 0 {
		t.Fatalf("Append marshalers allocate %v per run into sized scratch, want 0", allocs)
	}

	// The zero-copy push path: headers appended into scratch, a batch split
	// by PushFit, and a vectored write of the headers interleaved with the
	// frames' own bytes.
	frames := [][]byte{payload[:512], payload[512:600], payload[600:]}
	parts := make([][]byte, 0, 2*len(frames))
	if allocs := testing.AllocsPerRun(200, func() {
		n := PushFit(len(frames), func(i int) int { return len(frames[i]) }, 0)
		scratch = AppendFramePushHeader(scratch[:0], 3, 1, n)
		for i := 0; i < n; i++ {
			scratch = AppendPushRecordHeader(scratch, uint64(i), ack, len(frames[i]))
		}
		parts = parts[:0]
		start := framePushHeaderSize
		parts = append(parts, scratch[:start])
		for i := 0; i < n; i++ {
			parts = append(parts, scratch[start:start+pushRecordHeaderSize], frames[i])
			start += pushRecordHeaderSize
		}
		if err := mw.WriteMessageVec(MsgFramePush, parts, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("vectored FRAME_PUSH write allocates %v per message, want 0", allocs)
	}

	var framed bytes.Buffer
	if err := WriteMessage(&framed, MsgCapture, payload, 0); err != nil {
		t.Fatal(err)
	}
	msg := framed.Bytes()
	r := bytes.NewReader(msg)
	buf := make([]byte, 0, 4096)
	// Warm the buffer to steady state.
	if _, _, err := ReadMessageInto(r, &buf, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		r.Reset(msg)
		if _, _, err := ReadMessageInto(r, &buf, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadMessageInto allocates %v per message at steady state, want 0", allocs)
	}
}
