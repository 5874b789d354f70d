package core

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

func TestStreamRoundTrip(t *testing.T) {
	const w, h = 32, 24
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{{X: 4, Y: 4, W: 16, H: 16, Stride: 1, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	var inputs []*frame.Frame
	for i := 0; i < 5; i++ {
		fr := testFrame(w, h, frame.Gray8, int64(100+i))
		inputs = append(inputs, fr)
		ef := mustEncode(t, enc, fr, i)
		if err := sw.WriteFrame(ef); err != nil {
			t.Fatal(err)
		}
	}
	if sw.FramesWritten() != 5 {
		t.Errorf("FramesWritten = %d", sw.FramesWritten())
	}

	// Replay: frame 0's region content must survive into skipped frames.
	n := 0
	err := DecodeStream(bytes.NewReader(buf.Bytes()), frame.Gray8, func(idx int, dec *frame.Frame) error {
		if idx != n {
			t.Errorf("frame index %d, want %d", idx, n)
		}
		src := inputs[idx]
		if idx%2 == 1 { // skipped frames show the previous capture
			src = inputs[idx-1]
		}
		if dec.Gray(10, 10) != src.Gray(10, 10) {
			t.Errorf("frame %d: decoded %d, want %d", idx, dec.Gray(10, 10), src.Gray(10, 10))
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("decoded %d frames", n)
	}
}

func TestStreamWriterRejectsGeometryChange(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	encA := NewEncoder(16, 16, frame.Gray8)
	efA := mustEncode(t, encA, frame.New(16, 16, frame.Gray8), 0)
	if err := sw.WriteFrame(efA); err != nil {
		t.Fatal(err)
	}
	encB := NewEncoder(8, 8, frame.Gray8)
	efB := mustEncode(t, encB, frame.New(8, 8, frame.Gray8), 1)
	if err := sw.WriteFrame(efB); err == nil {
		t.Error("geometry change accepted")
	}
}

func TestStreamReaderErrors(t *testing.T) {
	// Bad magic.
	if _, err := NewStreamReader(bytes.NewReader(make([]byte, 20))); err == nil {
		t.Error("bad magic accepted")
	}
	// Short header.
	if _, err := NewStreamReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short header accepted")
	}
	// Truncated mid-frame: error, not silent EOF.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	enc := NewEncoder(16, 16, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{region.FullFrame(16, 16)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteFrame(mustEncode(t, enc, frame.New(16, 16, frame.Gray8), 0)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	sr, err := NewStreamReader(bytes.NewReader(full[:len(full)-4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadFrame(); err == nil || err == io.EOF {
		t.Errorf("truncated frame: err = %v, want hard error", err)
	}
	// Clean end: exactly one frame then EOF.
	sr2, err := NewStreamReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr2.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr2.ReadFrame(); err != io.EOF {
		t.Errorf("stream end: err = %v, want io.EOF", err)
	}
	if sr2.FramesRead() != 1 {
		t.Errorf("FramesRead = %d", sr2.FramesRead())
	}
}

// Robustness: random single-byte corruptions of a valid container must
// produce an error or a differing frame — never a panic.
func TestReadEncodedFrameCorruptionRobust(t *testing.T) {
	enc := NewEncoder(24, 24, frame.Gray8)
	if err := enc.SetRegionLabels(region.List{{X: 2, Y: 2, W: 18, H: 18, Stride: 2, Skip: 2}}); err != nil {
		t.Fatal(err)
	}
	ef := mustEncode(t, enc, testFrame(24, 24, frame.Gray8, 200), 0)
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), orig...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d (byte %d): panic %v", trial, pos, r)
				}
			}()
			got, err := ReadEncodedFrame(bytes.NewReader(mut))
			if err != nil {
				return // rejected: fine
			}
			// Accepted: must still be internally consistent and decodable.
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d: accepted frame fails Validate: %v", trial, err)
			}
			dec := NewDecoder(got.W, got.H, frame.Gray8)
			if err := dec.Push(got); err != nil {
				return
			}
			if _, err := dec.DecodeFrame(); err != nil {
				return // decode error acceptable; panic is not
			}
		}()
	}
}

// Robustness: the PNM reader must not panic on arbitrary bytes.
func TestReadPNMGarbageRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		garbage := make([]byte, rng.Intn(300))
		rng.Read(garbage)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic %v", trial, r)
				}
			}()
			_, _ = frame.ReadPNM(bytes.NewReader(garbage))
		}()
	}
}

// TestAllocsDecodeStream pins DecodeStream's steady state: each frame is
// read into the buffers of the history frame it evicts and decoded into
// one reused output frame, so the allocations per frame do not depend on
// the frame's height. The workload is a 16-pixel RGB24 tile grid, skipped
// every other frame in a checkerboard and strided on every fourth tile
// row, so every frame holds the same number of pixels; at 1024 rows the
// payload is larger than one read chunk.
func TestAllocsDecodeStream(t *testing.T) {
	const w, frames, steady = 1024, 16, 8
	perFrame := func(h int) float64 {
		var labels region.List
		for y := 0; y < h; y += 16 {
			for x := 0; x < w; x += 16 {
				c, r := x/16, y/16
				labels = append(labels, region.Label{
					X: x, Y: y, W: 16, H: 16,
					Stride: 1 + r%4/3, Skip: 2, Phase: (c + r) % 2,
				})
			}
		}
		enc := NewEncoder(w, h, frame.RGB24)
		if err := enc.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		for i := 0; i < frames; i++ {
			if err := sw.WriteFrame(mustEncode(t, enc, testFrame(w, h, frame.RGB24, int64(i)), i)); err != nil {
				t.Fatal(err)
			}
		}
		// The collector's own bookkeeping can add an object now and then.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var ms runtime.MemStats
		var start uint64
		err := DecodeStream(bytes.NewReader(buf.Bytes()), frame.RGB24, func(idx int, _ *frame.Frame) error {
			if idx == steady || idx == frames-1 {
				runtime.ReadMemStats(&ms)
				if idx == steady {
					start = ms.Mallocs
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(ms.Mallocs-start) / float64(frames-1-steady)
	}
	short, tall := perFrame(256), perFrame(1024)
	if short != tall {
		t.Errorf("DecodeStream allocates %v objects per 256-row frame and %v per 1024-row frame, want the same", short, tall)
	}
	t.Logf("DecodeStream allocates %v objects per steady-state frame", tall)
}
