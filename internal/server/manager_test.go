package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/region"
	"repro/rpx"
)

func testFrame(w, h int, f frame.Format, seed int) *frame.Frame {
	fr := frame.New(w, h, f)
	for i := range fr.Pix {
		fr.Pix[i] = byte(seed + i*3)
	}
	return fr
}

func TestSessionMatchesInProcessSystem(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 80, H: 60, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rpx.NewSystem(80, 60, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}

	labels := region.List{{X: 8, Y: 8, W: 40, H: 30, Stride: 2, Skip: 2}}
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fr := testFrame(80, 60, frame.Gray8, i)
		got, err := sess.Capture(fr)
		if err != nil {
			t.Fatalf("session capture %d: %v", i, err)
		}
		want, err := ref.Capture(fr)
		if err != nil {
			t.Fatalf("ref capture %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("capture stats %d = %+v, want %+v", i, got, want)
		}
		dGot, err := sess.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		dWant, err := ref.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		if !dGot.Equal(dWant) {
			t.Fatalf("decoded frame %d differs from in-process system", i)
		}
	}
}

// TestSessionSerializesOps: captures from many goroutines on one session
// all succeed — nothing queues or refuses them — and the session lock runs
// them one at a time, so each takes the next frame index exactly once.
func TestSessionSerializesOps(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	fr := testFrame(16, 16, frame.Gray8, 0)

	const goroutines, captures = 8, 20
	indices := make(chan int, goroutines*captures)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < captures; i++ {
				cs, err := sess.Capture(fr)
				if err != nil {
					t.Errorf("capture: %v", err)
					return
				}
				indices <- cs.FrameIndex
			}
		}()
	}
	wg.Wait()
	close(indices)
	seen := make([]int, goroutines*captures)
	for idx := range indices {
		if idx < 0 || idx >= len(seen) {
			t.Fatalf("frame index %d outside 0..%d", idx, len(seen)-1)
		}
		seen[idx]++
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("frame index %d taken %d times, want once", idx, n)
		}
	}
}

func TestSessionLimitAndClose(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	defer m.Close()
	s1, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("open above limit = %v, want ErrSessionLimit", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Capture(testFrame(8, 8, frame.Gray8, 0)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("capture after close = %v, want ErrSessionClosed", err)
	}
	// The freed slot must be reusable.
	if _, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("open after manager close = %v, want ErrManagerClosed", err)
	}
}

func TestOpenRejectsBadGeometry(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Open(SessionConfig{W: 0, H: 8, Format: frame.Gray8}); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestConcurrentSessionsIndependent(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	type geom struct {
		w, h int
		f    frame.Format
	}
	geoms := []geom{{32, 24, frame.Gray8}, {48, 48, frame.RGB24}, {64, 16, frame.Gray8}, {20, 20, frame.YUV444}}
	var wg sync.WaitGroup
	for gi, g := range geoms {
		wg.Add(1)
		go func(gi int, g geom) {
			defer wg.Done()
			sess, err := m.Open(SessionConfig{W: g.w, H: g.h, Format: g.f})
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			if err := sess.SetRegionLabels(region.List{region.FullFrame(g.w, g.h)}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				fr := testFrame(g.w, g.h, g.f, gi*100+i)
				if _, err := sess.Capture(fr); err != nil {
					t.Errorf("session %d capture %d: %v", gi, i, err)
					return
				}
				dec, err := sess.Decoded()
				if err != nil {
					t.Errorf("session %d decode %d: %v", gi, i, err)
					return
				}
				if !dec.Equal(fr) {
					t.Errorf("session %d frame %d: full-frame round trip mismatch", gi, i)
					return
				}
			}
		}(gi, g)
	}
	wg.Wait()

	snap := m.Snapshot()
	if snap.FramesCaptured != int64(len(geoms)*10) {
		t.Fatalf("FramesCaptured = %d, want %d", snap.FramesCaptured, len(geoms)*10)
	}
	if snap.DecodedFrames != int64(len(geoms)*10) {
		t.Fatalf("DecodedFrames = %d, want %d", snap.DecodedFrames, len(geoms)*10)
	}
	if snap.EncodedBytes == 0 {
		t.Fatal("EncodedBytes = 0")
	}
	cap := snap.OpLatency[OpCapture.String()]
	if cap.Count != uint64(len(geoms)*10) {
		t.Fatalf("capture latency count = %d, want %d", cap.Count, len(geoms)*10)
	}
	if cap.MeanNanos() <= 0 || cap.QuantileMicros(0.99) <= 0 {
		t.Fatalf("degenerate latency summary: %+v", cap)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.QuantileMicros(0.5) != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
	h.Observe(500 * time.Nanosecond) // bucket 0 (<= 1 µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (<= 4 µs)
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if s.MaxNanos != int64(100*time.Millisecond) {
		t.Fatalf("MaxNanos = %d", s.MaxNanos)
	}
	if s.Buckets[0] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if q := s.QuantileMicros(0.5); q != 4 {
		t.Fatalf("p50 = %d µs, want 4", q)
	}
	if q := s.QuantileMicros(1.0); q < 65536 {
		t.Fatalf("p100 = %d µs, want >= 65536 (100 ms bucket)", q)
	}
}

// TestOpenRejectionIsCheap asserts the resource-exhaustion fix: an Open
// rejected at the session limit must not construct the multi-MB rpx.System
// first. Admission is checked before construction, so the rejected path
// costs only a handful of small allocations.
func TestOpenRejectionIsCheap(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	defer m.Close()
	if _, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8}); err != nil {
		t.Fatal(err)
	}
	big := SessionConfig{W: 2048, H: 2048, Format: frame.RGB24}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Open(big); !errors.Is(err, ErrSessionLimit) {
			t.Fatalf("open above limit = %v, want ErrSessionLimit", err)
		}
	})
	// The 2048x2048 RGB24 pipeline alone needs a 12 MiB framebuffer; a
	// rejected open must stay in single-digit bookkeeping allocations.
	if allocs > 8 {
		t.Fatalf("rejected Open cost %.0f allocs, want <= 8", allocs)
	}
}

// TestSnapshotConcurrentWithOpenClose races stats scrapes against session
// churn: Snapshot copies the session list under the lock and reads
// per-session stats outside it, so the scrape must neither block churn nor
// trip the race detector reading a session that closes mid-scrape.
func TestSnapshotConcurrentWithOpenClose(t *testing.T) {
	m := NewManager(Config{MaxSessions: 32})
	defer m.Close()
	for i := 0; i < 8; i++ {
		if _, err := m.Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := m.Snapshot()
			if snap.SessionsOpen < 8 {
				t.Errorf("SessionsOpen = %d, want >= 8", snap.SessionsOpen)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Capture(testFrame(8, 8, frame.Gray8, i)); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	close(stop)
	<-snapDone
}
