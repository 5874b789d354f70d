package server

import (
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// TestSessionConcurrentCaptureEncodedStream drives one session from three
// sides at once — a producer capturing frames, a reader decoding the newest
// frame via Decoded, and a push subscriber draining its buffer — to let the
// race detector check the borrow-under-lock serialization paths.
func TestSessionConcurrentCaptureEncodedStream(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	labels := region.List{{X: 4, Y: 4, W: 48, H: 36, Stride: 1, Skip: 1}}
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Capture(testFrame(64, 48, frame.Gray8, 0)); err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(64, 4)
	if err != nil {
		t.Fatal(err)
	}

	const frames = 60
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 1; i <= frames; i++ {
			if _, err := sess.Capture(testFrame(64, 48, frame.Gray8, i)); err != nil {
				t.Error(err)
				return
			}
		}
		sess.Close() // seals the subscription; the drainer sees end-of-stream
	}()
	go func() {
		defer wg.Done()
		for {
			fr, err := sess.Decoded()
			if err != nil {
				return // session closed
			}
			if fr.W != 64 || fr.H != 48 {
				t.Errorf("Decoded returned a %dx%d frame, want 64x48", fr.W, fr.H)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var enc []byte
		for {
			frames, _, ok := sub.Next()
			if !ok {
				return
			}
			for _, ef := range frames {
				// Read the whole pinned frame while captures go on.
				if enc = ef.AppendTo(enc[:0]); len(enc) == 0 {
					t.Error("published frame has empty encoding")
					return
				}
			}
			release(frames)
			sub.Grant(len(frames))
		}
	}()
	wg.Wait()
}
