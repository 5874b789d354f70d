package rpx

import (
	"sync"
	"testing"
)

// TestStatsConcurrentWithCapture exercises the documented concurrency
// contract: operations stay on one goroutine while Stats, EncoderStats, and
// DecoderStats are polled from monitoring goroutines. Run under -race this
// verifies the snapshot path is data-race free.
func TestStatsConcurrentWithCapture(t *testing.T) {
	sys, err := NewSystem(96, 64, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels([]RegionLabel{{X: 8, Y: 8, W: 48, H: 32, Stride: 2, Skip: 2}}); err != nil {
		t.Fatal(err)
	}

	const frames = 64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastFrames int
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := sys.Stats()
				if st.FramesCaptured < lastFrames {
					t.Errorf("FramesCaptured went backwards: %d -> %d", lastFrames, st.FramesCaptured)
					return
				}
				lastFrames = st.FramesCaptured
				_ = sys.EncoderStats()
				_ = sys.DecoderStats()
			}
		}()
	}

	fr := NewFrame(96, 64, Gray8)
	for i := 0; i < frames; i++ {
		for j := range fr.Pix {
			fr.Pix[j] = byte(i + j)
		}
		if _, err := sys.Capture(fr); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if i%8 == 0 {
			if _, err := sys.Decoded(); err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got := sys.Stats().FramesCaptured; got != frames {
		t.Fatalf("FramesCaptured = %d, want %d", got, frames)
	}
	if got := sys.EncoderStats().FramesEncoded; got != frames {
		t.Fatalf("EncoderStats().FramesEncoded = %d, want %d", got, frames)
	}
	if sys.DecoderStats().PixelsRequested == 0 {
		t.Fatal("DecoderStats snapshot never updated")
	}
}
