package server

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// TestSessionLastEncodedAliasingRegression mirrors the rpx-level aliasing
// regression through the manager: a frame returned by Session.LastEncoded is
// the caller's — later captures by the session must never rewrite it.
func TestSessionLastEncodedAliasingRegression(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 64, H: 48, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	labels := region.List{
		{X: 2, Y: 2, W: 30, H: 20, Stride: 1, Skip: 1},
		{X: 36, Y: 8, W: 20, H: 32, Stride: 2, Skip: 1},
	}
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Capture(testFrame(64, 48, frame.Gray8, 0)); err != nil {
		t.Fatal(err)
	}
	held, err := sess.LastEncoded()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := held.AppendTo(nil)
	enc, err := sess.LastEncodedTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, snapshot) {
		t.Fatal("LastEncodedTo bytes differ from the LastEncoded frame")
	}

	for i := 1; i <= 12; i++ {
		if _, err := sess.Capture(testFrame(64, 48, frame.Gray8, i*7)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held.AppendTo(nil), snapshot) {
		t.Fatal("frame returned by Session.LastEncoded was mutated by later captures")
	}
	if !bytes.Equal(enc, snapshot) {
		t.Fatal("bytes returned by Session.LastEncodedTo were mutated by later captures")
	}
}

// TestSessionConcurrentCaptureEncodedStream drives one session from three
// sides at once — a producer capturing frames, a reader pulling serialized
// frames via LastEncodedTo, and a push subscriber draining its buffer — to
// let the race detector check the borrow-under-lock serialization paths.
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
	sub, _, err := sess.Subscribe(64, 4)
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
		var scratch []byte
		for {
			enc, err := sess.LastEncodedTo(scratch[:0])
			if err != nil {
				return // session closed
			}
			scratch = enc
			if len(enc) == 0 {
				t.Error("LastEncodedTo returned empty bytes")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var enc []byte
		for {
			items, _, ok := sub.Next()
			if !ok {
				return
			}
			for _, it := range items {
				// Read the whole pinned frame while captures go on.
				if enc = it.ef.AppendTo(enc[:0]); len(enc) == 0 {
					t.Error("published frame has empty encoding")
					return
				}
			}
			release(items)
			sub.Grant(len(items))
		}
	}()
	wg.Wait()
}
