package core

import (
	"bytes"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// poolTestLabels is a mixed workload: full-stride region, strided region,
// temporally skipped region, plus uncovered background.
func poolTestLabels() region.List {
	return region.List{
		{X: 4, Y: 4, W: 24, H: 16, Stride: 1, Skip: 1},
		{X: 40, Y: 10, W: 16, H: 30, Stride: 2, Skip: 1},
		{X: 8, Y: 36, W: 32, H: 12, Stride: 1, Skip: 2},
	}
}

func poolTestFrame(w, h, seed int) *frame.Frame {
	fr := frame.New(w, h, frame.Gray8)
	for i := range fr.Pix {
		fr.Pix[i] = byte(seed*31 + i*7)
	}
	return fr
}

// TestFramePoolRecycleByteIdentical proves a recycled frame encodes
// byte-identically to a fresh one even when the recycled buffers held a
// different (dirty) frame before reuse.
func TestFramePoolRecycleByteIdentical(t *testing.T) {
	const w, h = 64, 48
	mk := func(pool *FramePool) *Encoder {
		enc := NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(poolTestLabels()); err != nil {
			t.Fatal(err)
		}
		enc.SetFramePool(pool)
		return enc
	}
	pool := &FramePool{}
	pooled := mk(pool)
	reference := mk(nil)

	var recycled *EncodedFrame
	for i := 0; i < 10; i++ {
		fr := poolTestFrame(w, h, i)
		got, err := pooled.EncodeFrame(fr, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.EncodeFrame(fr, i)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && got != recycled {
			t.Fatalf("frame %d: pool did not recycle the returned frame", i)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
			t.Fatalf("frame %d: pooled encode differs from fresh encode", i)
		}
		// Scribble over the frame before recycling: the next Get must fully
		// clear it.
		for p := range got.Pix {
			got.Pix[p] = 0xAA
		}
		got.Mask.Fill(0, got.Mask.Len(), 3)
		pool.Put(got)
		recycled = got
	}
}

// TestFramePoolGeometryMismatch proves the pool never hands back storage
// sized for a different session geometry.
func TestFramePoolGeometryMismatch(t *testing.T) {
	pool := &FramePool{}
	a := pool.Get(32, 24, 1)
	pool.Put(a)
	b := pool.Get(64, 48, 1)
	if b == a {
		t.Fatal("pool returned 32x24 storage for a 64x48 request")
	}
	if b.Mask.Len() != 64*48 || cap(b.RowOffsets) < 49 {
		t.Fatalf("fresh frame mis-sized: mask %d, offsets cap %d", b.Mask.Len(), cap(b.RowOffsets))
	}
}

// TestCloneAndCopyFromIndependence proves Clone/CopyFrom yield storage fully
// detached from the source.
func TestCloneAndCopyFromIndependence(t *testing.T) {
	const w, h = 64, 48
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(poolTestLabels()); err != nil {
		t.Fatal(err)
	}
	src, err := enc.EncodeFrame(poolTestFrame(w, h, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	wire := src.AppendTo(nil)

	clone := src.Clone()
	var copied EncodedFrame
	copied.CopyFrom(src)

	// Trash the source in place.
	for i := range src.Pix {
		src.Pix[i] ^= 0xFF
	}
	for i := range src.RowOffsets {
		src.RowOffsets[i] += 1000
	}
	src.Mask.Fill(0, src.Mask.Len(), 0)

	if !bytes.Equal(clone.AppendTo(nil), wire) {
		t.Fatal("Clone shares storage with its source")
	}
	if !bytes.Equal(copied.AppendTo(nil), wire) {
		t.Fatal("CopyFrom shares storage with its source")
	}
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendToMatchesWriteTo pins AppendTo and EncodedSize to the WriteTo
// container byte for byte.
func TestAppendToMatchesWriteTo(t *testing.T) {
	const w, h = 64, 48
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(poolTestLabels()); err != nil {
		t.Fatal(err)
	}
	ef, err := enc.EncodeFrame(poolTestFrame(w, h, 3), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := ef.AppendTo(nil)
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("AppendTo differs from WriteTo: %d vs %d bytes", len(got), buf.Len())
	}
	if ef.EncodedSize() != len(got) {
		t.Fatalf("EncodedSize %d, serialized %d", ef.EncodedSize(), len(got))
	}
	back, err := ReadEncodedFrame(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.AppendTo(nil), got) {
		t.Fatal("round trip through ReadEncodedFrame not byte-identical")
	}
}

// TestAllocsEncodePooledSteadyState pins the pooled
// encode→history→recycle cycle — the per-capture hot path — at zero
// steady-state allocations.
func TestAllocsEncodePooledSteadyState(t *testing.T) {
	const w, h = 64, 48
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(poolTestLabels()); err != nil {
		t.Fatal(err)
	}
	pool := &FramePool{}
	enc.SetFramePool(pool)
	dec := NewDecoder(w, h, frame.Gray8)
	fr := poolTestFrame(w, h, 5)

	idx := 0
	capture := func() {
		ef, err := enc.EncodeFrame(fr, idx)
		if err != nil {
			t.Fatal(err)
		}
		evicted, err := dec.PushEvict(ef)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(evicted)
		idx++
	}
	// Warm up past the history depth so the ring wraps and eviction feeds
	// the pool.
	for i := 0; i < DefaultHistoryDepth+2; i++ {
		capture()
	}
	if allocs := testing.AllocsPerRun(50, capture); allocs != 0 {
		t.Fatalf("pooled capture cycle allocates %v per frame, want 0", allocs)
	}
}

// TestAllocsAppendToSteadyState pins RPXE serialization into a reused
// buffer at zero allocations.
func TestAllocsAppendToSteadyState(t *testing.T) {
	const w, h = 64, 48
	enc := NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(poolTestLabels()); err != nil {
		t.Fatal(err)
	}
	ef, err := enc.EncodeFrame(poolTestFrame(w, h, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, ef.EncodedSize())
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = ef.AppendTo(scratch[:0])
	}); allocs != 0 {
		t.Fatalf("AppendTo into sized scratch allocates %v per run, want 0", allocs)
	}
}
