package rpx

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// ownershipLabels mixes full-rate, strided, and temporally skipped regions
// so consecutive frames produce different encoded bytes.
func ownershipLabels() []RegionLabel {
	return []RegionLabel{
		{X: 2, Y: 2, W: 30, H: 20, Stride: 1, Skip: 1},
		{X: 36, Y: 8, W: 20, H: 32, Stride: 2, Skip: 1},
		{X: 6, Y: 30, W: 40, H: 14, Stride: 1, Skip: 2},
	}
}

func ownershipFrame(w, h, seed int) *Frame {
	fr := NewFrame(w, h, Gray8)
	for i := range fr.Pix {
		fr.Pix[i] = byte(seed*53 + i*13)
	}
	return fr
}

// TestLastEncodedAliasingRegression is the regression for the
// LastEncoded-returns-the-live-pointer bug: a caller-held frame was
// silently rewritten by later captures once buffer recycling reuses its
// storage. The held copy must stay byte-stable through arbitrarily many
// subsequent captures.
func TestLastEncodedAliasingRegression(t *testing.T) {
	const w, h = 64, 48
	sys, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels(ownershipLabels()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Capture(ownershipFrame(w, h, 0)); err != nil {
		t.Fatal(err)
	}
	held := sys.LastEncoded()
	snapshot := held.AppendTo(nil)

	// Push well past the history depth so the frame's storage would have
	// been recycled had LastEncoded leaked the live pointer.
	for i := 1; i <= 12; i++ {
		if _, err := sys.Capture(ownershipFrame(w, h, i)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held.AppendTo(nil), snapshot) {
		t.Fatal("frame returned by LastEncoded was mutated by later captures")
	}
	if err := held.Validate(); err != nil {
		t.Fatalf("held frame corrupted: %v", err)
	}
}

// TestBorrowLastEncodedSemantics pins the borrow contract: the borrowed
// pointer is the live frame (no copy), and it is only guaranteed stable
// until the next Capture.
func TestBorrowLastEncodedSemantics(t *testing.T) {
	const w, h = 64, 48
	sys, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels(ownershipLabels()); err != nil {
		t.Fatal(err)
	}
	if sys.BorrowLastEncoded() != nil || sys.LastEncoded() != nil {
		t.Fatal("non-nil encoded frame before any capture")
	}
	if _, err := sys.Capture(ownershipFrame(w, h, 1)); err != nil {
		t.Fatal(err)
	}
	borrowed := sys.BorrowLastEncoded()
	if borrowed != sys.BorrowLastEncoded() {
		t.Fatal("BorrowLastEncoded copied: successive borrows differ")
	}
	owned := sys.LastEncoded()
	if owned == borrowed {
		t.Fatal("LastEncoded returned the live pointer, not a copy")
	}
	if !bytes.Equal(owned.AppendTo(nil), borrowed.AppendTo(nil)) {
		t.Fatal("owned copy differs from the borrowed frame")
	}
	// Serializing the borrow before the next capture is the documented
	// zero-copy pattern; the bytes must match the owned copy.
	if !bytes.Equal(borrowed.AppendTo(nil), owned.AppendTo(nil)) {
		t.Fatal("borrowed serialization differs")
	}
}

// TestMutateAfterReturnDifferential is the ownership property pass: returned
// buffers are the caller's to trash. Mutating everything LastEncoded and
// DecodeWindow hand back between captures must leave the reference pipeline
// (same inputs, untouched outputs) byte-identical. Cell parN runs N
// subject/reference pairs at once on distinct scenes, so storage shared
// between Systems shows up as a divergence (or, under -race, a data race).
func TestMutateAfterReturnDifferential(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			for pair := 0; pair < par; pair++ {
				t.Run(fmt.Sprint(pair), func(t *testing.T) {
					t.Parallel()
					mutateAfterReturn(t, 100*pair)
				})
			}
		})
	}
}

// mutateAfterReturn runs one subject/reference pair over ten frames of the
// scene that starts at ownershipFrame seed scene, trashing every buffer the
// subject hands back.
func mutateAfterReturn(t *testing.T, scene int) {
	const w, h, frames = 64, 48, 10
	subject, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{subject, reference} {
		if err := sys.SetRegionLabels(ownershipLabels()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if _, err := subject.Capture(ownershipFrame(w, h, scene+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Capture(ownershipFrame(w, h, scene+i)); err != nil {
			t.Fatal(err)
		}

		got := subject.LastEncoded()
		want := reference.LastEncoded()
		if !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
			t.Fatalf("frame %d: subject diverged from reference", i)
		}

		gotFr, err := subject.DecodeWindow(4, 4, 40, 32)
		if err != nil {
			t.Fatal(err)
		}
		wantFr, err := reference.DecodeWindow(4, 4, 40, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotFr.Pix, wantFr.Pix) {
			t.Fatalf("frame %d: decoded window diverged", i)
		}

		// Trash every returned buffer; the next iteration proves the
		// pipeline did not share storage with us.
		for p := range got.Pix {
			got.Pix[p] ^= 0xFF
		}
		for p := range got.RowOffsets {
			got.RowOffsets[p] += 7
		}
		got.Mask.Fill(0, got.Mask.Len(), 3)
		for p := range gotFr.Pix {
			gotFr.Pix[p] ^= 0xFF
		}
	}
}

// TestAllocsCaptureSteadyState pins the capture hot path —
// encode into a recycled frame, history push, eviction back to the pool —
// at zero steady-state allocations.
func TestAllocsCaptureSteadyState(t *testing.T) {
	const w, h = 64, 48
	sys, err := NewSystem(w, h, Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels(ownershipLabels()); err != nil {
		t.Fatal(err)
	}
	fr := ownershipFrame(w, h, 3)
	capture := func() {
		if _, err := sys.Capture(fr); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past the history depth so eviction feeds the pool each frame.
	for i := 0; i < 8; i++ {
		capture()
	}
	if allocs := testing.AllocsPerRun(50, capture); allocs != 0 {
		t.Fatalf("steady-state Capture allocates %v per frame, want 0", allocs)
	}
}

// TestAllocsNewSystem pins a System's setup memory to what its geometry
// and labels need: an 8x8 Gray8 System costs well under 8 KiB. Register
// banks sized for all 1600 labels up front cost about 80 KB per System,
// and so per rpxd session.
func TestAllocsNewSystem(t *testing.T) {
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := NewSystem(8, 8, Gray8); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 8<<10 {
		t.Fatalf("NewSystem(8, 8, Gray8) allocates %d bytes, want at most 8 KiB", per)
	}
}
