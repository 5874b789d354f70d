package core

import "repro/internal/bitpack"

// framePoolCap bounds how many recycled frames a pool retains; beyond it,
// Put drops the frame for the GC. A capture pipeline holds at most
// history-depth frames in flight, so a small stack covers steady state.
const framePoolCap = 16

// FramePool recycles EncodedFrame storage (pixel payload, row-offset table,
// EncMask) between captures so the steady-state encode path performs zero
// allocations.
//
// Ownership contract: a frame handed to Put must no longer be referenced by
// anyone except readers holding a Pin — the next Get returns the same
// storage cleared for reuse. A pinned frame is the one exception Put
// checks for itself: it is left to the GC rather than recycled, so a
// reader on another goroutine (a lagging push writer) keeps intact bytes
// however long it holds the frame, and steady state, where pins are
// released before the frame is handed back, recycles as before. The
// pool is NOT safe for concurrent use; like the encoders it serves, it
// belongs to a single goroutine (in the service, the session worker). The
// zero value is ready to use, and a nil *FramePool is valid everywhere one
// is accepted, meaning "allocate fresh frames".
type FramePool struct {
	free []*EncodedFrame
}

// Get returns a frame cleared for encoding a w×h image at bpp bytes per
// pixel: Pix and RowOffsets are empty with retained capacity and every Mask
// element is CodeN (the encoders rely on that and only write non-N codes).
// Recycled frames with different geometry are discarded rather than resized.
func (p *FramePool) Get(w, h, bpp int) *EncodedFrame {
	if p != nil {
		for n := len(p.free); n > 0; n = len(p.free) {
			ef := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			if ef.W != w || ef.H != h || ef.BytesPerPixel != bpp {
				continue
			}
			ef.FrameIndex = 0
			ef.Pix = ef.Pix[:0]
			ef.RowOffsets = ef.RowOffsets[:0]
			ef.Mask.Reset()
			return ef
		}
	}
	return &EncodedFrame{
		W:             w,
		H:             h,
		BytesPerPixel: bpp,
		Pix:           nil,
		RowOffsets:    make([]uint32, 0, h+1),
		Mask:          bitpack.NewMask2(w * h),
	}
}

// Put hands a frame's storage back for reuse. ef must not be used (or
// reachable by any caller other than its pin holders) afterwards. Nil
// frames, nil pools and pinned frames are no-ops.
func (p *FramePool) Put(ef *EncodedFrame) {
	if p == nil || ef == nil || ef.Mask == nil || ef.Pinned() {
		return
	}
	if len(p.free) >= framePoolCap {
		return
	}
	p.free = append(p.free, ef)
}

// Len reports how many recycled frames the pool currently holds (testing
// and observability).
func (p *FramePool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
