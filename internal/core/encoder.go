package core

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// Encoder is the rhythmic pixel encoder (§4.1): a streaming block that
// intercepts the raster-scan pixel stream at the ISP output and forwards
// only pixels matching the stride and skip specification of some region.
//
// Architecture, mirroring Fig. 5:
//
//   - memory-mapped registers hold the y-sorted region label list
//     (SetRegionLabels);
//   - a Sequencer tracks the (row, pixel) location — here the PushRow /
//     per-pixel loop;
//   - once per row, the RoI Selector reduces the label list to the sublist
//     whose y-range covers the row;
//   - once per pixel, the Comparison Engine classifies the pixel into one of
//     the four EncMask codes;
//   - the Sampler forwards CodeR pixels to the packed output and the
//     metadata generators count per-row offsets and append EncMask codes.
//
// Pixels are classified with code precedence R > Sk > St > N (the numeric
// order of the 2-bit codes): a pixel covered by several regions takes the
// strongest classification any of them gives it.
//
// An Encoder is not safe for concurrent use.
type Encoder struct {
	w, h   int
	format frame.Format
	bpp    int

	labels region.List // y-sorted; the "memory-mapped register" contents

	// Per-frame streaming state.
	cur      *EncodedFrame
	row      int
	rowCodes []bitpack.Code // scratch: classification of the current row
	sublist  []int          // scratch: RoI Selector output (indices into labels)

	pool *FramePool // optional frame recycling; nil means allocate fresh

	stats EncoderStats
}

// EncoderStats counts the work the encoder performed, used by the scaling
// and ablation experiments (Table 5 discussion).
type EncoderStats struct {
	// FramesEncoded is the number of completed frames.
	FramesEncoded int
	// RowsProcessed is the number of raster rows consumed.
	RowsProcessed int
	// PixelsIn is the number of pixels consumed from the stream.
	PixelsIn int
	// PixelsOut is the number of pixels forwarded to the encoded frame.
	PixelsOut int
	// RoISelectorCompares counts y-range label examinations (once per row
	// per examined label; the sorted list allows early termination).
	RoISelectorCompares int
	// RegionPaintOps counts per-pixel classification writes while painting
	// row sublist regions (proportional to regional coverage, not W·regions).
	RegionPaintOps int
	// RowsWithNoRegions counts rows where the RoI selector emitted an empty
	// sublist and per-pixel comparison was skipped entirely.
	RowsWithNoRegions int
}

// NewEncoder returns an encoder for w x h frames of the given format.
func NewEncoder(w, h int, format frame.Format) *Encoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("core: invalid encoder dimensions %dx%d", w, h))
	}
	return &Encoder{
		w:        w,
		h:        h,
		format:   format,
		bpp:      formatBPP(format),
		rowCodes: make([]bitpack.Code, w),
	}
}

// SetRegionLabels installs a capture workload. The list is validated,
// cloned, and sorted by Y (the paper performs this pre-sort in the app
// runtime so the hardware RoI Selector can shortlist rows cheaply). Labels
// persist across frames until replaced.
func (e *Encoder) SetRegionLabels(ls region.List) error {
	if err := ls.Validate(e.w, e.h); err != nil {
		return err
	}
	e.labels = ls.Clone().SortByY()
	return nil
}

// Labels returns the installed y-sorted label list (shared storage; callers
// must not mutate it).
func (e *Encoder) Labels() region.List { return e.labels }

// Stats returns the accumulated work counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// ResetStats zeroes the work counters.
func (e *Encoder) ResetStats() { e.stats = EncoderStats{} }

// SetFramePool installs a frame-recycling pool that BeginFrame draws output
// frames from. Frames the caller is done with must be returned via
// pool.Put; a nil pool restores fresh allocation per frame.
func (e *Encoder) SetFramePool(p *FramePool) { e.pool = p }

// BeginFrame starts streaming a new frame with the given temporal index.
// Any partially streamed frame is discarded.
func (e *Encoder) BeginFrame(frameIndex int) {
	ef := e.pool.Get(e.w, e.h, e.bpp)
	ef.FrameIndex = frameIndex
	ef.RowOffsets = append(ef.RowOffsets, 0)
	e.cur = ef
	e.row = 0
}

// PushRow consumes one raster line of w*bpp bytes. Rows must arrive in
// order; pushing more than h rows or a missized row panics, as a hardware
// stream mismatch would be a wiring bug rather than a runtime condition.
func (e *Encoder) PushRow(line []byte) {
	if e.cur == nil {
		panic("core: PushRow before BeginFrame")
	}
	if e.row >= e.h {
		panic(fmt.Sprintf("core: row %d pushed to %d-row frame", e.row, e.h))
	}
	if len(line) != e.w*e.bpp {
		panic(fmt.Sprintf("core: row is %d bytes, want %d", len(line), e.w*e.bpp))
	}
	y := e.row
	e.stats.RowsProcessed++
	e.stats.PixelsIn += e.w

	e.sublist = rowSublist(e.labels, y, e.sublist, &e.stats)
	if len(e.sublist) == 0 {
		// Entire row is non-regional: skip per-pixel comparison entirely
		// (the paper's "the encoder saves work by skipping region
		// comparison entirely for those rows where there are no regions").
		e.stats.RowsWithNoRegions++
		e.cur.RowOffsets = append(e.cur.RowOffsets, e.cur.RowOffsets[y])
		e.row++
		return
	}

	paintRowCodes(e.labels, e.sublist, e.rowCodes, y, e.cur.FrameIndex, &e.stats)
	var count int
	e.cur.Pix, count = sampleRow(e.rowCodes, line, e.bpp, e.cur.Mask, y*e.w, e.cur.Pix)
	e.stats.PixelsOut += count
	e.cur.RowOffsets = append(e.cur.RowOffsets, e.cur.RowOffsets[y]+uint32(count))
	e.row++
}

// EndFrame completes the stream and returns the encoded frame. It panics if
// fewer than h rows were pushed.
func (e *Encoder) EndFrame() *EncodedFrame {
	if e.cur == nil {
		panic("core: EndFrame before BeginFrame")
	}
	if e.row != e.h {
		panic(fmt.Sprintf("core: EndFrame after %d of %d rows", e.row, e.h))
	}
	ef := e.cur
	e.cur = nil
	e.stats.FramesEncoded++
	return ef
}

// rowSublist is the RoI Selector (§4.1) in function form: it fills dst with
// the indices of labels whose y-range covers row y. The list must be
// y-sorted, so scanning stops at the first label starting below the row. It
// is shared by the sequential Encoder (the reference implementation) and the
// row-band workers of ParallelEncoder; any change here changes both.
func rowSublist(labels region.List, y int, dst []int, stats *EncoderStats) []int {
	dst = dst[:0]
	for i, l := range labels {
		stats.RoISelectorCompares++
		if l.Y > y {
			break
		}
		if l.RowInYRange(y) {
			dst = append(dst, i)
		}
	}
	return dst
}

// paintRowCodes is the Comparison Engine (§4.1) in function form: it paints
// row y's classification into codes (length frame-width) from the sublist.
// Painting per region interval costs O(sum of region widths) rather than
// O(W x regions); the R/St lattice distinction is a strided store. Pixels
// are classified with code precedence R > Sk > St > N. Shared by the
// sequential and parallel encoders.
func paintRowCodes(labels region.List, sublist []int, codes []bitpack.Code, y, frameIndex int, stats *EncoderStats) {
	clear(codes) // CodeN
	for _, li := range sublist {
		l := labels[li]
		span := codes[l.X : l.X+l.W]
		stats.RegionPaintOps += len(span)
		switch {
		case !l.ActiveAt(frameIndex):
			raiseCodes(span, bitpack.CodeSk)
		case l.Stride > 1 && (y-l.Y)%l.Stride != 0:
			// Row off the vertical stride lattice: all pixels strided.
			raiseCodes(span, bitpack.CodeSt)
		case l.Stride <= 1:
			span[0] = bitpack.CodeR // then fill by doubling copies
			for n := 1; n < len(span); n *= 2 {
				copy(span[n:], span[:n])
			}
		default:
			raiseCodes(span, bitpack.CodeSt)
			for x := 0; x < len(span); x += l.Stride {
				span[x] = bitpack.CodeR
			}
		}
	}
}

// The row kernels below step eight codes at a time: a []bitpack.Code holds
// one code per byte, so eight consecutive codes load as one little-endian
// word with a code in the low two bits of each byte lane.
const (
	laneBit0 = 0x0101010101010101 // bit 0 of every lane
	laneAllR = 0x0303030303030303 // CodeR in every lane
)

func loadCodes(c []bitpack.Code) uint64 {
	c = c[:8:8]
	return uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
		uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
}

func storeCodes(c []bitpack.Code, v uint64) {
	c = c[:8:8]
	c[0], c[1], c[2], c[3] = bitpack.Code(v), bitpack.Code(v>>8), bitpack.Code(v>>16), bitpack.Code(v>>24)
	c[4], c[5], c[6], c[7] = bitpack.Code(v>>32), bitpack.Code(v>>40), bitpack.Code(v>>48), bitpack.Code(v>>56)
}

// raiseCodes lifts every code of span below c to c (precedence painting);
// c is CodeSk or CodeSt. Per lane, Sk lifts every code but R (both bits
// set) to Sk, and St lifts only N (both bits clear) to St.
func raiseCodes(span []bitpack.Code, c bitpack.Code) {
	x := 0
	for ; len(span)-x >= 8; x += 8 {
		v := loadCodes(span[x:])
		if c == bitpack.CodeSk {
			v = v&(v>>1)&laneBit0 | 2*laneBit0
		} else {
			v |= ^(v | v>>1) & laneBit0
		}
		storeCodes(span[x:], v)
	}
	for ; x < len(span); x++ {
		span[x] = max(span[x], c)
	}
}

// sampleRow is the Sampler and metadata generator (§4.1) in function form:
// it writes row codes into mask at element maskBase (whose elements must
// still be CodeN) and appends the row's CodeR pixels from line, bpp bytes
// each, to pix — one copy per run of consecutive CodeR pixels. It returns
// the extended payload and the number of pixels appended. Shared by the
// sequential and parallel encoders.
func sampleRow(codes []bitpack.Code, line []byte, bpp int, mask *bitpack.Mask2, maskBase int, pix []byte) ([]byte, int) {
	mask.WriteRow(maskBase, codes)
	count := 0
	for x := 0; x < len(codes); {
		if len(codes)-x >= 8 {
			if v := loadCodes(codes[x:]); v&(v>>1)&laneBit0 == 0 { // no R among eight
				x += 8
				continue
			}
		}
		if codes[x] != bitpack.CodeR {
			x++
			continue
		}
		end := x + 1
		for len(codes)-end >= 8 && loadCodes(codes[end:]) == laneAllR {
			end += 8
		}
		for end < len(codes) && codes[end] == bitpack.CodeR {
			end++
		}
		pix = append(pix, line[x*bpp:end*bpp]...)
		count += end - x
		x = end
	}
	return pix, count
}

// EncodeFrame streams an entire frame through the encoder and returns the
// encoded result. The frame must match the encoder's dimensions and format.
func (e *Encoder) EncodeFrame(fr *frame.Frame, frameIndex int) (*EncodedFrame, error) {
	if fr.W != e.w || fr.H != e.h {
		return nil, fmt.Errorf("core: frame is %dx%d, encoder expects %dx%d", fr.W, fr.H, e.w, e.h)
	}
	if fr.Format != e.format {
		return nil, fmt.Errorf("core: frame format %v, encoder expects %v", fr.Format, e.format)
	}
	e.BeginFrame(frameIndex)
	stride := fr.Stride()
	for y := 0; y < e.h; y++ {
		e.PushRow(fr.Pix[y*stride : (y+1)*stride])
	}
	return e.EndFrame(), nil
}
