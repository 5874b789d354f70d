package core

import (
	"fmt"
	"slices"

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
//   - the Comparison Engine classifies each pixel of the row into one of
//     the four EncMask codes — but only for rows that classify unlike every
//     recently classified row of the frame (see rowEncoder): a row whose
//     sublist, and each strided label's lattice phase, match a remembered
//     row takes that row's codes instead, and rows with an empty sublist
//     are not compared at all;
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
	cur  *EncodedFrame
	row  int
	rows rowEncoder // per-row pipeline and the rows it remembers this frame

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
	// A row that reuses a remembered row's classification is charged what
	// painting it would have cost, so the count does not depend on reuse.
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
	return &Encoder{w: w, h: h, format: format, bpp: formatBPP(format), rows: rowEncoder{w: w}}
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
	e.rows.forget()
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
	e.rows.forget()
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
	var count int
	e.cur.Pix, count = e.rows.encodeRow(e.labels, y, e.cur.FrameIndex, line, e.bpp, e.cur.Mask, e.cur.Pix, &e.stats)
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
// is shared, through rowEncoder, by the Encoder and CountCodes; any change
// here changes both.
func rowSublist(labels region.List, y int, dst []int, stats *EncoderStats) []int {
	dst = dst[:0]
	i := 0
	for ; i < len(labels) && labels[i].Y <= y; i++ {
		if labels[i].RowInYRange(y) {
			dst = append(dst, i)
		}
	}
	// One compare per label examined, the first label below the row included.
	stats.RoISelectorCompares += min(i+1, len(labels))
	return dst
}

// paintRowCodes is the Comparison Engine (§4.1) in function form: it paints
// row y's classification into codes (length frame-width) from the sublist.
// Painting per region interval costs O(sum of region widths) rather than
// O(W x regions); the R/St lattice distinction is a strided store. Pixels
// are classified with code precedence R > Sk > St > N.
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

// appendRRuns is the Sampler's run finder: it appends the [x0, x1) column
// range of every run of consecutive CodeR codes to runs.
func appendRRuns(runs []int, codes []bitpack.Code) []int {
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
		runs = append(runs, x, end)
		x = end
	}
	return runs
}

// rowMemoDepth is how many classified rows a rowEncoder remembers. A
// strided label alternates the rows it covers between on and off its
// vertical lattice, so the last row that classified alike lies up to
// Stride rows above rather than one: remembering only the previous row
// would miss every row under an active stride-2 label, and
// region.MaxStride rows let rows under labels of every stride reuse.
const rowMemoDepth = region.MaxStride

// rowEncoder is the encoder's per-row pipeline — RoI Selector, Comparison
// Engine and Sampler — shared by the Encoder and CountCodes. It remembers
// the last rowMemoDepth rows it classified since forget. Within one frame,
// a row's codes are fixed by its sublist and, for each label in it, whether
// the label skips the frame, strides the row out (an active strided label
// off its vertical lattice) or samples its lattice columns; labels are
// rectangles, so most rows repeat one of the rows above. Such a row takes
// the remembered row's codes and replays its R runs against the new line,
// with no painting, packing or run scan.
type rowEncoder struct {
	w       int
	sublist []int // RoI Selector output (indices into labels)
	key     []int // the current row's classification key (see classify)
	rows    [rowMemoDepth]classifiedRow
	n, next int // rows remembered; the slot the next new row overwrites
}

// classifiedRow is one remembered row of the current frame.
type classifiedRow struct {
	y        int            // the row it was painted on
	key      []int          // per sublist label: index<<1 | strided-out bit
	codes    []bitpack.Code // its EncMask codes, one per pixel
	runs     []int          // its R runs as [x0, x1) column pairs
	count    int            // its R pixels
	paintOps int            // RegionPaintOps painting it cost
}

// forget drops the remembered rows: a new frame can change which labels
// are active, and a new label list renumbers the sublist.
func (s *rowEncoder) forget() { s.n, s.next = 0, 0 }

// classify runs the RoI Selector on row y and returns the slot of s.rows
// holding the row's classification: a remembered row that classifies
// alike (hit), or the oldest slot, painted afresh, whose runs and count
// the caller must then fill in. It returns -1 when no label covers the row.
// RoISelectorCompares, RegionPaintOps and RowsWithNoRegions are charged
// to stats, the same on a hit as on a miss.
func (s *rowEncoder) classify(labels region.List, y, frameIndex int, stats *EncoderStats) (slot int, hit bool) {
	s.sublist = rowSublist(labels, y, s.sublist, stats)
	if len(s.sublist) == 0 {
		// Entire row is non-regional: skip per-pixel comparison entirely
		// (the paper's "the encoder saves work by skipping region
		// comparison entirely for those rows where there are no regions").
		stats.RowsWithNoRegions++
		return -1, false
	}
	s.key = s.key[:0]
	for _, li := range s.sublist {
		l := labels[li]
		off := 0
		if l.Stride > 1 && (y-l.Y)%l.Stride != 0 && l.ActiveAt(frameIndex) {
			off = 1
		}
		s.key = append(s.key, li<<1|off)
	}
	for i := 1; i <= s.n; i++ { // newest first
		slot = (s.next - i + rowMemoDepth) % rowMemoDepth
		if r := &s.rows[slot]; slices.Equal(r.key, s.key) {
			stats.RegionPaintOps += r.paintOps
			return slot, true
		}
	}
	slot = s.next
	s.next = (s.next + 1) % rowMemoDepth
	s.n = min(s.n+1, rowMemoDepth)
	r := &s.rows[slot]
	r.key, s.key = s.key, r.key
	if len(r.codes) != s.w {
		r.codes = make([]bitpack.Code, s.w)
	}
	ops := stats.RegionPaintOps
	paintRowCodes(labels, s.sublist, r.codes, y, frameIndex, stats)
	r.y, r.paintOps = y, stats.RegionPaintOps-ops
	return slot, false
}

// encodeRow streams row y, of pixels line (bpp bytes each), through the
// pipeline: it writes the row's codes into mask, whose row elements must
// still be CodeN, and appends its CodeR pixels to pix — one copy per R run.
// It returns the extended payload and the number of pixels appended. A
// reused row on a frame whose rows start on mask bytes (w a multiple of 4)
// copies the remembered row's mask bytes; on other widths it packs the
// remembered codes.
func (s *rowEncoder) encodeRow(labels region.List, y, frameIndex int, line []byte, bpp int, mask *bitpack.Mask2, pix []byte, stats *EncoderStats) ([]byte, int) {
	stats.RowsProcessed++
	stats.PixelsIn += s.w
	slot, hit := s.classify(labels, y, frameIndex, stats)
	if slot < 0 {
		return pix, 0
	}
	r := &s.rows[slot]
	switch {
	case !hit:
		mask.WriteRow(y*s.w, r.codes)
		r.runs = appendRRuns(r.runs[:0], r.codes)
		r.count = 0
		for i := 0; i < len(r.runs); i += 2 {
			r.count += r.runs[i+1] - r.runs[i]
		}
	case s.w&3 == 0:
		b, n := mask.Bytes(), s.w>>2
		copy(b[y*n:(y+1)*n], b[r.y*n:(r.y+1)*n])
	default:
		mask.WriteRow(y*s.w, r.codes)
	}
	for i := 0; i < len(r.runs); i += 2 {
		pix = append(pix, line[r.runs[i]*bpp:r.runs[i+1]*bpp]...)
	}
	stats.PixelsOut += r.count
	return pix, r.count
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
