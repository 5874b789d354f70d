package core

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// This file is the reference oracle for the encoder's and the PMMU's
// EncMask kernels. The production kernels walk the mask by runs and by
// bytes; the oracle below walks it one pixel at a time, exactly as the
// encoder and PMMU did before those fast paths existed (the code is that
// implementation, lifted out of its methods). kernels_test.go compares the
// two on randomized and fuzzed workloads: containers, decoded pixels and
// every statistics counter must match. A suite that compares two uses of
// the production kernels, such as a window against the crop of a full
// decode, cannot catch a kernel bug, because both sides run those kernels.

// refEncoder is the per-pixel reference encoder: the RoI Selector, the
// Comparison Engine and the Sampler are the label-by-label and per-pixel
// originals.
type refEncoder struct {
	w, h     int
	bpp      int
	labels   region.List // y-sorted
	rowCodes []bitpack.Code
	sublist  []int
	stats    EncoderStats
}

func newRefEncoder(w, h int, format frame.Format) *refEncoder {
	return &refEncoder{w: w, h: h, bpp: formatBPP(format), rowCodes: make([]bitpack.Code, w)}
}

func (e *refEncoder) setRegionLabels(ls region.List) error {
	if err := ls.Validate(e.w, e.h); err != nil {
		return err
	}
	e.labels = ls.Clone().SortByY()
	return nil
}

// encodeFrame streams fr through the per-pixel pipeline.
func (e *refEncoder) encodeFrame(fr *frame.Frame, frameIndex int) *EncodedFrame {
	cur := (*FramePool)(nil).Get(e.w, e.h, e.bpp)
	cur.FrameIndex = frameIndex
	cur.RowOffsets = append(cur.RowOffsets, 0)
	stride := fr.Stride()
	for y := 0; y < e.h; y++ {
		line := fr.Pix[y*stride : (y+1)*stride]
		e.stats.RowsProcessed++
		e.stats.PixelsIn += e.w

		e.sublist = refRowSublist(e.labels, y, e.sublist, &e.stats)

		maskBase := y * e.w
		if len(e.sublist) == 0 {
			e.stats.RowsWithNoRegions++
			cur.RowOffsets = append(cur.RowOffsets, cur.RowOffsets[y])
			continue
		}

		codes := e.rowCodes
		refPaintRowCodes(e.labels, e.sublist, codes, y, cur.FrameIndex, &e.stats)

		// Sampler: forward CodeR pixels and emit metadata.
		count := 0
		for x := 0; x < e.w; x++ {
			c := codes[x]
			if c != bitpack.CodeN {
				cur.Mask.Set(maskBase+x, c)
			}
			if c == bitpack.CodeR {
				cur.Pix = append(cur.Pix, line[x*e.bpp:(x+1)*e.bpp]...)
				count++
			}
		}
		e.stats.PixelsOut += count
		cur.RowOffsets = append(cur.RowOffsets, cur.RowOffsets[y]+uint32(count))
	}
	e.stats.FramesEncoded++
	return cur
}

// refRowSublist is the RoI Selector examining labels one at a time,
// charging RoISelectorCompares per label as it goes.
func refRowSublist(labels region.List, y int, dst []int, stats *EncoderStats) []int {
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

// refPaintRowCodes is the per-pixel Comparison Engine, charging one
// RegionPaintOps per pixel written.
func refPaintRowCodes(labels region.List, sublist []int, codes []bitpack.Code, y, frameIndex int, stats *EncoderStats) {
	for i := range codes {
		codes[i] = bitpack.CodeN
	}
	for _, li := range sublist {
		l := labels[li]
		x1 := l.X + l.W
		switch {
		case !l.ActiveAt(frameIndex):
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if codes[x] < bitpack.CodeSk {
					codes[x] = bitpack.CodeSk
				}
			}
		case l.Stride > 1 && (y-l.Y)%l.Stride != 0:
			// Row off the vertical stride lattice: all pixels strided.
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if codes[x] < bitpack.CodeSt {
					codes[x] = bitpack.CodeSt
				}
			}
		default:
			for x := l.X; x < x1; x++ {
				stats.RegionPaintOps++
				if l.Stride <= 1 || (x-l.X)%l.Stride == 0 {
					codes[x] = bitpack.CodeR
				} else if codes[x] < bitpack.CodeSt {
					codes[x] = bitpack.CodeSt
				}
			}
		}
	}
}

// refPMMU is the per-pixel reference translator.
type refPMMU struct {
	history []*EncodedFrame // newest first
	stats   PMMUStats
}

// translateRow is the per-pixel TranslateRow: only byte-aligned all-N and
// all-R groups are translated as a unit; every other pixel is read,
// resolved and emitted on its own.
func (p *refPMMU) translateRow(y, x0, x1 int) ([]SubRequest, error) {
	f := p.history[0]
	if y < 0 || y >= f.H || x0 < 0 || x1 > f.W || x0 >= x1 {
		return nil, fmt.Errorf("core: run [%d,%d) of row %d outside %dx%d frame", x0, x1, y, f.W, f.H)
	}
	base := y * f.W

	nf := len(p.history)
	rCount := make([]int, nf)
	at := make([]int, nf)
	for i := range at {
		at[i] = -1 // cursor not yet initialized
	}
	advance := func(i, x int) int { // returns R-count before column x in frame i
		hf := p.history[i]
		if at[i] < 0 {
			rCount[i] = hf.Mask.CountRRange(base, base+x0)
			at[i] = x0
			p.stats.MetadataBitsRead += 2 * x0 // scratchpad row prefix scan
		}
		if x > at[i] {
			rCount[i] += hf.Mask.CountRRange(base+at[i], base+x)
			at[i] = x
		}
		return rCount[i]
	}

	var subs []SubRequest
	emit := func(s SubRequest) {
		// Merge with the previous sub-request when the run is contiguous in
		// both decoded and encoded space.
		if n := len(subs); n > 0 {
			prev := &subs[n-1]
			if prev.Code == s.Code && prev.Source == s.Source && prev.Y == s.Y &&
				prev.X+prev.Count == s.X &&
				(s.Source == SourceNone || prev.EncIndex+prev.Count == s.EncIndex) {
				prev.Count += s.Count
				return
			}
		}
		subs = append(subs, s)
		p.stats.SubRequests++
	}

	maskBytes := f.Mask.Bytes()
	for x := x0; x < x1; {
		if (base+x)&3 == 0 && x+4 <= x1 {
			switch maskBytes[(base+x)>>2] {
			case 0x00: // N N N N
				p.stats.MetadataBitsRead += 8
				emit(SubRequest{X: x, Y: y, Count: 4, Code: bitpack.CodeN, Source: SourceNone})
				x += 4
				continue
			case 0xFF: // R R R R
				p.stats.MetadataBitsRead += 8
				enc := int(f.RowOffsets[y]) + advance(0, x)
				emit(SubRequest{X: x, Y: y, Count: 4, Code: bitpack.CodeR, Source: 0, EncIndex: enc})
				x += 4
				continue
			}
		}
		code := f.Mask.Get(base + x)
		p.stats.MetadataBitsRead += 2
		switch code {
		case bitpack.CodeR:
			enc := int(f.RowOffsets[y]) + advance(0, x)
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeR, Source: 0, EncIndex: enc})
		case bitpack.CodeSt:
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSt, Source: SourceNone})
		case bitpack.CodeSk:
			resolved := false
			for i := 1; i < nf; i++ {
				hf := p.history[i]
				hcode := hf.Mask.Get(base + x)
				p.stats.MetadataBitsRead += 2
				if hcode == bitpack.CodeR {
					enc := int(hf.RowOffsets[y]) + advance(i, x)
					emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSk, Source: i, EncIndex: enc})
					resolved = true
					break
				}
				if hcode == bitpack.CodeSt {
					emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeSt, Source: SourceNone})
					resolved = true
					break
				}
			}
			if !resolved {
				emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeN, Source: SourceNone})
			}
		default: // CodeN
			emit(SubRequest{X: x, Y: y, Count: 1, Code: bitpack.CodeN, Source: SourceNone})
		}
		x++
	}
	return subs, nil
}

// refDecodeWindow is the window decode over the reference translator. It warms its line buffer up from the frame top, so a window
// equals the crop of the full-frame decode by construction.
func refDecodeWindow(history []*EncodedFrame, format frame.Format, x0, y0, w, h int, stats *DecoderStats) (*frame.Frame, error) {
	f := history[0]
	bpp := f.BytesPerPixel
	out := frame.New(w, h, format)
	pmmu := &refPMMU{history: history}
	fifo := newFIFOSampler(bpp, f.W)

	warmup := y0
	var discard DecoderStats
	rowBuf := make([]byte, f.W*bpp)
	prevMetaBits := 0
	for row := -warmup; row < h; row++ {
		subs, err := pmmu.translateRow(y0+row, 0, f.W)
		if err != nil {
			return nil, err
		}
		st := stats
		if row < 0 {
			st = &discard
		}
		st.SubRequests += len(subs)
		metaBits := pmmu.stats.MetadataBitsRead
		st.MetadataBitsRead += metaBits - prevMetaBits
		prevMetaBits = metaBits
		fifo.beginRow()
		if err := fifo.serviceRow(subs, history, 0, rowBuf, st); err != nil {
			return nil, err
		}
		fifo.commitRow(rowBuf)
		if row >= 0 {
			copy(out.Pix[row*out.Stride():(row+1)*out.Stride()], rowBuf[x0*bpp:(x0+w)*bpp])
		}
	}
	return out, nil
}
