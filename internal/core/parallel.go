package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/frame"
	"repro/internal/region"
)

// This file implements the row-sharded parallel encode path. The paper's
// encoder is a spatially streaming block whose per-row work — RoI sublist
// selection, per-pixel classification, packing — depends only on the row
// index, the label list, and the frame index, never on other rows (reusing
// an earlier row's classification is a shortcut to the same result). That
// makes row bands the natural parallel decomposition: each worker encodes a
// contiguous band into private buffers, and a cheap sequential stitch
// prefix-sums the per-row pixel counts into the global RowOffsets table.
// The output is byte-for-byte identical to the sequential Encoder, which
// remains the reference implementation (see differential_test.go).

// bandAlign is the row granularity of encode shards. The EncMask packs four
// 2-bit codes per byte, so a band boundary at a multiple of four rows sits
// at element index y*w ≡ 0 (mod 4) — a byte boundary for any frame width —
// and every worker owns a disjoint byte range of the shared mask, keeping
// the read-modify-write of Mask2.WriteRow's partial bytes race-free.
const bandAlign = 4

// ParallelEncoder encodes frames by sharding rows across a pool of workers.
// It produces output byte-identical to the sequential Encoder for the same
// labels and frame. Like Encoder, a ParallelEncoder is not safe for
// concurrent use by multiple callers; the parallelism is internal to each
// EncodeFrame call.
type ParallelEncoder struct {
	w, h   int
	format frame.Format
	bpp    int
	n      int

	labels region.List

	bands   [][2]int // [y0, y1) row ranges, fixed at construction
	workers []*encodeWorker

	pool *FramePool // optional frame recycling; nil means allocate fresh

	stats EncoderStats
}

// encodeWorker holds one band worker's reusable scratch, so steady-state
// encoding allocates only the output frame.
type encodeWorker struct {
	rows    rowEncoder // reuses rows within the band only
	payload []byte     // packed CodeR pixels of the band, raster order
	counts  []uint32   // per-row CodeR pixel counts within the band
	stats   EncoderStats
}

// NewParallelEncoder returns an encoder for w x h frames of the given
// format that shards each frame into up to n row bands (n <= 0 selects
// GOMAXPROCS). n = 1 degenerates to a single band, i.e. sequential work
// with the parallel bookkeeping.
func NewParallelEncoder(w, h int, format frame.Format, n int) *ParallelEncoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("core: invalid encoder dimensions %dx%d", w, h))
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &ParallelEncoder{w: w, h: h, format: format, bpp: formatBPP(format), n: n}
	// Rows per band: ceil(h/n) rounded up to the mask alignment. The last
	// band may be short; band count never exceeds n.
	rows := (h + n - 1) / n
	rows = (rows + bandAlign - 1) / bandAlign * bandAlign
	for y := 0; y < h; y += rows {
		p.bands = append(p.bands, [2]int{y, min(y+rows, h)})
	}
	p.workers = make([]*encodeWorker, len(p.bands))
	for i := range p.workers {
		p.workers[i] = &encodeWorker{rows: rowEncoder{w: w}}
	}
	return p
}

// Parallelism returns the configured worker count.
func (p *ParallelEncoder) Parallelism() int { return p.n }

// Bands returns the number of row bands a frame is sharded into.
func (p *ParallelEncoder) Bands() int { return len(p.bands) }

// SetRegionLabels installs a capture workload, mirroring
// Encoder.SetRegionLabels: validated, cloned, y-sorted, persistent across
// frames until replaced.
func (p *ParallelEncoder) SetRegionLabels(ls region.List) error {
	if err := ls.Validate(p.w, p.h); err != nil {
		return err
	}
	p.labels = ls.Clone().SortByY()
	return nil
}

// Labels returns the installed y-sorted label list (shared storage; callers
// must not mutate it).
func (p *ParallelEncoder) Labels() region.List { return p.labels }

// Stats returns the accumulated work counters, summed across workers. The
// totals are identical to what the sequential Encoder reports for the same
// inputs: every counter is a per-row quantity and every row is processed
// exactly once.
func (p *ParallelEncoder) Stats() EncoderStats { return p.stats }

// ResetStats zeroes the work counters.
func (p *ParallelEncoder) ResetStats() { p.stats = EncoderStats{} }

// SetFramePool installs a frame-recycling pool that EncodeFrame draws output
// frames from. Frames the caller is done with must be returned via
// pool.Put; a nil pool restores fresh allocation per frame.
func (p *ParallelEncoder) SetFramePool(fp *FramePool) { p.pool = fp }

// EncodeFrame encodes an entire frame and returns the result. The frame
// must match the encoder's dimensions and format. Band workers run
// concurrently; the call returns after all bands are stitched.
func (p *ParallelEncoder) EncodeFrame(fr *frame.Frame, frameIndex int) (*EncodedFrame, error) {
	if fr.W != p.w || fr.H != p.h {
		return nil, fmt.Errorf("core: frame is %dx%d, encoder expects %dx%d", fr.W, fr.H, p.w, p.h)
	}
	if fr.Format != p.format {
		return nil, fmt.Errorf("core: frame format %v, encoder expects %v", fr.Format, p.format)
	}
	ef := p.pool.Get(p.w, p.h, p.bpp)
	ef.FrameIndex = frameIndex
	// Stitching fills every entry by index, so size the table up front; the
	// pool guarantees the capacity.
	ef.RowOffsets = ef.RowOffsets[:0]
	for i := 0; i <= p.h; i++ {
		ef.RowOffsets = append(ef.RowOffsets, 0)
	}
	stride := fr.Stride()

	if len(p.bands) == 1 {
		p.encodeBand(p.workers[0], fr, ef, frameIndex, p.bands[0][0], p.bands[0][1], stride)
	} else {
		var wg sync.WaitGroup
		for bi := range p.bands {
			wg.Add(1)
			go func(bi int) {
				defer wg.Done()
				p.encodeBand(p.workers[bi], fr, ef, frameIndex, p.bands[bi][0], p.bands[bi][1], stride)
			}(bi)
		}
		wg.Wait()
	}

	// Stitch: rebase per-row offsets by prefix-summing band pixel counts in
	// raster order, then concatenate band payloads. The EncMask needs no
	// stitching — workers wrote disjoint byte ranges of the shared mask.
	var off uint32
	total := 0
	for bi, b := range p.bands {
		w := p.workers[bi]
		for r := 0; r < b[1]-b[0]; r++ {
			ef.RowOffsets[b[0]+r] = off
			off += w.counts[r]
		}
		total += len(w.payload)
	}
	ef.RowOffsets[p.h] = off
	if cap(ef.Pix) < total {
		ef.Pix = make([]byte, 0, total)
	} else {
		ef.Pix = ef.Pix[:0]
	}
	for bi := range p.bands {
		ef.Pix = append(ef.Pix, p.workers[bi].payload...)
	}

	p.stats.FramesEncoded++
	for bi := range p.bands {
		st := &p.workers[bi].stats
		p.stats.RowsProcessed += st.RowsProcessed
		p.stats.PixelsIn += st.PixelsIn
		p.stats.PixelsOut += st.PixelsOut
		p.stats.RoISelectorCompares += st.RoISelectorCompares
		p.stats.RegionPaintOps += st.RegionPaintOps
		p.stats.RowsWithNoRegions += st.RowsWithNoRegions
	}
	return ef, nil
}

// encodeBand runs the sequential per-row pipeline over rows [y0, y1),
// packing into the worker's private payload and writing mask codes into the
// band's exclusively owned byte range of the shared EncMask. The band
// remembers only its own rows, so a reused row copies mask bytes the same
// worker wrote.
func (p *ParallelEncoder) encodeBand(w *encodeWorker, fr *frame.Frame, ef *EncodedFrame, frameIndex, y0, y1, stride int) {
	w.payload = w.payload[:0]
	if cap(w.counts) < y1-y0 {
		w.counts = make([]uint32, y1-y0)
	} else {
		w.counts = w.counts[:y1-y0]
	}
	w.stats = EncoderStats{}
	w.rows.forget()

	for y := y0; y < y1; y++ {
		var count int
		w.payload, count = w.rows.encodeRow(p.labels, y, frameIndex, fr.Pix[y*stride:(y+1)*stride], p.bpp, ef.Mask, w.payload, &w.stats)
		w.counts[y-y0] = uint32(count)
	}
}
