package core

import (
	"errors"
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/frame"
)

// DefaultHistoryDepth is the number of recent encoded frames whose metadata
// the decoder's scratchpad holds, matching the paper's "four most recent
// encoded frames" (§4.2.1).
const DefaultHistoryDepth = 4

// DecoderStats counts decode work and traffic for the evaluation harness.
type DecoderStats struct {
	// PixelsRequested is the number of decoded-space pixels serviced.
	PixelsRequested int
	// DirectR counts pixels fetched from the newest encoded frame.
	DirectR int
	// HeldSt counts strided pixels serviced from the resampling buffer or
	// line buffer.
	HeldSt int
	// FetchedSk counts pixels fetched from older history frames.
	FetchedSk int
	// Black counts pixels emitted as black (non-regional or unresolvable).
	Black int
	// EncodedBytesRead counts payload bytes fetched from encoded frames.
	EncodedBytesRead int
	// SubRequests counts PMMU sub-requests issued.
	SubRequests int
	// MetadataBitsRead counts EncMask bits the PMMU examined while
	// translating the delivered rows (see PMMUStats.MetadataBitsRead for the
	// exact accounting). Warm-up rows decoded only to prime the line buffer
	// are excluded, so a window is charged for its own rows only, whichever
	// row it starts at.
	MetadataBitsRead int
}

// Decoder is the rhythmic pixel decoder (§4.2). It accumulates encoded
// frames in a bounded history window and services pixel requests in the
// original decoded address space: the PMMU translates requests to encoded
// space, and the FIFO Sampling Unit reconstructs values — dequeuing fetched
// pixels, re-sampling the previous pixel (horizontally, or the previous row
// through a one-line buffer for vertically strided rows), fetching
// temporally skipped pixels from history, and emitting black for
// non-regional positions.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	w, h   int
	format frame.Format
	bpp    int
	depth  int

	// The history window is a fixed ring: ring holds the scratchpad slots,
	// head indexes the newest frame, and history is a preallocated
	// newest-first view over the ring that Push refreshes — so pushing a
	// frame moves at most depth pointers and never allocates, while the
	// PMMU keeps its history[0] = newest contract.
	ring    []*EncodedFrame
	head    int
	count   int
	history []*EncodedFrame // newest first; view over ring
	stats   DecoderStats

	// The decode loop's translator, sampler and full-width row buffer, kept
	// from call to call so a warm decode allocates nothing.
	pmmu PMMU
	fifo *fifoSampler
	row  []byte
}

// DecoderOption configures a Decoder.
type DecoderOption func(*Decoder)

// WithHistoryDepth sets the metadata scratchpad depth (>= 1). Depth 1
// disables temporal-skip resolution: Sk pixels decode black.
func WithHistoryDepth(depth int) DecoderOption {
	return func(d *Decoder) {
		if depth < 1 {
			panic("core: history depth must be >= 1")
		}
		d.depth = depth
	}
}

// NewDecoder returns a decoder for w x h frames of the given format.
func NewDecoder(w, h int, format frame.Format, opts ...DecoderOption) *Decoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("core: invalid decoder dimensions %dx%d", w, h))
	}
	d := &Decoder{w: w, h: h, format: format, bpp: formatBPP(format), depth: DefaultHistoryDepth}
	for _, opt := range opts {
		opt(d)
	}
	d.ring = make([]*EncodedFrame, d.depth)
	d.history = make([]*EncodedFrame, 0, d.depth)
	d.fifo = newFIFOSampler(d.bpp, w)
	d.row = make([]byte, w*d.bpp)
	return d
}

// Push inserts an encoded frame as the newest history entry, evicting the
// oldest beyond the scratchpad depth. The frame must match the decoder's
// geometry. Push never allocates: the ring slots and the newest-first view
// are fixed buffers sized at construction.
func (d *Decoder) Push(ef *EncodedFrame) error {
	_, err := d.PushEvict(ef)
	return err
}

// PushEvict is Push returning ownership of the frame it displaced: once a
// frame falls off the history ring the decoder holds no reference to it, so
// the caller may recycle its buffers (e.g. hand it to a FramePool). The
// result is nil until the ring has wrapped.
func (d *Decoder) PushEvict(ef *EncodedFrame) (evicted *EncodedFrame, err error) {
	if ef.W != d.w || ef.H != d.h || ef.BytesPerPixel != d.bpp {
		return nil, fmt.Errorf("core: encoded frame %dx%d bpp=%d does not match decoder %dx%d bpp=%d",
			ef.W, ef.H, ef.BytesPerPixel, d.w, d.h, d.bpp)
	}
	d.head = (d.head + d.depth - 1) % d.depth
	evicted = d.ring[d.head] // non-nil once the ring has wrapped
	d.ring[d.head] = ef
	if d.count < d.depth {
		d.count++
	}
	d.history = d.history[:d.count]
	for i := 0; i < d.count; i++ {
		d.history[i] = d.ring[(d.head+i)%d.depth]
	}
	return evicted, nil
}

// HistoryLen returns the number of buffered encoded frames.
func (d *Decoder) HistoryLen() int { return len(d.history) }

// HistoryDepth returns the configured scratchpad depth.
func (d *Decoder) HistoryDepth() int { return d.depth }

// Stats returns the accumulated decode counters.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// ResetStats zeroes the counters.
func (d *Decoder) ResetStats() { d.stats = DecoderStats{} }

// DecodeFrame reconstructs the full decoded frame for the newest pushed
// encoded frame.
func (d *Decoder) DecodeFrame() (*frame.Frame, error) {
	return d.DecodeWindow(0, 0, d.w, d.h)
}

// DecodeFrameInto is DecodeFrame into a caller's frame: out must have the
// decoder's geometry and format, and every pixel of it is overwritten.
// A decode into a reused frame allocates nothing once the decoder is warm.
func (d *Decoder) DecodeFrameInto(out *frame.Frame) error {
	if out.W != d.w || out.H != d.h || out.Format != d.format || len(out.Pix) != d.w*d.h*d.bpp {
		return fmt.Errorf("core: output frame %dx%d %v (%d bytes) does not match decoder %dx%d %v",
			out.W, out.H, out.Format, len(out.Pix), d.w, d.h, d.format)
	}
	if len(d.history) == 0 {
		return errNoHistory
	}
	return d.decodeWindow(out, 0, 0)
}

// errNoHistory rejects a decode before the first Push.
var errNoHistory = errors.New("core: decode before any encoded frame was pushed")

// DecodeWindow reconstructs the rectangle [x0, x0+w) x [y0, y0+h) in decoded
// space, the request shape a vision accelerator issues when reading a frame
// tile. At least one encoded frame must have been pushed.
//
// Rows are reconstructed at full width internally and the window columns
// copied out — the same row-burst behaviour a DRAM-backed decoder has, and
// the property that makes any window decode agree exactly with the
// corresponding crop of a full-frame decode (strided pixels may hold values
// that originate left of the window). When the window starts below the
// frame top, the rows above it that its first row depends on through the
// line buffer (see lineChainStart) are decoded first and discarded, so
// vertically strided pixels reconstruct from their source row; warm-up
// rows are excluded from Stats.
func (d *Decoder) DecodeWindow(x0, y0, w, h int) (*frame.Frame, error) {
	if len(d.history) == 0 {
		return nil, errNoHistory
	}
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > d.w || y0+h > d.h {
		return nil, fmt.Errorf("core: window (%d,%d %dx%d) outside %dx%d frame", x0, y0, w, h, d.w, d.h)
	}
	out := frame.New(w, h, d.format)
	if err := d.decodeWindow(out, x0, y0); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeWindow reconstructs the out.W x out.H window anchored at (x0, y0)
// into out, which the caller has checked against the frame. The rows from
// lineChainStart(y0) up to y0 are decoded first, only to prime the line
// buffer, and are neither copied out nor charged to Stats.
func (d *Decoder) decodeWindow(out *frame.Frame, x0, y0 int) error {
	pmmu, fifo, rowBuf := &d.pmmu, d.fifo, d.row
	pmmu.reset(d.history)
	fifo.reset()

	start, err := lineChainStart(pmmu, y0, d.w)
	if err != nil {
		return err
	}
	var discard DecoderStats
	prevMetaBits := pmmu.Stats().MetadataBitsRead // the search's reads are not charged
	for row := start - y0; row < out.H; row++ {
		y := y0 + row
		subs, err := pmmu.translateRow(y, 0, d.w)
		if err != nil {
			return err
		}
		st := &d.stats
		if row < 0 {
			st = &discard
		}
		st.SubRequests += len(subs)
		// Attribute this row's metadata reads (a delta against the PMMU's
		// running counter) to the same bucket as its pixels, so warm-up
		// rows never inflate the delivered-row accounting.
		metaBits := pmmu.Stats().MetadataBitsRead
		st.MetadataBitsRead += metaBits - prevMetaBits
		prevMetaBits = metaBits
		fifo.beginRow()
		if err := fifo.serviceRow(subs, d.history, 0, rowBuf, st); err != nil {
			return err
		}
		fifo.commitRow(rowBuf)
		if row >= 0 {
			copy(out.Pix[row*out.Stride():(row+1)*out.Stride()], rowBuf[x0*d.bpp:(x0+out.W)*d.bpp])
		}
	}
	return nil
}

// lineChainStart returns the row a decode must start at for row y to come
// out as it does in a decode from the frame top: the nearest row at or
// above y whose reconstruction reads nothing from the line buffer. A
// strided pixel that no fetch precedes in its row copies the pixel above
// it, so rows chain upward until one reads no such pixel; row 0 ends every
// chain, because its line buffer is empty either way. Under one label list
// a chain spans less than a label's stride, but a pixel skipped in the
// newest frame and strided out in the older frame it resolves against
// copies from above on every row, however long the run of such rows.
func lineChainStart(p *PMMU, y, w int) (int, error) {
	for ; y > 0; y-- {
		subs, err := p.translateRow(y, 0, w)
		if err != nil {
			return 0, err
		}
		if !readsLineBuffer(subs) {
			break
		}
	}
	return y, nil
}

// readsLineBuffer reports whether servicing a row's sub-requests reads the
// line buffer: whether a strided run comes before the row's first fetch,
// which would otherwise give it a value to hold.
func readsLineBuffer(subs []SubRequest) bool {
	for _, s := range subs {
		if s.Source != SourceNone {
			return false
		}
		if s.Code == bitpack.CodeSt {
			return true
		}
	}
	return false
}

// fifoSampler is the FIFO Sampling Unit (§4.2.2): it consumes sub-request
// response data and produces decoded pixel values. A strided position
// re-samples the previous pixel when one was fetched earlier in the row
// (horizontal stride) or the pixel directly above from a one-row line buffer
// (vertical stride); the line buffer corresponds to the decoder's 2x18Kb
// BRAM budget reported in §6.3.
type fifoSampler struct {
	bpp      int
	resample []byte // last fetched pixel value in the current row
	hasValue bool
	black    []byte
	lineBuf  []byte // previous decoded row
	lineOK   bool
}

func newFIFOSampler(bpp, w int) *fifoSampler {
	return &fifoSampler{
		bpp:      bpp,
		resample: make([]byte, bpp),
		black:    make([]byte, bpp),
		lineBuf:  make([]byte, w*bpp),
	}
}

// reset readies the sampler for a decode's first row: no held value and an
// empty line buffer.
func (f *fifoSampler) reset() {
	f.hasValue, f.lineOK = false, false
}

// beginRow resets the resampling buffer at a row boundary.
func (f *fifoSampler) beginRow() {
	f.hasValue = false
}

// commitRow stores the decoded row into the line buffer for the next row's
// vertical-stride resolution.
func (f *fifoSampler) commitRow(row []byte) {
	copy(f.lineBuf, row)
	f.lineOK = true
}

// serviceRow materializes one row's sub-requests into dst (w*bpp bytes,
// starting at decoded column x0).
func (f *fifoSampler) serviceRow(subs []SubRequest, history []*EncodedFrame, x0 int, dst []byte, stats *DecoderStats) error {
	for _, s := range subs {
		dstOff := (s.X - x0) * f.bpp
		switch {
		case s.Source != SourceNone:
			src := history[s.Source]
			start := s.EncIndex * f.bpp
			end := start + s.Count*f.bpp
			if start < 0 || end > len(src.Pix) {
				return fmt.Errorf("core: sub-request [%d:%d) outside %d-byte payload of frame tag %d",
					start, end, len(src.Pix), s.Source)
			}
			copy(dst[dstOff:dstOff+s.Count*f.bpp], src.Pix[start:end])
			copy(f.resample, src.Pix[end-f.bpp:end])
			f.hasValue = true
			stats.EncodedBytesRead += s.Count * f.bpp
			stats.PixelsRequested += s.Count
			if s.Code == bitpack.CodeR {
				stats.DirectR += s.Count
			} else {
				stats.FetchedSk += s.Count
			}
		case s.Code == bitpack.CodeSt && f.hasValue:
			// Horizontal stride: hold the last fetched value.
			if f.bpp == 1 {
				fillBytes(dst[dstOff:dstOff+s.Count], f.resample[0])
			} else {
				for i := 0; i < s.Count; i++ {
					copy(dst[dstOff+i*f.bpp:dstOff+(i+1)*f.bpp], f.resample)
				}
			}
			stats.HeldSt += s.Count
			stats.PixelsRequested += s.Count
		case s.Code == bitpack.CodeSt && f.lineOK:
			// Vertical stride (no fetch yet this row): copy from the line
			// buffer, i.e. the decoded row above, per pixel.
			copy(dst[dstOff:dstOff+s.Count*f.bpp], f.lineBuf[dstOff:dstOff+s.Count*f.bpp])
			stats.HeldSt += s.Count
			stats.PixelsRequested += s.Count
		default:
			// Non-regional, unresolvable skip, or stride with neither a
			// held value nor a line buffer: black.
			clear(dst[dstOff : dstOff+s.Count*f.bpp])
			stats.Black += s.Count
			stats.PixelsRequested += s.Count
		}
	}
	return nil
}

// fillBytes sets every byte of b to v. The compiler turns only a loop
// storing the constant zero into a block clear, so black runs use clear.
func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}
