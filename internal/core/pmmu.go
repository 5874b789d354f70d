package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/region"
)

// This file implements the Pixel Memory Management Unit (§4.2.1): the
// request-path half of the rhythmic pixel decoder. The PMMU receives pixel
// transactions addressed in the *decoded* frame address space and translates
// them into sub-requests against the packed *encoded* frames, using only the
// per-row offsets and EncMask metadata — never the region labels, which is
// what makes the decoder agnostic to the number of regions.

// SourceNone marks a sub-request that needs no memory fetch (hold or black).
const SourceNone = -1

// SubRequest is one translated unit of a pixel transaction: a run of
// consecutive decoded-space pixels that share a resolution strategy.
//
// Mirroring the paper, a sub-request is "characterized by a base address (of
// the encoded frame), offset (row and column), and a tag index of which
// frame hosts the desired pixels": here Source is the frame tag (0 = most
// recent, 1..depth-1 = older history), EncIndex the pixel offset into that
// frame's packed stream, and (X, Y, Count) the decoded-space run.
type SubRequest struct {
	// X, Y, Count identify the decoded-space pixel run [X, X+Count) in row Y.
	X, Y, Count int
	// Code is the EncMask classification that produced this sub-request:
	// CodeR and CodeSk runs carry a memory fetch; CodeSt runs are serviced
	// from the resampling buffer; CodeN runs emit black.
	Code bitpack.Code
	// Source is the history tag of the encoded frame to fetch from, or
	// SourceNone when no fetch is needed.
	Source int
	// EncIndex is the starting pixel index within the source frame's packed
	// stream; valid only when Source != SourceNone.
	EncIndex int
}

// PMMU translates decoded-space pixel transactions against a window of
// recent encoded frames. Frame tag 0 is the newest frame.
//
// A PMMU caches its recent whole-row translations, which are valid only
// for the history window it was given: the window, and the frames in it,
// must not change while the PMMU is in use.
type PMMU struct {
	history []*EncodedFrame // newest first; the Metadata Scratchpad contents
	base    uint64          // decoded framebuffer base address (Out-of-Frame handler)

	// Translation state of the current row, reused from row to row.
	y, rowBase, x0 int
	cursors        []rCursor    // one per history frame
	subs           []SubRequest // translateRow's result buffer

	// The last rowCacheDepth whole-row translations (see replayRow); slot
	// next is overwritten next, and cached slots hold a translation.
	rows         [rowCacheDepth]translatedRow
	cached, next int

	stats PMMUStats
}

// rowCacheDepth is how many whole-row translations a PMMU keeps. Rows
// under a strided label repeat at the label's stride, so region.MaxStride
// rows cover every lattice.
const rowCacheDepth = region.MaxStride

// translatedRow is one cached whole-row translation.
type translatedRow struct {
	y    int
	subs []SubRequest
	// subRequests and metaBits are the PMMUStats the translation charged.
	subRequests, metaBits int
}

// PMMUStats counts translation work.
type PMMUStats struct {
	// Transactions is the number of pixel transactions translated.
	Transactions int
	// SubRequests is the number of generated sub-requests.
	SubRequests int
	// Bypassed counts transactions forwarded as standard memory accesses by
	// the Out-of-Frame handler.
	Bypassed int
	// MetadataBitsRead counts EncMask bits examined during translation:
	// 2 bits per classified pixel (plus 2 per history frame consulted while
	// resolving an Sk pixel), and one 2*x0-bit row-prefix scan per history
	// frame the first time a fetch consults that frame's R-count cursor for
	// the run. Frames no pixel resolves against charge nothing — matching
	// what the hardware metadata scratchpad actually reads. Pixels the
	// translator handles a byte or a run at a time are charged as if read
	// one by one.
	MetadataBitsRead int
}

// NewPMMU returns a PMMU over the given history window (newest first) with
// the decoded framebuffer mapped at base. Neither the slice nor the frames
// it holds may change while the PMMU is in use; translate against a new
// window with a new PMMU.
func NewPMMU(history []*EncodedFrame, base uint64) *PMMU {
	return &PMMU{history: history, base: base}
}

// reset points the PMMU at a new history window with zeroed counters and
// no cached rows, keeping its translation buffers.
func (p *PMMU) reset(history []*EncodedFrame) {
	p.history, p.stats = history, PMMUStats{}
	p.cached, p.next = 0, 0
}

// Stats returns the accumulated counters.
func (p *PMMU) Stats() PMMUStats { return p.stats }

// newest returns the most recent encoded frame.
func (p *PMMU) newest() *EncodedFrame { return p.history[0] }

// InFrame implements the Out-of-Frame Handler check: it reports whether a
// byte address falls inside the decoded framebuffer address space.
//
// The check is written against the remaining capacity past addr rather than
// as addr+length <= end, which wraps around for adversarial addresses near
// the top of the 64-bit address space and would admit an out-of-frame
// transaction.
func (p *PMMU) InFrame(addr uint64, length int) bool {
	if len(p.history) == 0 || length < 0 {
		return false
	}
	f := p.newest()
	size := uint64(f.W) * uint64(f.H) * uint64(f.BytesPerPixel)
	if addr < p.base {
		return false
	}
	off := addr - p.base
	return off <= size && uint64(length) <= size-off
}

// TranslateAddr translates a byte-addressed transaction. Transactions
// outside the decoded framebuffer are bypassed (nil, false, nil). Pixel
// transactions must be pixel-aligned and must not cross a row boundary;
// higher-level code splits multi-row requests.
func (p *PMMU) TranslateAddr(addr uint64, length int) (subs []SubRequest, pixel bool, err error) {
	p.stats.Transactions++
	if !p.InFrame(addr, length) {
		p.stats.Bypassed++
		return nil, false, nil
	}
	f := p.newest()
	bpp := f.BytesPerPixel
	rel := int(addr - p.base)
	if rel%bpp != 0 || length%bpp != 0 {
		return nil, true, fmt.Errorf("core: misaligned pixel transaction addr=%d len=%d bpp=%d", addr, length, bpp)
	}
	pixIdx := rel / bpp
	x, y := pixIdx%f.W, pixIdx/f.W
	n := length / bpp
	if x+n > f.W {
		return nil, true, fmt.Errorf("core: pixel transaction crosses row boundary (x=%d n=%d w=%d)", x, n, f.W)
	}
	subs, err = p.TranslateRow(y, x, x+n)
	return subs, true, err
}

// TranslateRow translates the decoded-space pixel run [x0, x1) of row y into
// sub-requests. This is the Transaction Analyzer + translator: it reads the
// EncMask codes of the run, resolves each pixel's hosting frame, and merges
// consecutive pixels with the same resolution into a single sub-request.
// The returned slice is the caller's to keep.
func (p *PMMU) TranslateRow(y, x0, x1 int) ([]SubRequest, error) {
	subs, err := p.translateRow(y, x0, x1)
	if err != nil {
		return nil, err
	}
	return append([]SubRequest(nil), subs...), nil
}

// rCursor is one history frame's incremental R-count cursor for the row
// being translated, so that translating a full row costs O(W) rather than
// O(W^2) popcounts: count is the number of R codes in the row strictly
// before column at, or at < 0 before the frame is first consulted.
type rCursor struct{ at, count int }

// translateRow is TranslateRow into the PMMU's reused sub-request buffer,
// which stays valid until the next call.
//
// The EncMask is read a byte (four pixels) at a time wherever the run
// covers a whole byte: a run of identical uniform N, R or St bytes becomes
// one sub-request, and so does a run of uniform Sk bytes that resolve alike
// while every history byte they consult is uniform too; a mixed byte with
// no Sk code (a strided lattice row) needs no history and is decoded from
// the byte alone. Any other byte — and the unaligned pixels at either end
// of the run — is translated pixel by pixel. Every path charges
// MetadataBitsRead exactly as a per-pixel walk does, so the statistics do
// not depend on which path a pixel took.
//
// A whole row of a frame whose rows start on mask bytes (W a multiple of
// 4) is first looked up in the row cache, and a row that misses is cached.
func (p *PMMU) translateRow(y, x0, x1 int) ([]SubRequest, error) {
	f := p.newest()
	if y < 0 || y >= f.H || x0 < 0 || x1 > f.W || x0 >= x1 {
		return nil, fmt.Errorf("core: run [%d,%d) of row %d outside %dx%d frame", x0, x1, y, f.W, f.H)
	}
	whole := x0 == 0 && x1 == f.W && f.W&3 == 0
	if whole && p.replayRow(y) {
		return p.subs, nil
	}
	subs0, bits0 := p.stats.SubRequests, p.stats.MetadataBitsRead
	p.y, p.rowBase, p.x0 = y, y*f.W, x0
	p.subs = p.subs[:0]
	if len(p.cursors) != len(p.history) {
		p.cursors = make([]rCursor, len(p.history))
	}
	for i := range p.cursors {
		p.cursors[i].at = -1
	}

	maskBytes := f.Mask.Bytes()
	for x := x0; x < x1; {
		if i := p.rowBase + x; i&3 == 0 && x+4 <= x1 {
			switch b := maskBytes[i>>2]; b {
			case 0x00, 0xFF, 0x55: // N N N N, R R R R, St St St St
				n := 4
				for word := uint64(b) * 0x0101010101010101; x+n+32 <= x1 && binary.LittleEndian.Uint64(maskBytes[(i+n)>>2:]) == word; {
					n += 32 // eight bytes a step
				}
				for x+n+4 <= x1 && maskBytes[(i+n)>>2] == b {
					n += 4
				}
				p.stats.MetadataBitsRead += 2 * n
				p.emitCode(bitpack.Code(b&3), x, n)
				x += n
				continue
			case 0xAA: // Sk Sk Sk Sk
				if n := p.resolveSkRun(x, x1); n > 0 {
					x += n
					continue
				}
			default:
				if b&^(b<<1)&0xAA == 0 { // no Sk code among the four
					p.translateByte(x, b)
					x += 4
					continue
				}
			}
		}
		p.translatePixel(x)
		x++
	}
	if whole {
		return p.cacheRow(y, p.stats.SubRequests-subs0, p.stats.MetadataBitsRead-bits0), nil
	}
	return p.subs, nil
}

// replayRow translates whole row y from the row cache into p.subs, if a
// cached row's mask bytes equal row y's in every history frame, and reports
// whether it did. A row's translation reads nothing but its own mask bytes
// in each history frame and each frame's offset for the row, so such a row
// translates exactly like the cached one once each fetch's EncIndex is
// shifted by its source frame's offset difference between the two rows;
// the stats it charges are the cached row's. The frames must have
// whole-byte rows.
func (p *PMMU) replayRow(y int) bool {
	n := p.newest().W >> 2
	for i := 1; i <= p.cached; i++ { // newest first
		r := &p.rows[(p.next-i+rowCacheDepth)%rowCacheDepth]
		if !p.sameMaskRows(y, r.y, n) {
			continue
		}
		p.subs = append(p.subs[:0], r.subs...)
		for k := range p.subs {
			s := &p.subs[k]
			s.Y = y
			if s.Source != SourceNone {
				ro := p.history[s.Source].RowOffsets
				s.EncIndex += int(ro[y]) - int(ro[r.y])
			}
		}
		p.stats.SubRequests += r.subRequests
		p.stats.MetadataBitsRead += r.metaBits
		return true
	}
	return false
}

// sameMaskRows reports whether rows y and y2, n mask bytes each, hold the
// same bytes in every history frame. Rows with different R counts in the
// newest frame are told apart from its row offsets alone.
func (p *PMMU) sameMaskRows(y, y2, n int) bool {
	if ro := p.newest().RowOffsets; ro[y+1]-ro[y] != ro[y2+1]-ro[y2] {
		return false
	}
	for _, f := range p.history {
		b := f.Mask.Bytes()
		if !bytes.Equal(b[y*n:(y+1)*n], b[y2*n:(y2+1)*n]) {
			return false
		}
	}
	return true
}

// cacheRow caches row y's translation, just left in p.subs, with the stats
// it charged, in place of the oldest cached row, and returns it. The
// translation changes hands rather than being copied: p.subs takes the
// evicted row's buffer, so it never shares storage with a cached row.
func (p *PMMU) cacheRow(y, subRequests, metaBits int) []SubRequest {
	r := &p.rows[p.next]
	p.next = (p.next + 1) % rowCacheDepth
	p.cached = min(p.cached+1, rowCacheDepth)
	r.y, r.subRequests, r.metaBits = y, subRequests, metaBits
	r.subs, p.subs = p.subs, r.subs[:0]
	return r.subs
}

// rBefore returns the number of R codes before column x in row p.y of
// history frame i, advancing that frame's cursor. The hardware scratchpad
// performs a frame's 2*x0-bit row-prefix scan only when some pixel actually
// resolves against that frame, so the cursor initializes (and charges) on
// first use: eager initialization would over-charge MetadataBitsRead for
// every history frame no Sk pixel touches, and for the newest frame on runs
// with no R pixels.
func (p *PMMU) rBefore(i, x int) int {
	c := &p.cursors[i]
	m := p.history[i].Mask
	if c.at < 0 {
		c.count = m.CountRRange(p.rowBase, p.rowBase+p.x0)
		c.at = p.x0
		p.stats.MetadataBitsRead += 2 * p.x0 // scratchpad row prefix scan
	}
	if x > c.at {
		c.count += m.CountRRange(p.rowBase+c.at, p.rowBase+x)
		c.at = x
	}
	return c.count
}

// emit appends a sub-request for n pixels of row p.y starting at column x,
// merging it into the previous one when the run is contiguous in both
// decoded and encoded space.
func (p *PMMU) emit(code bitpack.Code, src, x, n, enc int) {
	if k := len(p.subs); k > 0 {
		prev := &p.subs[k-1]
		if prev.Code == code && prev.Source == src && prev.X+prev.Count == x &&
			(src == SourceNone || prev.EncIndex+prev.Count == enc) {
			prev.Count += n
			return
		}
	}
	p.subs = append(p.subs, SubRequest{X: x, Y: p.y, Count: n, Code: code, Source: src, EncIndex: enc})
	p.stats.SubRequests++
}

// emitCode emits n pixels from column x that the newest frame codes as
// code: R fetches from the newest frame, St holds, N is black. (Sk pixels
// resolve against history instead.)
func (p *PMMU) emitCode(code bitpack.Code, x, n int) {
	if code == bitpack.CodeR {
		p.emit(code, 0, x, n, int(p.newest().RowOffsets[p.y])+p.rBefore(0, x))
		return
	}
	p.emit(code, SourceNone, x, n, 0)
}

// skHost finds where the four Sk pixels of mask byte bi resolve when every
// history byte it probes is uniform: they share one resolution, the first
// older frame that captured them (hb = 0xFF) or strided them out (hb =
// 0x55), else none (host = -1, hb = 0; they decode black). probes is the
// number of history frames read per pixel. ok is false when a probed byte
// is mixed, so the four pixels resolve differently.
func (p *PMMU) skHost(bi int) (host, probes int, hb byte, ok bool) {
	for i := 1; i < len(p.history); i++ {
		switch b := p.history[i].Mask.Bytes()[bi]; b {
		case 0x00, 0xAA: // not captured there: probe the next older frame
		case 0xFF, 0x55:
			return i, i, b, true
		default:
			return 0, 0, 0, false
		}
	}
	return -1, len(p.history) - 1, 0, true
}

// resolveSkRun translates the uniform Sk bytes from byte-aligned column x
// on (at least four pixels before x1) that all resolve like the first, as
// one sub-request, and returns the number of pixels it translated: zero,
// having charged nothing, when the first byte's pixels resolve differently
// from one another, which the caller then resolves one at a time.
func (p *PMMU) resolveSkRun(x, x1 int) int {
	bi := (p.rowBase + x) >> 2
	host, probes, hb, ok := p.skHost(bi)
	if !ok {
		return 0
	}
	mask := p.newest().Mask.Bytes()
	n := 4
	for ; x+n+4 <= x1 && mask[bi+n/4] == 0xAA; n += 4 {
		if h, _, b, ok := p.skHost(bi + n/4); !ok || h != host || b != hb {
			break
		}
	}
	p.stats.MetadataBitsRead += 2 * n * (1 + probes) // own code + probes, per pixel
	switch hb {
	case 0xFF:
		p.emit(bitpack.CodeSk, host, x, n, int(p.history[host].RowOffsets[p.y])+p.rBefore(host, x))
	case 0x55:
		// The hosting frame strided these pixels out; fall back to the
		// resampling buffer, as the hosting frame's own decode would have.
		p.emit(bitpack.CodeSt, SourceNone, x, n, 0)
	default:
		// Not present in the metadata scratchpad window: black.
		p.emit(bitpack.CodeN, SourceNone, x, n, 0)
	}
	return n
}

// translateByte translates the four pixels of mask byte b, which holds no
// Sk code, from byte-aligned column x: R pixels fetch from the newest frame
// at consecutive encoded indexes, St pixels hold and N pixels go black.
func (p *PMMU) translateByte(x int, b byte) {
	p.stats.MetadataBitsRead += 8
	enc := -1
	for k := 0; k < 4; k, b = k+1, b>>2 {
		code := bitpack.Code(b & 3)
		if code != bitpack.CodeR {
			p.emit(code, SourceNone, x+k, 1, 0)
			continue
		}
		if enc < 0 {
			enc = int(p.newest().RowOffsets[p.y]) + p.rBefore(0, x+k)
		}
		p.emit(code, 0, x+k, 1, enc)
		enc++
	}
}

// translatePixel translates the single pixel at column x of row p.y.
func (p *PMMU) translatePixel(x int) {
	i := p.rowBase + x
	code := p.newest().Mask.Get(i)
	p.stats.MetadataBitsRead += 2
	if code != bitpack.CodeSk {
		p.emitCode(code, x, 1)
		return
	}
	// Resolve against history: the most recent older frame where this
	// pixel was captured (CodeR).
	for h := 1; h < len(p.history); h++ {
		hf := p.history[h]
		hcode := hf.Mask.Get(i)
		p.stats.MetadataBitsRead += 2
		switch hcode {
		case bitpack.CodeR:
			p.emit(bitpack.CodeSk, h, x, 1, int(hf.RowOffsets[p.y])+p.rBefore(h, x))
			return
		case bitpack.CodeSt:
			// The hosting frame strided this pixel out; fall back to the
			// resampling buffer, as the hosting frame's own decode would
			// have.
			p.emit(bitpack.CodeSt, SourceNone, x, 1, 0)
			return
		}
	}
	// Not present in the metadata scratchpad window: black.
	p.emit(bitpack.CodeN, SourceNone, x, 1, 0)
}
