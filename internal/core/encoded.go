// Package core implements the paper's primary contribution: the rhythmic
// pixel encoder and decoder (§4).
//
// The encoder consumes a dense raster-scan pixel stream and, guided by a
// y-sorted region label list, packs only "regional" pixels into a tightly
// packed encoded frame while emitting two forms of metadata: a per-row
// offset table and a 2-bit-per-pixel encoding mask (EncMask). The decoder
// reconstructs frames — or arbitrary pixel windows — from the encoded frame
// plus metadata alone, without consulting region labels, which is what makes
// it agnostic to the number of regions.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bitpack"
	"repro/internal/frame"
)

// EncodedFrame is the in-memory representation the encoder writes to the
// (simulated) DRAM framebuffer: packed regional pixels in raster order plus
// the decoder metadata (§3.2, §3.3).
type EncodedFrame struct {
	// W, H are the dimensions of the original (decoded-space) frame.
	W, H int
	// BytesPerPixel is the pixel depth of the stream (1 for Gray8, 3 for
	// RGB24/YUV444).
	BytesPerPixel int
	// FrameIndex is the temporal index of the source frame; the decoder
	// uses it to resolve temporally skipped pixels against history.
	FrameIndex int
	// Pix holds the packed regional (CodeR) pixels in raster-scan order.
	Pix []byte
	// RowOffsets has H+1 entries; RowOffsets[y] is the number of encoded
	// pixels before row y, so row y's pixels occupy indexes
	// [RowOffsets[y], RowOffsets[y+1]) of the packed stream.
	RowOffsets []uint32
	// Mask is the EncMask: one 2-bit code per original-frame pixel.
	Mask *bitpack.Mask2

	// pins counts readers on other goroutines that still hold the frame
	// (Pin/Unpin). A plain int32 under sync/atomic rather than an
	// atomic.Int32, so copying a frame by value stays legal.
	pins int32
}

// Pin marks the frame as held by a reader outside the goroutine that owns
// it, such as a push writer still sending its bytes. While any pin is held,
// FramePool.Put refuses the frame, so its storage is never recycled under
// the reader: a frame evicted while pinned is left to the GC instead.
// Every Pin must be matched by exactly one Unpin, issued after the
// reader's last access.
func (ef *EncodedFrame) Pin() { atomic.AddInt32(&ef.pins, 1) }

// Unpin releases one Pin. It is safe to call from any goroutine, and it
// orders the reader's accesses before any later reuse of the storage.
func (ef *EncodedFrame) Unpin() {
	if atomic.AddInt32(&ef.pins, -1) < 0 {
		panic("core: EncodedFrame unpinned more often than pinned")
	}
}

// Pinned reports whether any Pin is still held.
func (ef *EncodedFrame) Pinned() bool { return atomic.LoadInt32(&ef.pins) > 0 }

// NumEncodedPixels returns the number of packed pixels.
func (ef *EncodedFrame) NumEncodedPixels() int { return len(ef.Pix) / ef.BytesPerPixel }

// PixelDataBytes returns the byte size of the packed pixel payload.
func (ef *EncodedFrame) PixelDataBytes() int { return len(ef.Pix) }

// MetadataBytes returns the byte size of the per-row offsets plus EncMask —
// the paper's ~8% overhead for a Gray8 1080p frame.
func (ef *EncodedFrame) MetadataBytes() int {
	return len(ef.RowOffsets)*4 + ef.Mask.SizeBytes()
}

// TotalBytes returns pixel payload plus metadata.
func (ef *EncodedFrame) TotalBytes() int { return ef.PixelDataBytes() + ef.MetadataBytes() }

// CompressionRatio returns original frame bytes / encoded total bytes.
func (ef *EncodedFrame) CompressionRatio() float64 {
	orig := float64(ef.W * ef.H * ef.BytesPerPixel)
	return orig / float64(ef.TotalBytes())
}

// ErrNotStored is PixelAt's answer for a pixel the frame does not store:
// one whose code is not R.
var ErrNotStored = errors.New("core: pixel not stored in this frame")

// PixelAt returns the packed bytes of the CodeR pixel at original-frame
// coordinates (x, y). A pixel whose code is not R is a miss, reported as
// ErrNotStored without allocating; coordinates outside the frame are an
// error. This is the PMMU address translation in function form: encoded
// index = RowOffsets[y] + (number of R codes before x in row y).
func (ef *EncodedFrame) PixelAt(x, y int) ([]byte, error) {
	if x < 0 || x >= ef.W || y < 0 || y >= ef.H {
		return nil, fmt.Errorf("core: pixel (%d,%d) outside %dx%d frame", x, y, ef.W, ef.H)
	}
	base := y * ef.W
	if ef.Mask.Get(base+x) != bitpack.CodeR {
		return nil, ErrNotStored
	}
	idx := int(ef.RowOffsets[y]) + ef.Mask.CountRRange(base, base+x)
	off := idx * ef.BytesPerPixel
	return ef.Pix[off : off+ef.BytesPerPixel], nil
}

// Validate checks the structural invariants tying the three components
// together: offsets are monotone, each row's offset delta equals the row's
// R-code count, and the packed payload length matches the total R count.
func (ef *EncodedFrame) Validate() error {
	if ef.W <= 0 || ef.H <= 0 {
		return fmt.Errorf("core: invalid dimensions %dx%d", ef.W, ef.H)
	}
	if ef.BytesPerPixel <= 0 {
		return fmt.Errorf("core: invalid bytes-per-pixel %d", ef.BytesPerPixel)
	}
	if len(ef.RowOffsets) != ef.H+1 {
		return fmt.Errorf("core: %d row offsets, want %d", len(ef.RowOffsets), ef.H+1)
	}
	if ef.Mask.Len() != ef.W*ef.H {
		return fmt.Errorf("core: mask has %d entries, want %d", ef.Mask.Len(), ef.W*ef.H)
	}
	if ef.RowOffsets[0] != 0 {
		return fmt.Errorf("core: RowOffsets[0] = %d, want 0", ef.RowOffsets[0])
	}
	for y := 0; y < ef.H; y++ {
		delta := int(ef.RowOffsets[y+1]) - int(ef.RowOffsets[y])
		if delta < 0 {
			return fmt.Errorf("core: row offsets not monotone at row %d", y)
		}
		rCount := ef.Mask.CountRRange(y*ef.W, (y+1)*ef.W)
		if delta != rCount {
			return fmt.Errorf("core: row %d offset delta %d != mask R count %d", y, delta, rCount)
		}
	}
	if want := int(ef.RowOffsets[ef.H]) * ef.BytesPerPixel; len(ef.Pix) != want {
		return fmt.Errorf("core: payload is %d bytes, offsets imply %d", len(ef.Pix), want)
	}
	return nil
}

// Clone returns a deep copy of ef that shares no storage with the original.
// The copy is safe to hold, mutate, or serialize regardless of what later
// happens to ef (e.g. the producing System recycling its buffers).
func (ef *EncodedFrame) Clone() *EncodedFrame {
	c := &EncodedFrame{
		W:             ef.W,
		H:             ef.H,
		BytesPerPixel: ef.BytesPerPixel,
		FrameIndex:    ef.FrameIndex,
		Pix:           append([]byte(nil), ef.Pix...),
		RowOffsets:    append([]uint32(nil), ef.RowOffsets...),
		Mask:          ef.Mask.Clone(),
	}
	return c
}

// CopyFrom makes dst a deep copy of src, reusing dst's buffers where their
// capacity allows. dst afterwards shares no storage with src.
func (ef *EncodedFrame) CopyFrom(src *EncodedFrame) {
	ef.W, ef.H, ef.BytesPerPixel, ef.FrameIndex = src.W, src.H, src.BytesPerPixel, src.FrameIndex
	ef.Pix = append(ef.Pix[:0], src.Pix...)
	ef.RowOffsets = append(ef.RowOffsets[:0], src.RowOffsets...)
	if ef.Mask == nil || ef.Mask.Len() != src.Mask.Len() {
		ef.Mask = src.Mask.Clone()
	} else {
		copy(ef.Mask.Bytes(), src.Mask.Bytes())
	}
}

// encodedMagic identifies the serialized encoded-frame container.
const encodedMagic = 0x52505845 // "RPXE"

// encodedVersion is the RPXE container version: raw row offsets and the
// raw 2 bpp mask, the paper's metadata layout (§3).
const encodedVersion = 1

// encodedHeaderSize is the fixed RPXE container header length.
const encodedHeaderSize = 28

// EncodedSize returns the exact serialized length of the RPXE container
// WriteTo/AppendTo produce, so callers can size a destination buffer and
// serialize with a single allocation (or none).
func (ef *EncodedFrame) EncodedSize() int {
	return encodedHeaderSize + len(ef.Pix) + 4*len(ef.RowOffsets) + ef.Mask.SizeBytes()
}

// AppendTo appends the RPXE container (the same layout WriteTo emits) to dst
// and returns the extended slice. It performs no allocation when dst has
// EncodedSize() spare capacity.
func (ef *EncodedFrame) AppendTo(dst []byte) []byte {
	dst = ef.AppendHeader(dst)
	dst = append(dst, ef.Pix...)
	dst = ef.AppendRowOffsets(dst)
	return append(dst, ef.Mask.Bytes()...)
}

// AppendHeader appends the 28-byte RPXE container header: magic, version,
// W, H, bpp, frame index and payload length. The container is this header,
// then Pix, then the row-offset table (AppendRowOffsets), then
// Mask.Bytes(); a writer that sends those four parts in order, without
// concatenating them, puts exactly AppendTo's bytes on the wire.
func (ef *EncodedFrame) AppendHeader(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, encodedMagic)
	dst = binary.LittleEndian.AppendUint32(dst, encodedVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.BytesPerPixel))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ef.FrameIndex))
	return binary.LittleEndian.AppendUint32(dst, uint32(len(ef.Pix)))
}

// AppendRowOffsets appends the row-offset table as the container stores
// it: one little-endian uint32 per entry.
func (ef *EncodedFrame) AppendRowOffsets(dst []byte) []byte {
	for _, v := range ef.RowOffsets {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// WriteTo serializes the encoded frame in a compact binary container so CLI
// tools can persist encoded streams. Layout: magic, version, W, H, bpp,
// frame index, payload length, payload, row offsets, mask bytes.
func (ef *EncodedFrame) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, part := range [][]byte{
		ef.AppendHeader(make([]byte, 0, encodedHeaderSize)),
		ef.Pix,
		ef.AppendRowOffsets(make([]byte, 0, 4*len(ef.RowOffsets))),
		ef.Mask.Bytes(),
	} {
		k, err := w.Write(part)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// MaxFrameDim bounds the width and height a deserialized encoded frame may
// claim, matching the wire protocol's session-geometry cap. Untrusted
// headers beyond it are rejected rather than trusted for allocation sizing.
const MaxFrameDim = 1 << 15

// readChunk is the allocation granularity for length-prefixed reads of
// untrusted data: buffers grow as bytes actually arrive, so a hostile
// length field in a truncated input cannot force a large up-front
// allocation (it fails after at most one spare chunk).
const readChunk = 1 << 20

// readAppend reads exactly n bytes from r and appends them to dst. It fills
// dst's spare capacity first and otherwise grows the buffer as bytes arrive,
// at most readChunk ahead of what was read, so a reused buffer of the right
// size takes the bytes with no allocation.
func readAppend(r io.Reader, dst []byte, n int) ([]byte, error) {
	for n > 0 {
		start := len(dst)
		m := min(n, max(cap(dst)-start, readChunk))
		if cap(dst)-start >= m {
			dst = dst[:start+m]
		} else {
			dst = append(dst, make([]byte, m)...)
		}
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return dst[:start], err
		}
		n -= m
	}
	return dst, nil
}

// ReadEncodedFrame deserializes a frame written by WriteTo into a new
// EncodedFrame, with ReadEncodedFrameInto's bounds on untrusted input.
func ReadEncodedFrame(r io.Reader) (*EncodedFrame, error) {
	ef := new(EncodedFrame)
	if err := ReadEncodedFrameInto(r, ef); err != nil {
		return nil, err
	}
	return ef, nil
}

// ReadEncodedFrameInto deserializes a frame written by WriteTo into ef,
// reusing its payload, row-offset and mask storage, so a recycled frame
// whose buffers are large enough parses with no allocation. ef must not be
// shared: not held by a Decoder's history, nor its Mask by another frame.
//
// The input is untrusted: structurally invalid or truncated data yields an
// error (never a panic), and allocations are bounded by the bytes actually
// present plus one chunk, so a hostile length prefix cannot force an
// over-allocation. After an error ef holds no valid frame but may be
// reused.
func ReadEncodedFrameInto(r io.Reader, ef *EncodedFrame) error {
	// The payload buffer doubles as scratch for the header and, past the
	// payload, for the row-offset table; both are decoded before the bytes
	// they occupy are needed again.
	buf, err := readAppend(r, ef.Pix[:0], encodedHeaderSize)
	if err != nil {
		return fmt.Errorf("core: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf) != encodedMagic {
		return fmt.Errorf("core: bad magic %#x", binary.LittleEndian.Uint32(buf))
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != encodedVersion {
		return fmt.Errorf("core: unsupported version %d", v)
	}
	w := int(binary.LittleEndian.Uint32(buf[8:]))
	h := int(binary.LittleEndian.Uint32(buf[12:]))
	bpp := int(binary.LittleEndian.Uint32(buf[16:]))
	idx := int(binary.LittleEndian.Uint32(buf[20:]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[24:]))
	if w <= 0 || h <= 0 || w > MaxFrameDim || h > MaxFrameDim || bpp <= 0 || bpp > 4 {
		return fmt.Errorf("core: unreasonable header %dx%d bpp=%d", w, h, bpp)
	}
	if !payloadLenOK(payloadLen, w, h, bpp) {
		return fmt.Errorf("core: payload %d exceeds frame size", payloadLen)
	}
	n := payloadLen + 4*(h+1) // the payload, then the row-offset table
	if n < payloadLen {       // wrapped: a 32-bit int cannot hold both
		return fmt.Errorf("core: payload %d exceeds frame size", payloadLen)
	}
	ef.W, ef.H, ef.BytesPerPixel, ef.FrameIndex = w, h, bpp, idx
	if buf, err = readAppend(r, buf[:0], n); err != nil {
		return fmt.Errorf("core: short payload or row offsets: %w", err)
	}
	ef.Pix = buf[:payloadLen]
	if cap(ef.RowOffsets) < h+1 {
		ef.RowOffsets = make([]uint32, h+1)
	}
	ef.RowOffsets = ef.RowOffsets[:h+1]
	for i, off := 0, buf[payloadLen:]; i <= h; i++ {
		ef.RowOffsets[i] = binary.LittleEndian.Uint32(off[4*i:])
	}
	if ef.Mask == nil {
		ef.Mask = new(bitpack.Mask2)
	}
	maskBytes, err := readAppend(r, ef.Mask.Bytes()[:0], (w*h+3)/4)
	if err != nil {
		return fmt.Errorf("core: short mask: %w", err)
	}
	if err := ef.Mask.SetBytes(maskBytes, w*h); err != nil {
		return err
	}
	if err := ef.Validate(); err != nil {
		return fmt.Errorf("core: corrupt encoded frame: %w", err)
	}
	return nil
}

// payloadLenOK reports whether a wire-declared payload length fits within
// the w x h x bpp frame it claims to come from. The comparison is in
// divide form because the product w*h*bpp can overflow the platform int on
// 32-bit targets (2^15 * 2^15 * 4 == 2^32), which would let a hostile
// length — itself negative after the uint32 -> int conversion — slip past
// a `payloadLen > w*h*bpp` check and reach allocation. Generic over the
// integer width so the regression test can pin the 32-bit behavior on any
// host; w and h must each be at most MaxFrameDim so w*h itself cannot
// overflow T.
func payloadLenOK[T int | int32 | int64](payloadLen, w, h, bpp T) bool {
	if payloadLen < 0 {
		return false
	}
	q := payloadLen / bpp
	return q < w*h || (q == w*h && payloadLen%bpp == 0)
}

// formatBPP maps a frame format to the encoder's pixel depth.
func formatBPP(f frame.Format) int { return f.BytesPerPixel() }
