package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Multi-frame stream container (.rpxs): a header followed by concatenated
// encoded frames. The container keeps the decoder's history semantics
// explicit — frames must be read in capture order so temporal-skip
// resolution sees the same scratchpad contents the live pipeline did.

// streamMagic identifies the stream container.
const streamMagic = 0x52505853 // "RPXS"

// StreamWriter serializes a sequence of encoded frames.
type StreamWriter struct {
	w      io.Writer
	wrote  int
	w0, h0 int
	bpp0   int
	header bool
}

// NewStreamWriter returns a writer targeting w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// WriteFrame appends one encoded frame. All frames in a stream must share
// geometry; the first frame fixes it.
func (sw *StreamWriter) WriteFrame(ef *EncodedFrame) error {
	if !sw.header {
		hdr := make([]byte, 0, 20)
		hdr = binary.LittleEndian.AppendUint32(hdr, streamMagic)
		hdr = binary.LittleEndian.AppendUint32(hdr, 1) // version
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ef.W))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ef.H))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(ef.BytesPerPixel))
		if _, err := sw.w.Write(hdr); err != nil {
			return err
		}
		sw.w0, sw.h0, sw.bpp0 = ef.W, ef.H, ef.BytesPerPixel
		sw.header = true
	}
	if ef.W != sw.w0 || ef.H != sw.h0 || ef.BytesPerPixel != sw.bpp0 {
		return fmt.Errorf("core: stream frame %dx%d bpp=%d does not match stream %dx%d bpp=%d",
			ef.W, ef.H, ef.BytesPerPixel, sw.w0, sw.h0, sw.bpp0)
	}
	if _, err := ef.WriteTo(sw.w); err != nil {
		return err
	}
	sw.wrote++
	return nil
}

// FramesWritten returns the number of frames appended.
func (sw *StreamWriter) FramesWritten() int { return sw.wrote }

// StreamReader deserializes a sequence of encoded frames.
type StreamReader struct {
	r    io.Reader
	W, H int
	BPP  int
	read int
}

// NewStreamReader validates the stream header and returns a reader.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	hdr := make([]byte, 20)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: short stream header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != streamMagic {
		return nil, fmt.Errorf("core: bad stream magic %#x", binary.LittleEndian.Uint32(hdr))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		return nil, fmt.Errorf("core: unsupported stream version %d", v)
	}
	sr := &StreamReader{
		r:   r,
		W:   int(binary.LittleEndian.Uint32(hdr[8:])),
		H:   int(binary.LittleEndian.Uint32(hdr[12:])),
		BPP: int(binary.LittleEndian.Uint32(hdr[16:])),
	}
	if sr.W <= 0 || sr.H <= 0 || sr.BPP <= 0 || sr.BPP > 4 || sr.W > MaxFrameDim || sr.H > MaxFrameDim {
		return nil, fmt.Errorf("core: unreasonable stream geometry %dx%d bpp=%d", sr.W, sr.H, sr.BPP)
	}
	return sr, nil
}

// ReadFrame returns the next encoded frame, or io.EOF at stream end.
func (sr *StreamReader) ReadFrame() (*EncodedFrame, error) {
	ef := new(EncodedFrame)
	if err := sr.readFrameInto(ef); err != nil {
		return nil, err
	}
	return ef, nil
}

// readFrameInto is ReadFrame into ef's buffers (see ReadEncodedFrameInto).
func (sr *StreamReader) readFrameInto(ef *EncodedFrame) error {
	if err := ReadEncodedFrameInto(sr.r, ef); err != nil {
		// Distinguish a clean end (EOF exactly at a frame boundary) from a
		// truncated frame.
		if isCleanEOF(err) {
			return io.EOF
		}
		return err
	}
	if ef.W != sr.W || ef.H != sr.H || ef.BytesPerPixel != sr.BPP {
		return fmt.Errorf("core: stream frame geometry mismatch")
	}
	sr.read++
	return nil
}

// FramesRead returns the number of frames consumed.
func (sr *StreamReader) FramesRead() int { return sr.read }

// isCleanEOF reports whether err is an EOF at a frame boundary (no header
// bytes were read).
func isCleanEOF(err error) bool {
	// ReadEncodedFrame wraps the header read error; an EOF before any
	// header byte surfaces as "short header: EOF".
	type unwrapper interface{ Unwrap() error }
	for e := err; e != nil; {
		if e == io.EOF {
			return true
		}
		u, ok := e.(unwrapper)
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// DecodeStream replays a stream through a decoder, invoking fn with each
// decoded frame in capture order. This is the offline analogue of the live
// pipeline: history accumulates exactly as it did during capture.
//
// Every call of fn receives the same output frame, which the next frame's
// decode overwrites: fn must copy what it keeps. Each frame is read into
// the buffers of the history frame it evicts, so once the history is full
// a stream of steady frame sizes decodes without allocating.
func DecodeStream(r io.Reader, format frame.Format, fn func(frameIndex int, decoded *frame.Frame) error) error {
	sr, err := NewStreamReader(r)
	if err != nil {
		return err
	}
	var (
		dec   *Decoder
		out   *frame.Frame
		spare *EncodedFrame // evicted from the history; refilled next
	)
	for {
		ef := spare
		if ef == nil {
			ef = new(EncodedFrame)
		}
		if err := sr.readFrameInto(ef); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if dec == nil {
			dec = NewDecoder(sr.W, sr.H, format)
			out = frame.New(sr.W, sr.H, format)
		}
		if spare, err = dec.PushEvict(ef); err != nil {
			return err
		}
		if err := dec.DecodeFrameInto(out); err != nil {
			return err
		}
		if err := fn(ef.FrameIndex, out); err != nil {
			return err
		}
	}
}
