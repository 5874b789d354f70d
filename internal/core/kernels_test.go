package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/frame"
	"repro/internal/region"
)

// Differential tests of the run-level encoder and PMMU kernels against the
// per-pixel oracle in reference_test.go. One byte-driven generator serves
// both the seeded randomized test and the fuzz target, so a fuzzer finding
// is a plain []byte that replays through either.

// kernelFrame is one step of a kernel case: the label list installed before
// the frame (nil keeps the previous list), or, in raw-mask cases, a
// directly built encoded frame.
type kernelFrame struct {
	labels region.List
	pix    *frame.Frame
	raw    *EncodedFrame
}

// kernelCase is one generated workload.
type kernelCase struct {
	w, h    int
	format  frame.Format
	depth   int
	frames  []kernelFrame
	windows [][4]int // x0, y0, w, h
	seed    int64    // drives the PMMU sub-run choices
}

// byteSource turns fuzz bytes into bounded choices; an exhausted source
// yields zeros, so every input maps to some valid case.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) intn(n int) int {
	if n <= 1 || s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return int(b) % n
}

// genKernelCase maps bytes to a workload: widths 1-67, or a multiple of 4
// up to 64 about as often (mask rows then start on bytes, and the encoder
// and PMMU reuse whole rows; otherwise mask bytes straddle rows), heights
// 1-40, Gray8 or RGB24, history depth 1-5 and up to 7 frames. Label cases
// draw up to five overlapping labels per list with strides 1-8 and skips
// 1-4 at any phase, half of them snapped to a 4-pixel grid so uniform mask
// bytes and uniform history bytes occur; lists change between frames.
// Raw-mask cases skip the encoder and build frames from runs of uniform and
// random mask bytes, reaching byte combinations no label list produces.
//
// Committed fuzz inputs rely on the byte draws keeping their order and
// meaning (a first byte below 67 draws the width it always has), so the
// row-reuse extras draw no bytes: they are up to three more frames from a
// second generator seeded from the input's hash. In label cases, some
// strided labels of a new list gain a twin at another lattice phase over
// the same rows. In raw cases, most extra frames copy rows over later rows
// by one pattern the case draws, so the same mask rows recur at different
// row offsets, in some frames of the history but not in others.
func genKernelCase(data []byte) kernelCase {
	s := &byteSource{data: data}
	h64 := fnv.New64a()
	h64.Write(data)
	seed := int64(h64.Sum64())
	rng := rand.New(rand.NewSource(seed))

	c := kernelCase{
		w:     1 + s.intn(100),
		h:     1 + s.intn(40),
		depth: 1 + s.intn(5),
		seed:  seed,
	}
	if c.w > 67 {
		c.w = 4 * (1 + (c.w-68)%16)
	}
	c.format = frame.Gray8
	if s.intn(2) == 1 {
		c.format = frame.RGB24
	}
	raw := s.intn(4) == 0
	nframes := 1 + s.intn(7)
	for fi := 0; fi < nframes; fi++ {
		var kf kernelFrame
		if raw {
			kf.raw = genRawFrame(s, rng, c.w, c.h, formatBPP(c.format), fi)
		} else {
			kf.pix = genFrame(rng, c.w, c.h, c.format)
			if fi == 0 || s.intn(3) == 0 {
				kf.labels = genKernelLabels(s, nil, c.w, c.h)
			}
		}
		c.frames = append(c.frames, kf)
	}
	for i := 0; i < 2; i++ {
		x0, y0 := s.intn(c.w), s.intn(c.h)
		c.windows = append(c.windows, [4]int{x0, y0, 1 + s.intn(c.w-x0), 1 + s.intn(c.h-y0)})
	}

	extra := rand.New(rand.NewSource(^seed))
	copies := make([]int, c.h) // per row, the row it copies, or -1
	for y := range copies {
		copies[y] = -1
		if y > 0 && extra.Intn(3) != 0 {
			copies[y] = y - 1 - extra.Intn(min(y, region.MaxStride+1))
		}
	}
	for n := extra.Intn(4); n > 0; n-- {
		xs := &byteSource{data: make([]byte, 1024)}
		extra.Read(xs.data)
		fi := len(c.frames)
		var kf kernelFrame
		if raw {
			kf.raw = genRawFrame(xs, extra, c.w, c.h, formatBPP(c.format), fi)
			if extra.Intn(4) != 0 {
				copyRows(extra, kf.raw, copies)
			}
		} else {
			kf.pix = genFrame(extra, c.w, c.h, c.format)
			if extra.Intn(2) == 0 {
				kf.labels = genKernelLabels(xs, extra, c.w, c.h)
			}
		}
		c.frames = append(c.frames, kf)
	}
	return c
}

// genFrame fills a frame with seeded noise.
func genFrame(rng *rand.Rand, w, h int, f frame.Format) *frame.Frame {
	fr := frame.New(w, h, f)
	rng.Read(fr.Pix)
	return fr
}

// genKernelLabels draws a label list (possibly empty) over a w x h frame.
// With twins non-nil, it also decides which strided labels get a twin.
func genKernelLabels(s *byteSource, twins *rand.Rand, w, h int) region.List {
	ls := region.List{} // non-nil: an empty list still replaces the previous
	for n := s.intn(6); n > 0; n-- {
		l := region.Label{
			X: s.intn(w), Y: s.intn(h), W: 1 + s.intn(w), H: 1 + s.intn(h),
			Stride: 1 + s.intn(region.MaxStride), Skip: 1 + s.intn(4),
		}
		l.Phase = s.intn(l.Skip)
		if s.intn(2) == 0 { // grid-snapped: whole mask bytes where rows align
			l.X &^= 3
			l.W = (l.W + 3) &^ 3
		}
		if clipped, ok := region.Clip(l, w, h); ok {
			ls = append(ls, clipped)
		}
		if twins != nil && l.Stride > 1 && twins.Intn(2) == 0 {
			// A twin over the same rows, one to Stride-1 rows off the
			// original's lattice, sampled on the same frames: rows with the
			// same sublist then differ only in lattice phase.
			l.Y += 1 + twins.Intn(l.Stride-1)
			l.X = twins.Intn(w)
			if clipped, ok := region.Clip(l, w, h); ok {
				ls = append(ls, clipped)
			}
		}
	}
	return ls
}

// genRawFrame builds a consistent encoded frame from an arbitrary mask:
// runs of one to eight bytes that are all N, St, Sk, R or random, with
// RowOffsets and a payload sized from the mask's R codes.
func genRawFrame(s *byteSource, rng *rand.Rand, w, h, bpp, frameIndex int) *EncodedFrame {
	data := make([]byte, (w*h+3)/4)
	for i := 0; i < len(data); {
		run := 1 + s.intn(8)
		kind := s.intn(5)
		for ; run > 0 && i < len(data); run-- {
			switch kind {
			case 4:
				data[i] = byte(rng.Intn(256))
			default:
				data[i] = []byte{0x00, 0x55, 0xAA, 0xFF}[kind]
			}
			i++
		}
	}
	mask, err := bitpack.FromBytes(data, w*h)
	if err != nil {
		panic(err)
	}
	ef := &EncodedFrame{W: w, H: h, BytesPerPixel: bpp, FrameIndex: frameIndex, Mask: mask}
	ef.RowOffsets = append(ef.RowOffsets, 0)
	for y := 0; y < h; y++ {
		ef.RowOffsets = append(ef.RowOffsets, ef.RowOffsets[y]+uint32(mask.CountRRange(y*w, (y+1)*w)))
	}
	ef.Pix = make([]byte, int(ef.RowOffsets[h])*bpp)
	rng.Read(ef.Pix)
	return ef
}

// copyRows gives each row y of a raw frame with copies[y] >= 0 the codes of
// row copies[y] (rows are copied top down, so a copy of a copy is a copy),
// then recomputes RowOffsets and trims or extends (from rng) the payload to
// the new R count.
func copyRows(rng *rand.Rand, ef *EncodedFrame, copies []int) {
	w := ef.W
	for y, src := range copies {
		for x := 0; src >= 0 && x < w; x++ {
			ef.Mask.Set(y*w+x, ef.Mask.Get(src*w+x))
		}
	}
	for y := 0; y < ef.H; y++ {
		ef.RowOffsets[y+1] = ef.RowOffsets[y] + uint32(ef.Mask.CountRRange(y*w, (y+1)*w))
	}
	n := int(ef.RowOffsets[ef.H]) * ef.BytesPerPixel
	if grow := n - len(ef.Pix); grow > 0 {
		ef.Pix = append(ef.Pix, make([]byte, grow)...)
		rng.Read(ef.Pix[n-grow:])
	}
	ef.Pix = ef.Pix[:n]
}

// serialize returns an encoded frame's RPXE container bytes.
func serialize(ef *EncodedFrame) []byte { return ef.AppendTo(nil) }

// checkKernels runs one case through the production kernels and the
// oracle and fails on the first difference: the encoder's containers and
// EncoderStats, CountCodes against the encoded mask's code histogram,
// decoded full frames and windows with their DecoderStats, and the
// sub-requests and PMMUStats of every row translated whole and as a
// sub-run.
func checkKernels(t *testing.T, c kernelCase) {
	t.Helper()
	ref := newRefEncoder(c.w, c.h, c.format)
	enc := NewEncoder(c.w, c.h, c.format)
	dec := NewDecoder(c.w, c.h, c.format, WithHistoryDepth(c.depth))
	var refHist []*EncodedFrame // newest first
	var refStats DecoderStats
	rng := rand.New(rand.NewSource(c.seed))

	for fi, kf := range c.frames {
		tag := func(what string) string {
			return fmt.Sprintf("%s (%dx%d %v, depth %d, seed %d, frame %d)", what, c.w, c.h, c.format, c.depth, c.seed, fi)
		}
		var want, got *EncodedFrame
		if kf.raw != nil {
			want, got = kf.raw, kf.raw
		} else {
			if kf.labels != nil {
				if err := ref.setRegionLabels(kf.labels); err != nil {
					t.Fatalf("%s: %v", tag("labels"), err)
				}
				if err := enc.SetRegionLabels(kf.labels); err != nil {
					t.Fatalf("%s: %v", tag("labels"), err)
				}
			}
			want = ref.encodeFrame(kf.pix, fi)
			var err error
			if got, err = enc.EncodeFrame(kf.pix, fi); err != nil {
				t.Fatalf("%s: %v", tag("encode"), err)
			}
			if !bytes.Equal(serialize(want), serialize(got)) {
				t.Fatalf("%s: container differs from the reference", tag("encode"))
			}
			if enc.Stats() != ref.stats {
				t.Fatalf("%s: EncoderStats %+v, reference %+v", tag("encode"), enc.Stats(), ref.stats)
			}
			if counts, hist := CountCodes(c.w, c.h, fi, enc.Labels()), want.Mask.Histogram(); counts != hist {
				t.Fatalf("%s: CountCodes %v, encoded mask holds %v", tag("encode"), counts, hist)
			}
		}

		refHist = append([]*EncodedFrame{want}, refHist...)
		if len(refHist) > c.depth {
			refHist = refHist[:c.depth]
		}
		if err := dec.Push(got); err != nil {
			t.Fatalf("%s: %v", tag("push"), err)
		}

		// PMMU: every row whole, then a random sub-run, through one
		// translator each so the reused per-row state is exercised.
		pm, rp := NewPMMU(dec.history, 0), &refPMMU{history: refHist}
		var kept [][2][]SubRequest // TranslateRow's result and the reference's
		for y := 0; y < c.h; y++ {
			x0 := rng.Intn(c.w)
			x1 := x0 + 1 + rng.Intn(c.w-x0)
			for _, run := range [][2]int{{0, c.w}, {x0, x1}} {
				gs, err := pm.TranslateRow(y, run[0], run[1])
				if err != nil {
					t.Fatalf("%s: %v", tag("translate"), err)
				}
				ws, err := rp.translateRow(y, run[0], run[1])
				if err != nil {
					t.Fatalf("%s: %v", tag("reference translate"), err)
				}
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("%s: row %d [%d,%d) sub-requests\n got %+v\nwant %+v", tag("translate"), y, run[0], run[1], gs, ws)
				}
				if pm.Stats() != rp.stats {
					t.Fatalf("%s: row %d [%d,%d) PMMUStats %+v, reference %+v", tag("translate"), y, run[0], run[1], pm.Stats(), rp.stats)
				}
				kept = append(kept, [2][]SubRequest{gs, ws})
			}
		}
		// TranslateRow hands out fresh slices: later rows must not have
		// overwritten earlier results.
		for _, k := range kept {
			if !reflect.DeepEqual(k[0], k[1]) {
				t.Fatalf("%s: result of row %d changed after later translations", tag("translate"), k[1][0].Y)
			}
		}

		// Decoder: the full frame and the case's windows, against the
		// oracle's decode.
		for _, win := range append([][4]int{{0, 0, c.w, c.h}}, c.windows...) {
			wantFr, wantErr := refDecodeWindow(refHist, c.format, win[0], win[1], win[2], win[3], &refStats)
			gotFr, err := dec.DecodeWindow(win[0], win[1], win[2], win[3])
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: window %v: error %v, reference %v", tag("decode"), win, err, wantErr)
			}
			if err == nil && !bytes.Equal(gotFr.Pix, wantFr.Pix) {
				t.Fatalf("%s: window %v differs from the reference", tag("decode"), win)
			}
			if dec.Stats() != refStats {
				t.Fatalf("%s: window %v: DecoderStats\n got %+v\nwant %+v", tag("decode"), win, dec.Stats(), refStats)
			}
		}
	}
}

// TestKernelsMatchReference runs 300 seeded random workloads through
// checkKernels.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6b65726e))
	data := make([]byte, 512)
	for i := 0; i < 300; i++ {
		rng.Read(data)
		checkKernels(t, genKernelCase(data))
	}
}

// FuzzKernelsMatchReference is TestKernelsMatchReference driven by the
// fuzzer: any input is a workload, and every workload must match the
// oracle.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{})
	// 64x16 Gray8, depth 4, five frames under one full-width skip-3 label:
	// uniform Sk bytes resolving against uniform R history bytes.
	f.Add([]byte{63, 15, 3, 0, 1, 4, 1, 0, 0, 64, 16, 0, 2, 0, 0})
	// 13x9 RGB24, depth 5, raw masks.
	f.Add([]byte{12, 8, 4, 1, 0, 6, 3, 0, 7, 1, 2, 2, 5, 4, 8, 3})
	// 30x33, strided and skipped overlapping labels, changing per frame.
	f.Add([]byte{29, 32, 2, 0, 2, 6, 5, 3, 4, 20, 20, 7, 2, 1, 1, 8, 1, 25, 9, 3, 3, 2, 0, 0, 4, 2, 1, 1, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernels(t, genKernelCase(data))
	})
}
