package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/region"
)

// This file is the differential correctness harness for the row-sharded
// parallel encode/decode path: the sequential Encoder/Decoder is the
// reference implementation, and the parallel path must be byte-for-byte
// equal to it — payload, row offsets, EncMask, decoded pixels, and work
// counters — across randomized workloads. Failures print the generator
// seed so any case replays deterministically.

// diffParallelisms are the worker counts the differential suite checks
// against the sequential reference, per the acceptance criteria (n=8 must
// be exact).
var diffParallelisms = []int{2, 3, 8}

// genCase is one generated differential case.
type genCase struct {
	w, h   int
	format frame.Format
	labels region.List
	frames []*frame.Frame
}

// genLabels builds a randomized region list over a w x h frame: counts from
// empty to a dozen, overlapping freely, clipped to the frame, strides 1-4,
// skips 1-4 with random phase, with occasional degenerate shapes (empty
// rows between regions, single-pixel-high bands, full-frame coverage).
func genLabels(rng *rand.Rand, w, h int) region.List {
	var ls region.List
	switch rng.Intn(8) {
	case 0:
		// Empty workload: every pixel non-regional.
		return ls
	case 1:
		// Full frame at random rhythm.
		ls = append(ls, region.Label{X: 0, Y: 0, W: w, H: h, Stride: 1 + rng.Intn(4), Skip: 1 + rng.Intn(4)})
	}
	n := rng.Intn(13)
	for i := 0; i < n; i++ {
		lw := 1 + rng.Intn(w)
		lh := 1 + rng.Intn(h)
		if rng.Intn(4) == 0 {
			lh = 1 // single-row region: exercises band-boundary rows
		}
		l := region.Label{
			X:      rng.Intn(w),
			Y:      rng.Intn(h),
			W:      lw,
			H:      lh,
			Stride: 1 + rng.Intn(4),
			Skip:   1 + rng.Intn(4),
		}
		l.Phase = rng.Intn(l.Skip)
		if clipped, ok := region.Clip(l, w, h); ok {
			ls = append(ls, clipped)
		}
	}
	return ls
}

// genFrame fills a frame with seeded noise.
func genFrame(rng *rand.Rand, w, h int, f frame.Format) *frame.Frame {
	fr := frame.New(w, h, f)
	rng.Read(fr.Pix)
	return fr
}

// genDiffCase draws one differential case: geometry (including heights that
// do and do not align with the encoder's 4-row band granularity), labels,
// and a short frame sequence so temporal skip and history resolution are
// exercised.
func genDiffCase(rng *rand.Rand, format frame.Format) genCase {
	w := 8 + rng.Intn(120) // 8..127: odd widths exercise mask packing
	h := 5 + rng.Intn(88)  // 5..92: not multiples of band alignment
	nframes := 1 + rng.Intn(4)
	c := genCase{w: w, h: h, format: format, labels: genLabels(rng, w, h)}
	for i := 0; i < nframes; i++ {
		c.frames = append(c.frames, genFrame(rng, w, h, format))
	}
	return c
}

// encodedEqual asserts two encoded frames match byte for byte in payload,
// offsets, and mask.
func encodedEqual(t *testing.T, tag string, seq, par *EncodedFrame) {
	t.Helper()
	if !bytes.Equal(seq.Pix, par.Pix) {
		t.Fatalf("%s: payload differs (%d vs %d bytes)", tag, len(seq.Pix), len(par.Pix))
	}
	if len(seq.RowOffsets) != len(par.RowOffsets) {
		t.Fatalf("%s: offset table length %d vs %d", tag, len(seq.RowOffsets), len(par.RowOffsets))
	}
	for y, v := range seq.RowOffsets {
		if par.RowOffsets[y] != v {
			t.Fatalf("%s: RowOffsets[%d] = %d, want %d", tag, y, par.RowOffsets[y], v)
		}
	}
	if !seq.Mask.Equal(par.Mask) {
		t.Fatalf("%s: EncMask differs", tag)
	}
}

// TestDifferentialEncodeParallel asserts parallel encode equals sequential
// encode byte for byte across >= 200 generated cases and both pixel
// formats, at every checked worker count.
func TestDifferentialEncodeParallel(t *testing.T) {
	const casesPerFormat = 120 // x2 formats >= 200 total cases
	for _, format := range []frame.Format{frame.Gray8, frame.RGB24} {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x5eed0001 + int64(format)))
			for ci := 0; ci < casesPerFormat; ci++ {
				c := genDiffCase(rng, format)
				tag := fmt.Sprintf("case %d (%dx%d, %d labels, %d frames)", ci, c.w, c.h, len(c.labels), len(c.frames))

				seq := NewEncoder(c.w, c.h, c.format)
				if err := seq.SetRegionLabels(c.labels); err != nil {
					t.Fatalf("%s: sequential labels: %v", tag, err)
				}
				pars := make([]*ParallelEncoder, len(diffParallelisms))
				for i, n := range diffParallelisms {
					pars[i] = NewParallelEncoder(c.w, c.h, c.format, n)
					if err := pars[i].SetRegionLabels(c.labels); err != nil {
						t.Fatalf("%s: parallel labels: %v", tag, err)
					}
				}
				for fi, fr := range c.frames {
					want, err := seq.EncodeFrame(fr, fi)
					if err != nil {
						t.Fatalf("%s: sequential encode: %v", tag, err)
					}
					for i, n := range diffParallelisms {
						got, err := pars[i].EncodeFrame(fr, fi)
						if err != nil {
							t.Fatalf("%s: parallel(n=%d) encode: %v", tag, n, err)
						}
						encodedEqual(t, fmt.Sprintf("%s n=%d frame=%d", tag, n, fi), want, got)
						if err := got.Validate(); err != nil {
							t.Fatalf("%s n=%d: parallel frame invalid: %v", tag, n, err)
						}
					}
				}
				// Work counters are per-row quantities, so the parallel
				// totals must equal the sequential totals exactly.
				for i, n := range diffParallelisms {
					if seqStats, parStats := seq.Stats(), pars[i].Stats(); seqStats != parStats {
						t.Fatalf("%s: stats diverge at n=%d: sequential %+v parallel %+v", tag, n, seqStats, parStats)
					}
				}
			}
		})
	}
}

// TestDifferentialDecodeParallel asserts parallel full-frame and windowed
// decode equal the sequential reference byte for byte, sharing history
// across multi-frame sequences so temporal-skip resolution is covered.
func TestDifferentialDecodeParallel(t *testing.T) {
	const casesPerFormat = 120
	for _, format := range []frame.Format{frame.Gray8, frame.RGB24} {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0xdec0de01 + int64(format)))
			for ci := 0; ci < casesPerFormat; ci++ {
				c := genDiffCase(rng, format)
				tag := fmt.Sprintf("case %d (%dx%d, %d labels, %d frames)", ci, c.w, c.h, len(c.labels), len(c.frames))

				enc := NewEncoder(c.w, c.h, c.format)
				if err := enc.SetRegionLabels(c.labels); err != nil {
					t.Fatalf("%s: labels: %v", tag, err)
				}
				seqDec := NewDecoder(c.w, c.h, c.format)
				parDecs := make([]*Decoder, len(diffParallelisms))
				for i, n := range diffParallelisms {
					parDecs[i] = NewDecoder(c.w, c.h, c.format, WithParallelism(n))
				}
				for fi, fr := range c.frames {
					ef, err := enc.EncodeFrame(fr, fi)
					if err != nil {
						t.Fatalf("%s: encode: %v", tag, err)
					}
					if err := seqDec.Push(ef); err != nil {
						t.Fatalf("%s: push: %v", tag, err)
					}
					for _, pd := range parDecs {
						if err := pd.Push(ef); err != nil {
							t.Fatalf("%s: parallel push: %v", tag, err)
						}
					}
				}

				want, err := seqDec.DecodeFrame()
				if err != nil {
					t.Fatalf("%s: sequential decode: %v", tag, err)
				}
				// A randomized large window plus the full frame per decoder.
				wx, wy := rng.Intn(c.w), rng.Intn(c.h)
				ww, wh := 1+rng.Intn(c.w-wx), 1+rng.Intn(c.h-wy)
				wantWin, err := seqDec.DecodeWindow(wx, wy, ww, wh)
				if err != nil {
					t.Fatalf("%s: sequential window: %v", tag, err)
				}
				for i, n := range diffParallelisms {
					got, err := parDecs[i].DecodeFrame()
					if err != nil {
						t.Fatalf("%s: parallel(n=%d) decode: %v", tag, n, err)
					}
					if !bytes.Equal(want.Pix, got.Pix) {
						t.Fatalf("%s: parallel(n=%d) full decode differs", tag, n)
					}
					gotWin, err := parDecs[i].DecodeWindow(wx, wy, ww, wh)
					if err != nil {
						t.Fatalf("%s: parallel(n=%d) window: %v", tag, n, err)
					}
					if !bytes.Equal(wantWin.Pix, gotWin.Pix) {
						t.Fatalf("%s: parallel(n=%d) window (%d,%d %dx%d) differs", tag, n, wx, wy, ww, wh)
					}
					// Stats parity: every output row is charged exactly once
					// across bands; warm-up rows are discarded on both paths.
					if seqDec.Stats() != parDecs[i].Stats() {
						t.Fatalf("%s: decoder stats diverge at n=%d:\nsequential %+v\nparallel   %+v",
							tag, n, seqDec.Stats(), parDecs[i].Stats())
					}
				}
			}
		})
	}
}

// TestParallelEncoderBandAlignment pins the invariant the lock-free shared
// EncMask depends on: every band boundary sits at a row multiple of the
// mask alignment, so band byte ranges never overlap.
func TestParallelEncoderBandAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(200)
		h := 1 + rng.Intn(200)
		n := 1 + rng.Intn(16)
		p := NewParallelEncoder(w, h, frame.Gray8, n)
		if p.Bands() > n {
			t.Fatalf("%dx%d n=%d: %d bands exceed worker count", w, h, n, p.Bands())
		}
		for bi, b := range p.bands {
			if b[0]%bandAlign != 0 {
				t.Fatalf("%dx%d n=%d: band %d starts at row %d (not %d-aligned)", w, h, n, bi, b[0], bandAlign)
			}
			if (b[0]*w)%4 != 0 {
				t.Fatalf("%dx%d n=%d: band %d mask element %d not byte-aligned", w, h, n, bi, b[0]*w)
			}
		}
	}
}
