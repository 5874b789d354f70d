package policyloop

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/policy"
	"repro/internal/region"
	"repro/internal/slam"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// refMotionUpdate is the float64 oracle for policy.MotionMap.Update: every
// byte's absolute delta is added to its cell as a float64 and each cell is
// divided by the byte count it accumulated.
func refMotionUpdate(m *policy.MotionMap, prev, cur *frame.Frame) {
	sum := make([]float64, len(m.Energy))
	count := make([]int, len(m.Energy))
	bpp := cur.BytesPerPixel()
	stride := cur.Stride()
	for y := 0; y < m.FrameH; y++ {
		rowBase := (y / m.Tile) * m.Cols
		pr := prev.Pix[y*stride : (y+1)*stride]
		cr := cur.Pix[y*stride : (y+1)*stride]
		for x := 0; x < m.FrameW; x++ {
			cell := rowBase + x/m.Tile
			off := x * bpp
			for c := 0; c < bpp; c++ {
				d := int(cr[off+c]) - int(pr[off+c])
				if d < 0 {
					d = -d
				}
				sum[cell] += float64(d)
			}
			count[cell] += bpp
		}
	}
	for i := range m.Energy {
		if count[i] > 0 {
			m.Energy[i] = sum[i] / float64(count[i])
		} else {
			m.Energy[i] = 0
		}
	}
}

// TestMotionMapMatchesFloatOracle: MotionMap.Update's energies are
// bit-identical to the float64 oracle's over random geometries, tile
// pitches 1–20 (so most grids end in ragged edge tiles) and both formats,
// on frames that hit the extremes of the byte range.
func TestMotionMapMatchesFloatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		w, h, tile := 1+rng.Intn(90), 1+rng.Intn(70), 1+rng.Intn(20)
		format := []frame.Format{frame.Gray8, frame.RGB24}[trial%2]
		prev, cur := frame.New(w, h, format), frame.New(w, h, format)
		for i := range cur.Pix {
			switch rng.Intn(4) {
			case 0:
				prev.Pix[i], cur.Pix[i] = 0, 255
			case 1:
				prev.Pix[i], cur.Pix[i] = 255, 0
			default:
				prev.Pix[i], cur.Pix[i] = byte(rng.Intn(256)), byte(rng.Intn(256))
			}
		}
		got, want := policy.NewMotionMap(w, h, tile), policy.NewMotionMap(w, h, tile)
		for i := range got.Energy {
			got.Energy[i] = -1 // stale energy must not survive an update
		}
		if err := got.Update(prev, cur); err != nil {
			t.Fatal(err)
		}
		refMotionUpdate(want, prev, cur)
		for i := range want.Energy {
			if math.Float64bits(got.Energy[i]) != math.Float64bits(want.Energy[i]) {
				t.Fatalf("%dx%d %v tile %d: cell %d energy %v, oracle %v",
					w, h, format, tile, i, got.Energy[i], want.Energy[i])
			}
		}
	}
}

// refWorker is the reference per-frame step: it decodes every pushed frame
// into a fresh frame with DecodeFrame and runs the policy on the last two
// at each cycle boundary, updating the motion grid with the float64
// oracle.
type refWorker struct {
	cl         int
	dec        *core.Decoder
	motion     *policy.MotionMap
	tracker    *slam.System
	pol        policy.Policy
	prev, cur  *frame.Frame
	sinceCycle int
	pushes     int
}

func newRefWorker(t *testing.T, cfg Config) *refWorker {
	pol, err := policy.Build(cfg.Policy, cfg.W, cfg.H, cfg.CycleLength)
	if err != nil {
		t.Fatal(err)
	}
	r := &refWorker{
		cl:     cfg.CycleLength,
		dec:    core.NewDecoder(cfg.W, cfg.H, frame.Format(cfg.Format)),
		motion: policy.NewMotionMap(cfg.W, cfg.H, cfg.Tile),
		pol:    pol,
	}
	if cfg.Features {
		r.tracker = slam.New(slam.DefaultConfig())
	}
	return r
}

func (r *refWorker) step(t *testing.T, f *client.StreamFrame) (region.List, bool) {
	ef, err := f.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dec.Push(ef); err != nil {
		t.Fatal(err)
	}
	img, err := r.dec.DecodeFrame()
	if err != nil {
		t.Fatal(err)
	}
	r.prev, r.cur = r.cur, img
	if r.sinceCycle++; r.sinceCycle < r.cl {
		return nil, false
	}
	r.sinceCycle = 0
	var fb policy.Feedback
	if r.prev != nil {
		refMotionUpdate(r.motion, r.prev, r.cur)
		fb.Motion = r.motion
	}
	if r.tracker != nil {
		step := r.tracker.ProcessFrame(r.cur)
		fb.KeyPoints = step.KeyPoints
		fb.Displacements = step.Displacements
		fb.MeanDisplacement = step.MeanDisplacement
	}
	r.pol.Observe(fb)
	labels := r.pol.Labels(r.pushes)
	r.pushes++
	return labels, true
}

// testLoop builds a Loop for driving its worker directly, without a server.
func testLoop(t *testing.T, cfg Config) *Loop {
	t.Helper()
	cfg.Addr, cfg.Target = "unused", 1
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// renderScene paints frame index of a textured scene: a checkered
// background and two checkered boxes moving at different speeds, each
// channel of an RGB24 frame with its own shading.
func renderScene(fr *rpx.Frame, index int) {
	bpp := fr.Format.BytesPerPixel()
	boxes := [2][2]int{
		{(index * 3) % (fr.W - 12), (index * 2) % (fr.H - 12)},
		{fr.W - 13 - (index*5)%(fr.W-13), (index * 7 / 3) % (fr.H - 12)},
	}
	for y := 0; y < fr.H; y++ {
		for x := 0; x < fr.W; x++ {
			v := 40 + 30*((x/6+y/6)%2)
			for _, b := range boxes {
				if x >= b[0] && x < b[0]+12 && y >= b[1] && y < b[1]+12 {
					v = 150 + 90*((x/3+y/3)%2)
				}
			}
			for c := 0; c < bpp; c++ {
				fr.Pix[(y*fr.W+x)*bpp+c] = byte(v + 9*c)
			}
		}
	}
}

// capture captures frame index of the scene on sys and returns it as the
// push stream would deliver it.
func capture(t *testing.T, sys *rpx.System, fr *rpx.Frame, index int) client.StreamFrame {
	t.Helper()
	renderScene(fr, index)
	cs, err := sys.Capture(fr)
	if err != nil {
		t.Fatal(err)
	}
	return client.StreamFrame{Seq: uint64(cs.FrameIndex), Stats: cs, Raw: sys.LastEncoded().AppendTo(nil)}
}

// TestWorkerMatchesReference closes the loop in process: a producer
// captures a moving scene, the worker and the reference step consume every
// frame, and each cycle's workload — which must be byte-identical between
// the two, in its STREAM_LABELS wire form — is installed on the producer
// for the frames that follow.
func TestWorkerMatchesReference(t *testing.T) {
	type shape struct {
		w, h     int
		format   rpx.Format
		features bool
	}
	shapes := []shape{
		{70, 50, rpx.Gray8, false},
		{70, 50, rpx.RGB24, false},
		{96, 72, rpx.Gray8, true},
	}
	for _, sh := range shapes {
		for _, pol := range []string{"motion-skip", "saliency-stride", "event-change"} {
			for _, cl := range []int{1, 2, 4, 16} {
				name := fmt.Sprintf("%dx%d_%v_features=%v/%s/cl%d", sh.w, sh.h, sh.format, sh.features, pol, cl)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Policy: pol, CycleLength: cl,
						W: sh.w, H: sh.h, Format: sh.format, Features: sh.features,
					}
					w := testLoop(t, cfg).newWorker()
					ref := newRefWorker(t, cfg)
					sys, err := rpx.NewSystem(sh.w, sh.h, sh.format)
					if err != nil {
						t.Fatal(err)
					}
					fr := rpx.NewFrame(sh.w, sh.h, sh.format)
					pushes, steered := 0, false
					for i := 0; i < 6*cl+8; i++ {
						f := capture(t, sys, fr, i)
						steered = steered || f.Stats.PixelFraction < 1
						wantLabels, wantPush := ref.step(t, &f)
						closes, err := w.ingest(&f)
						if err != nil {
							t.Fatal(err)
						}
						if closes != wantPush {
							t.Fatalf("frame %d: worker closes a cycle = %v, reference %v", i, closes, wantPush)
						}
						if !closes {
							continue
						}
						labels, err := w.decide()
						if err != nil {
							t.Fatal(err)
						}
						got, want := wire.AppendLabels(nil, labels), wire.AppendLabels(nil, wantLabels)
						if !bytes.Equal(got, want) {
							t.Fatalf("frame %d: worker pushes %v, reference %v", i, labels, wantLabels)
						}
						pushes++
						if err := sys.SetRegionLabels(labels); err != nil {
							t.Logf("frame %d: producer refuses the workload: %v", i, err)
						}
					}
					if pushes < 6 {
						t.Fatalf("%d workloads pushed, want at least 6", pushes)
					}
					if !steered {
						t.Fatal("the policy never changed the capture workload")
					}
				})
			}
		}
	}
}

// gapFrames records frames 0..n-1 of the scene under labels that skip
// regions at several rates and phases, so reconstructions lean on history.
func gapFrames(t *testing.T, w, h, n int) []client.StreamFrame {
	t.Helper()
	sys, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRegionLabels([]rpx.RegionLabel{
		{X: 0, Y: 0, W: w, H: 16, Stride: 1, Skip: 2, Phase: 1},
		{X: 0, Y: 16, W: w / 2, H: h - 16, Stride: 1, Skip: 3},
		{X: w / 2, Y: 16, W: w - w/2, H: h - 16, Stride: 2, Skip: 4, Phase: 3},
	}); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	frames := make([]client.StreamFrame, n)
	for i := range frames {
		frames[i] = capture(t, sys, fr, i)
	}
	return frames
}

// TestWorkerRestartsOnSeqGap: frames dropped from the stream (a gap in
// Seq) restart the worker's history and cycle, so each reconstruction after
// the gap equals what a decoder fed only the post-gap frames produces, and
// the first post-gap cycle closes CL frames after the gap. A Seq that
// jumps backwards, as numbering restarted after a migration does, is a gap
// too.
func TestWorkerRestartsOnSeqGap(t *testing.T) {
	const w, h, gapFrom, gapTo = 64, 48, 10, 12 // frames 10 and 11 are dropped
	frames := gapFrames(t, w, h, 30)
	for _, cl := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cl%d", cl), func(t *testing.T) {
			l := testLoop(t, Config{Policy: "motion-skip", CycleLength: cl, W: w, H: h, Format: rpx.Gray8})
			wk := l.newWorker()
			fresh := core.NewDecoder(w, h, frame.Gray8)
			var want, wantPrev *frame.Frame
			checked := 0
			for i, f := range frames {
				if i >= gapFrom && i < gapTo {
					continue
				}
				closes, err := wk.ingest(&f)
				if err != nil {
					t.Fatal(err)
				}
				if i < gapTo {
					continue
				}
				ef, err := f.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Push(ef); err != nil {
					t.Fatal(err)
				}
				wantPrev = want
				if want, err = fresh.DecodeFrame(); err != nil {
					t.Fatal(err)
				}
				if after := i - gapTo + 1; closes != (after%cl == 0) {
					t.Fatalf("frame %d, %d after the gap: closes a cycle = %v at CL %d", i, after, closes, cl)
				}
				if !closes {
					continue
				}
				if !wk.cur.Equal(want) {
					t.Fatalf("frame %d reconstructs differently from a decoder fed only the post-gap frames", i)
				}
				if (wk.prev == nil) != (wantPrev == nil) || wk.prev != nil && !wk.prev.Equal(wantPrev) {
					t.Fatalf("frame %d: the previous reconstruction is not the post-gap decoder's", i)
				}
				checked++
				if _, err := wk.decide(); err != nil {
					t.Fatal(err)
				}
			}
			if checked == 0 || l.gaps.Load() != 1 {
				t.Fatalf("%d post-gap cycles checked, %d gaps counted; want some and 1", checked, l.gaps.Load())
			}
			f := frames[0] // numbering restarted
			if _, err := wk.ingest(&f); err != nil {
				t.Fatal(err)
			}
			if got := l.gaps.Load(); got != 2 {
				t.Fatalf("a backward jump in Seq counted %d gaps in total, want 2", got)
			}
		})
	}
}

// TestAllocsPolicyStep pins the worker's per-frame cost once warm: parsing
// each pushed frame into a recycled history frame, pushing it, and the
// cycle's two reconstructions allocate nothing. The workload is a tile grid
// of skipped and strided tiles; its frame sizes repeat every 12 frames, so
// 60 recorded frames fed in a loop give every recycled buffer its largest
// frame within the warm-up.
func TestAllocsPolicyStep(t *testing.T) {
	const w, h, cl, recorded = 160, 120, 4, 60
	for _, format := range []rpx.Format{rpx.Gray8, rpx.RGB24} {
		sys, err := rpx.NewSystem(w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		var labels []rpx.RegionLabel
		for y := 0; y < h; y += 16 {
			for x := 0; x < w; x += 16 {
				k := (x/16 + y/16) % 4
				labels = append(labels, rpx.RegionLabel{
					X: x, Y: y, W: 16, H: min(16, h-y),
					Stride: 1 + k%2, Skip: 1 + k, Phase: (x / 16) % (1 + k),
				})
			}
		}
		if err := sys.SetRegionLabels(labels); err != nil {
			t.Fatal(err)
		}
		fr := rpx.NewFrame(w, h, format)
		frames := make([]client.StreamFrame, recorded)
		for i := range frames {
			frames[i] = capture(t, sys, fr, i)
		}
		wk := testLoop(t, Config{Policy: "motion-skip", CycleLength: cl, W: w, H: h, Format: format}).newWorker()
		seq := 0
		cycle := func() {
			for i := 0; i < cl; i++ {
				f := frames[seq%recorded]
				f.Seq = uint64(seq)
				seq++
				if _, err := wk.ingest(&f); err != nil {
					t.Fatal(err)
				}
			}
		}
		for seq < 2*recorded {
			cycle()
		}
		old := debug.SetGCPercent(-1) // the collector's bookkeeping can add an object
		allocs := testing.AllocsPerRun(20, cycle)
		debug.SetGCPercent(old)
		if allocs != 0 {
			t.Errorf("%v: a warm cycle of %d frames allocates %v objects, want 0", format, cl, allocs)
		}
	}
}
