package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/rpx"
	"repro/rpx/client"
)

type config struct {
	workload       string
	seed           int64
	seconds, trace int
	binDir, outDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// setupRepeats boots the system this many times per run; setup_s is
	// the median and the last boot is measured.
	setupRepeats = 15
	// warmup runs frames before the measurement window so pools, caches
	// and the policy loop reach steady state.
	warmup = time.Second
	// period is the label schedule's length in frames (cl x fullEvery = 32
	// for relay-qvga, two of the policy's 16-frame full-capture cycles for
	// policy-1080p): any period consecutive frames ask the pipeline for the
	// same mix of full and region frames. Frame latencies are bimodal
	// (frames captured whole cost about twice as much), so the median of
	// single frames falls between the modes and jumps between runs; the
	// median of period means does not.
	period = 32
	// Every sampleEvery-th frame, samplesPerCheck random pixels that the
	// encoder stored are checked against the input.
	sampleEvery     = 4
	samplesPerCheck = 512
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSpans are one frame's benchmark-side layer timings in nanoseconds:
// capture covers the label install (when due) and the Capture round trip,
// deliver the wait from the capture ack until the push stream hands over
// the frame, decode the consumer's reconstruction.
type frameSpans struct {
	end      time.Time
	Frame    int     `json:"frame"`
	E2E      int64   `json:"e2e_ns"`
	Capture  int64   `json:"capture_ns"`
	Deliver  int64   `json:"deliver_ns"`
	Decode   int64   `json:"decode_ns"`
	Bytes    int     `json:"wire_bytes"`
	Fraction float64 `json:"pixel_fraction"`
	Allocs   uint64  `json:"allocs,omitempty"`
	AllocB   uint64  `json:"alloc_bytes,omitempty"`
}

// loop drives one booted system frame by frame.
type loop struct {
	wl    workload
	sc    *scene
	e     *env
	dec   *streamDecoder
	in    *rpx.Frame
	trace bool
	rng   *rand.Rand

	t        int // next frame index
	consumed int // frames received since the last credit grant
	last     *rpx.Frame

	digests       []uint32 // CRC of each frame's reconstruction
	bad           map[int]string
	labelUpdates  int
	storedSamples int
	minFraction   float64
	allocSamples  []metrics.Sample
}

func newLoop(wl workload, sc *scene, e *env, seed int64, trace bool) *loop {
	l := &loop{
		wl: wl, sc: sc, e: e, trace: trace,
		dec:         newStreamDecoder(),
		in:          rpx.NewFrame(wl.w, wl.h, rpx.Gray8),
		rng:         rand.New(rand.NewSource(seed ^ 0x5eed)),
		bad:         map[int]string{},
		minFraction: 1,
		allocSamples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	return l
}

func (l *loop) allocs() (objects, bytes uint64) {
	metrics.Read(l.allocSamples)
	return l.allocSamples[0].Value.Uint64(), l.allocSamples[1].Value.Uint64()
}

// step runs one frame through the closed loop. Transport and protocol
// errors abort the run; wrong outputs are recorded in l.bad.
func (l *loop) step() (frameSpans, error) {
	t := l.t
	l.t++
	l.sc.render(t, l.in)
	sp := frameSpans{Frame: t}
	var o0, b0 uint64
	if l.trace {
		o0, b0 = l.allocs()
	}

	t0 := time.Now()
	if l.wl.policy == "" && t%l.wl.cl == 0 {
		if err := l.e.producer.SetRegionLabels(l.sc.labels(t, l.wl.cl, l.wl.fullEvery)); err != nil {
			return sp, fmt.Errorf("frame %d labels: %w", t, err)
		}
		l.labelUpdates++
	}
	cs, err := l.e.producer.Capture(l.in)
	if err != nil {
		return sp, fmt.Errorf("frame %d capture: %w", t, err)
	}
	t1 := time.Now()
	f, err := l.e.stream.Recv()
	if err != nil {
		return sp, fmt.Errorf("frame %d receive: %w", t, err)
	}
	t2 := time.Now()
	img, err := l.dec.decode(&f)
	if err != nil {
		return sp, fmt.Errorf("frame %d: %w", t, err)
	}
	t3 := time.Now()

	if l.trace {
		o1, b1 := l.allocs()
		sp.Allocs, sp.AllocB = o1-o0, b1-b0
	}
	sp.end = t3
	sp.E2E = t3.Sub(t0).Nanoseconds()
	sp.Capture = t1.Sub(t0).Nanoseconds()
	sp.Deliver = t2.Sub(t1).Nanoseconds()
	sp.Decode = t3.Sub(t2).Nanoseconds()
	sp.Bytes = len(f.Raw)
	sp.Fraction = cs.PixelFraction

	if l.consumed++; l.consumed >= streamCredit/2 {
		if err := l.e.stream.Grant(l.consumed); err != nil {
			return sp, fmt.Errorf("frame %d credit grant: %w", t, err)
		}
		l.consumed = 0
	}
	l.minFraction = min(l.minFraction, cs.PixelFraction)
	l.digests = append(l.digests, crc32.Checksum(img.Pix, castagnoli))
	l.last = img
	l.check(t, cs, &f, img)
	return sp, nil
}

// check verifies what can be verified per frame without a reference: the
// stream is contiguous and lossless, a frame captured whole reconstructs
// the input exactly, and sampled stored pixels equal the input pixels at
// their positions.
func (l *loop) check(t int, cs rpx.CaptureStats, f *client.StreamFrame, img *rpx.Frame) {
	switch {
	case cs.PixelFraction == 1 && !bytes.Equal(img.Pix, l.in.Pix):
		l.bad[t] = "frame captured whole does not reconstruct the input"
		return
	case cs.FrameIndex != t:
		l.bad[t] = fmt.Sprintf("capture ack frame index %d", cs.FrameIndex)
		return
	case f.Seq != uint64(t):
		l.bad[t] = fmt.Sprintf("pushed frame seq %d", f.Seq)
		return
	case f.Dropped != 0:
		l.bad[t] = fmt.Sprintf("stream dropped %d frames", f.Dropped)
		return
	}
	if t%sampleEvery != 0 {
		return
	}
	ef, err := f.Decode()
	if err != nil {
		l.bad[t] = fmt.Sprintf("pushed container: %v", err)
		return
	}
	if ef.FrameIndex != t || ef.W != l.wl.w || ef.H != l.wl.h {
		l.bad[t] = fmt.Sprintf("pushed frame %d is %dx%d", ef.FrameIndex, ef.W, ef.H)
		return
	}
	for k := 0; k < samplesPerCheck; k++ {
		x, y := l.rng.Intn(l.wl.w), l.rng.Intn(l.wl.h)
		px, err := ef.PixelAt(x, y)
		if err != nil {
			continue // not stored in this frame
		}
		l.storedSamples++
		if want := l.in.Pix[y*l.wl.w+x]; px[0] != want {
			l.bad[t] = fmt.Sprintf("stored pixel (%d,%d) = %d, input %d", x, y, px[0], want)
			return
		}
	}
}

// run boots the workload, measures it and verifies its outputs.
func run(ctx context.Context, cfg config) (*result, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	sc := newScene(cfg.seed, wl.w, wl.h, wl.boxes, wl.rois)

	probe := newSpeedProbe()
	var setupSecs []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		probe.measure()
		t0 := time.Now()
		e, err = setup(ctx, wl, cfg.binDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			e.close()
		}
	}
	setupScale := refProbeMs / probe.median()
	l := newLoop(wl, sc, e, cfg.seed, cfg.trace == 1)
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			e.close()
			l.dec.close()
		}
	}
	defer shutdown()

	for start := time.Now(); time.Since(start) < warmup; {
		if _, err := l.step(); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		probe.maybe()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	first := l.t
	var before map[string]float64
	if l.trace {
		if before, err = e.scrapeAll(); err != nil {
			return nil, err
		}
	}
	labelsBefore := l.labelUpdates
	var spans []frameSpans
	window := time.Duration(cfg.seconds) * time.Second
	for start := time.Now(); time.Since(start) < window; {
		sp, err := l.step()
		if err != nil {
			return nil, err
		}
		spans = append(spans, sp)
		probe.maybe()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	var after map[string]float64
	if l.trace {
		if after, err = e.scrapeAll(); err != nil {
			return nil, err
		}
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	// meanMs is a daemon histogram's mean over the window in milliseconds,
	// 0 when the workload does not run that daemon.
	meanMs := func(hist, labels string) float64 {
		if n := delta(hist + "_count" + labels); n > 0 {
			return delta(hist+"_sum"+labels) / n * 1e3
		}
		return 0
	}
	labelUpdates := float64(l.labelUpdates-labelsBefore) + delta("rpxd_stream_labels_total")

	// The producer's own decoder and the consumer's must agree on the
	// newest frame.
	srv, err := e.producer.Decoded()
	if err != nil {
		return nil, fmt.Errorf("producer decode: %w", err)
	}
	serverAgrees := bytes.Equal(srv.Pix, l.last.Pix)
	shutdown()

	var problems []string
	if !serverAgrees {
		problems = append(problems, "producer and consumer reconstructions of the last frame differ")
	}
	if l.storedSamples == 0 {
		problems = append(problems, "no sampled pixel was stored")
	}
	if wl.policy == "" {
		if err := replay(ctx, wl, sc, l.digests, l.bad); err != nil {
			return nil, err
		}
	} else if l.minFraction >= 1 {
		problems = append(problems, "the policy worker never changed the capture workload")
	}
	failed := 0
	for t, why := range l.bad {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf("frame %d: %s", t, why))
		}
		if t >= first {
			failed++
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	res := &result{
		Correct:   len(problems) == 0,
		Attempted: len(spans),
		Failed:    failed,
	}
	// End-to-end times are scaled to the reference host speed (see
	// speedProbe); the raw ones go to standard error.
	raw := make([]float64, len(spans))
	e2e := make([]float64, len(spans))
	for i, sp := range spans {
		raw[i] = float64(sp.E2E) / 1e6
		e2e[i] = raw[i] * probe.scaleAt(sp.end)
	}
	p50, mean := quantile(periodMeans(e2e), 0.5), average(e2e)
	setupS := quantile(setupSecs, 0.5)
	if !l.trace {
		res.Metrics = map[string]metric{
			"period_p50_ms": {p50, "ms"},
			"frame_mean_ms": {mean, "ms"},
			"setup_s":       {setupS * setupScale, "s"},
		}
	} else {
		n := float64(len(spans))
		var capture, deliver, decode, wire, fraction, allocs, allocB float64
		for _, sp := range spans {
			capture += float64(sp.Capture) / 1e6
			deliver += float64(sp.Deliver) / 1e6
			decode += float64(sp.Decode) / 1e6
			wire += float64(sp.Bytes)
			fraction += sp.Fraction
			allocs += float64(sp.Allocs)
			allocB += float64(sp.AllocB)
		}
		const captureOp = `{op="capture"}`
		res.Metrics = map[string]metric{
			"capture_ms":                   {capture / n, "ms"},
			"rpxd_capture_ms":              {meanMs("rpxd_op_latency_seconds", captureOp), "ms"},
			"rpxgw_capture_ms":             {meanMs("rpxgw_proxy_op_latency_seconds", captureOp), "ms"},
			"deliver_ms":                   {deliver / n, "ms"},
			"decode_ms":                    {decode / n, "ms"},
			"wire_bytes_per_frame":         {wire / n, "B"},
			"captured_pixels_pct":          {fraction / n * 100, "%"},
			"consumer_allocs_per_frame":    {allocs / n, "count"},
			"consumer_alloc_kib_per_frame": {allocB / n / 1024, "KiB"},
			"label_updates":                {labelUpdates, "count"},
			"policy_cycle_lag_ms":          {meanMs("rpxpolicy_cycle_lag_seconds", ""), "ms"},
			"policy_frames_pct":            {delta("rpxpolicy_frames_total") / n * 100, "%"},
			// The per-layer times are raw; the probe tells how fast the host
			// ran while they were taken.
			"speed_probe_ms": {probe.median(), "ms"},
			"frames":         {n, "count"},
		}
		if cfg.outDir != "" {
			if err := writeSpans(cfg, spans); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d frames measured after %d warmup; raw p50 %.3f ms mean %.3f ms, scaled p50 %.3f ms mean %.3f ms; probe median %.3f ms over %d; setup raw median %.4f s of %.4f, scaled %.4f s\n",
		wl.name, cfg.seed, len(spans), first, quantile(periodMeans(raw), 0.5), average(raw), p50, mean,
		probe.median(), len(probe.samples), setupS, setupSecs, setupS*setupScale)
	return res, nil
}

// periodMeans returns the mean of each run of period consecutive values,
// or the mean of all of them when there are fewer.
func periodMeans(xs []float64) []float64 {
	var out []float64
	for i := 0; i+period <= len(xs); i += period {
		out = append(out, average(xs[i:i+period]))
	}
	if len(out) == 0 {
		out = append(out, average(xs))
	}
	return out
}

func average(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// replay runs the benchmark's label schedule and inputs through an
// in-process reference pipeline and records every frame whose
// reconstruction differs from the consumer's.
func replay(ctx context.Context, wl workload, sc *scene, digests []uint32, bad map[int]string) error {
	sys, err := rpx.NewSystem(wl.w, wl.h, rpx.Gray8)
	if err != nil {
		return err
	}
	in := rpx.NewFrame(wl.w, wl.h, rpx.Gray8)
	for t, want := range digests {
		if t%wl.cl == 0 {
			if err := sys.SetRegionLabels(sc.labels(t, wl.cl, wl.fullEvery)); err != nil {
				return fmt.Errorf("reference labels %d: %w", t, err)
			}
		}
		sc.render(t, in)
		if _, err := sys.Capture(in); err != nil {
			return fmt.Errorf("reference capture %d: %w", t, err)
		}
		img, err := sys.Decoded()
		if err != nil {
			return fmt.Errorf("reference decode %d: %w", t, err)
		}
		if crc32.Checksum(img.Pix, castagnoli) != want {
			if _, seen := bad[t]; !seen {
				bad[t] = "consumer reconstruction differs from the reference pipeline"
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// writeSpans dumps the per-frame spans of a traced run.
func writeSpans(cfg config, spans []frameSpans) error {
	b, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Frames   []frameSpans `json:"frames"`
	}{cfg.workload, cfg.seed, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}
