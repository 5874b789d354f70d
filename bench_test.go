// Package bench regenerates every table and figure of the paper as Go
// benchmarks (one per artifact) and adds microbenchmarks and ablations for
// the design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute one full Quick-scale experiment per
// iteration and attach headline numbers as custom metrics, so `go test
// -bench` output doubles as a results summary. cmd/rpxbench prints the
// full tables.
package bench

import (
	"fmt"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/hwmodel"
	"repro/internal/region"
	"repro/internal/synth"
	"repro/rpx"
)

// --- One benchmark per paper artifact ---

// BenchmarkFig3_CaseStudy regenerates Fig. 3: the ORB-SLAM case study.
func BenchmarkFig3_CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RhythmicPixelFraction, "pixel-fraction")
		b.ReportMetric(r.RhythmicATE/r.FrameBasedATE, "ATE-ratio")
	}
}

// BenchmarkTable4_RegionStats regenerates Table 4: observed region
// statistics per task.
func BenchmarkTable4_RegionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgRegions, "slam-avg-regions")
	}
}

// BenchmarkFig8_Traffic regenerates Fig. 8: throughput and footprint for
// every workload x baseline pair.
func BenchmarkFig8_Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var fch, rp10 float64
		for _, r := range rows {
			if r.Workload == "Visual SLAM" && r.System == "FCH" {
				fch = r.ThroughputMBps
			}
			if r.Workload == "Visual SLAM" && r.System == "RP10" {
				rp10 = r.ThroughputMBps
			}
		}
		b.ReportMetric(1-rp10/fch, "slam-traffic-reduction")
	}
}

// BenchmarkFig9a_SLAMAccuracy regenerates Fig. 9a.
func BenchmarkFig9a_SLAMAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9SLAM(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "RP10" {
				b.ReportMetric(r.ATE, "rp10-ate-px")
			}
		}
	}
}

// BenchmarkFig9b_PoseAccuracy regenerates Fig. 9b.
func BenchmarkFig9b_PoseAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9Pose(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "RP10" {
				b.ReportMetric(r.MAP*100, "rp10-mAP-pct")
			}
		}
	}
}

// BenchmarkFig9c_FaceAccuracy regenerates Fig. 9c.
func BenchmarkFig9c_FaceAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9Face(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "RP10" {
				b.ReportMetric(r.MAP*100, "rp10-mAP-pct")
			}
		}
	}
}

// BenchmarkTable5_EncoderScaling regenerates Table 5 (analytic model; the
// companion comparison-work benches below measure the designs' actual
// comparison counts).
func BenchmarkTable5_EncoderScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5()
		for _, r := range rows {
			if r.Design == "hybrid" && r.Regions == 1600 {
				b.ReportMetric(float64(r.LUTs), "hybrid-1600-LUTs")
			}
		}
	}
}

// BenchmarkEnergy_Model regenerates the §6.2 energy analysis.
func BenchmarkEnergy_Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Energy(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SavingsMJPerFrame, "savings-mJ-per-frame")
		b.ReportMetric(r.SavingsMW, "savings-mW")
	}
}

// BenchmarkAppendix_FrameProgressions regenerates Figs. 10-15.
func BenchmarkAppendix_FrameProgressions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Appendix(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Mean intermediate-frame fraction of the first series.
		s := series[0].Fractions
		var sum float64
		for _, f := range s[1 : len(s)-1] {
			sum += f
		}
		b.ReportMetric(100*sum/float64(len(s)-2), "intermediate-pixel-pct")
	}
}

// BenchmarkCLSweep_Tradeoff regenerates the cycle-length sweep.
func BenchmarkCLSweep_Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CLSweep(experiments.Quick, []int{5, 10, 15})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputMBps/rows[len(rows)-1].ThroughputMBps, "cl5-over-cl15-traffic")
	}
}

// --- Core microbenchmarks (§5.1, §6.3 runtime claims) ---

// benchLabels builds n scattered region labels over a w x h frame.
func benchLabels(n, w, h int) region.List {
	var ls region.List
	for i := 0; i < n; i++ {
		l, ok := region.Clip(region.Label{
			X: (i * 131) % (w - 80), Y: (i * 197) % (h - 80),
			W: 40 + i%80, H: 40 + (i*3)%80,
			Stride: 1 + i%3, Skip: 1 + i%3,
		}, w, h)
		if ok {
			ls = append(ls, l)
		}
	}
	return ls.SortByY()
}

// tileGridLabels covers a w x h frame with 16-pixel tiles the way the
// scenario policies do: each tile draws its (stride, skip) from classes by
// a fixed hash of its position, one label spans each horizontal run of
// identical tiles, and a tile's skip phase follows its position.
func tileGridLabels(w, h int, classes [][2]int) region.List {
	const tile = 16
	class := func(c, r int) [2]int {
		hsh := uint32(c*73856093) ^ uint32(r*19349663)
		return classes[int(hsh>>7)%len(classes)]
	}
	var ls region.List
	for r := 0; r*tile < h; r++ {
		for c := 0; c*tile < w; {
			k := class(c, r)
			run := c + 1
			for run*tile < w && class(run, r) == k {
				run++
			}
			l, ok := region.Clip(region.Label{
				X: c * tile, Y: r * tile, W: (run - c) * tile, H: tile,
				Stride: k[0], Skip: k[1], Phase: (c + 31*r) % k[1],
			}, w, h)
			if ok {
				ls = append(ls, l)
			}
			c = run
		}
	}
	return ls.SortByY()
}

// staircaseLabels gives every row of a w x h frame its own one-row label,
// half the frame wide and shifted 7 pixels right of the row above's, with
// every other row skipped on odd frames: no two rows classify alike, and
// no row's mask repeats within region.MaxStride rows, so the encoder and
// the PMMU never reuse a row. It prices the miss path of row reuse.
func staircaseLabels(w, h int) region.List {
	var ls region.List
	for y := 0; y < h; y++ {
		ls = append(ls, region.Label{X: 7 * y % (w - w/2), Y: y, W: w / 2, H: 1, Stride: 1, Skip: 1 + y%2})
	}
	return ls
}

// codecGrids are the label workloads of the codec microbenchmarks beyond
// plain region counts. motion-skip is the motion-skip policy's steady state
// (every tile captured at stride 1, skipped 1, 2 or 3 frames by change
// energy); stride-skip mixes the saliency-stride policy's strides 1, 2 and
// 4 with skips 1 and 2; staircase is staircaseLabels.
var codecGrids = []struct {
	name   string
	labels func(w, h int) region.List
}{
	{"motion-skip", func(w, h int) region.List { return tileGridLabels(w, h, [][2]int{{1, 1}, {1, 2}, {1, 3}, {1, 3}}) }},
	{"stride-skip", func(w, h int) region.List {
		return tileGridLabels(w, h, [][2]int{{1, 1}, {2, 1}, {4, 1}, {2, 2}, {4, 2}})
	}},
	{"staircase", staircaseLabels},
}

// BenchmarkEncoder1080p measures streaming encode of a 1080p frame at
// several region counts — the 2 px/clock claim's software analogue — on
// the tile-grid workloads of the scenario policies, and on a staircase no
// row of which repeats another.
func BenchmarkEncoder1080p(b *testing.B) {
	const w, h = 1920, 1080
	type encCase struct {
		name   string
		labels region.List
	}
	var cases []encCase
	for _, n := range []int{16, 100, 400, 1600} {
		cases = append(cases, encCase{fmt.Sprintf("regions-%d", n), benchLabels(n, w, h)})
	}
	for _, g := range codecGrids {
		cases = append(cases, encCase{g.name, g.labels(w, h)})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			fr := frame.New(w, h, frame.Gray8)
			enc := core.NewEncoder(w, h, frame.Gray8)
			if err := enc.SetRegionLabels(c.labels); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(fr.SizeBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncodeFrame(fr, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSoftwareDecoder1080p measures full-frame decode at the paper's
// reference point: "a few ms of CPU time for a 1080p frame where 30% of the
// pixels are regional pixels", scaling linearly with regional share. The
// tile-grid and staircase cases decode the newest of a warmed 4-frame
// history (the decoder's default depth), so temporally skipped pixels
// resolve against older frames and strided tiles resample, as on a
// policy-steered stream.
func BenchmarkSoftwareDecoder1080p(b *testing.B) {
	for _, pct := range []int{10, 30, 60, 100} {
		b.Run(fmt.Sprintf("regional-%dpct", pct), func(b *testing.B) {
			const w, h = 1920, 1080
			// One region covering pct% of the frame at full density.
			rh := h * pct / 100
			if rh < 1 {
				rh = 1
			}
			labels := region.List{{X: 0, Y: 0, W: w, H: rh, Stride: 1, Skip: 1}}
			fr := frame.New(w, h, frame.Gray8)
			enc := core.NewEncoder(w, h, frame.Gray8)
			if err := enc.SetRegionLabels(labels); err != nil {
				b.Fatal(err)
			}
			ef, err := enc.EncodeFrame(fr, 0)
			if err != nil {
				b.Fatal(err)
			}
			dec := core.NewDecoder(w, h, frame.Gray8)
			if err := dec.Push(ef); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(w * h))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, g := range codecGrids {
		b.Run(g.name, func(b *testing.B) {
			const w, h = 1920, 1080
			enc := core.NewEncoder(w, h, frame.Gray8)
			if err := enc.SetRegionLabels(g.labels(w, h)); err != nil {
				b.Fatal(err)
			}
			dec := core.NewDecoder(w, h, frame.Gray8)
			fr := frame.New(w, h, frame.Gray8)
			for fi := 0; fi < core.DefaultHistoryDepth; fi++ {
				for i := range fr.Pix {
					fr.Pix[i] = byte(i*7 + fi)
				}
				ef, err := enc.EncodeFrame(fr, fi)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.Push(ef); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(w * h))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeWindow measures tiled accelerator-style window requests.
func BenchmarkDecodeWindow(b *testing.B) {
	const w, h = 1920, 1080
	enc := core.NewEncoder(w, h, frame.Gray8)
	if err := enc.SetRegionLabels(benchLabels(400, w, h)); err != nil {
		b.Fatal(err)
	}
	ef, err := enc.EncodeFrame(frame.New(w, h, frame.Gray8), 0)
	if err != nil {
		b.Fatal(err)
	}
	dec := core.NewDecoder(w, h, frame.Gray8)
	if err := dec.Push(ef); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeWindow((i*64)%(w-256), (i*48)%(h-256), 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSystem measures the full capture+decode loop through the
// public API on a synthetic scene.
func BenchmarkEndToEndSystem(b *testing.B) {
	const w, h = 640, 480
	world := synth.NewWorld(1024, 1024, 1)
	in := world.Render(synth.Pose{X: 512, Y: 512}, w, h)
	sys, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetRegionLabels(benchLabels(200, w, h)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w * h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Capture(in); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Decoded(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationComparison compares the comparison-engine designs'
// region-compare work on identical workloads (Table 5's motivation).
func BenchmarkAblationComparison(b *testing.B) {
	const w, h = 1280, 720
	labels := benchLabels(400, w, h)
	for _, d := range []core.Design{core.DesignHybrid, core.DesignParallel, core.DesignNaive} {
		b.Run(d.String(), func(b *testing.B) {
			var stats core.CompareStats
			for i := 0; i < b.N; i++ {
				_, stats = core.ClassifyFrame(w, h, i, labels, d)
			}
			b.ReportMetric(float64(stats.TotalCompares())/float64(w*h), "compares/pixel")
		})
	}
}

// BenchmarkAblationLayout compares the raster-packed encoded layout against
// the grouped per-region (ROI-style) layout on overlapping regions: the
// grouped layout duplicates overlap bytes (§3.2's argument).
func BenchmarkAblationLayout(b *testing.B) {
	const w, h = 1280, 720
	// Heavily overlapping labels, as feature-based policies produce.
	var labels region.List
	for i := 0; i < 300; i++ {
		l, ok := region.Clip(region.Label{
			X: (i * 37) % (w - 200), Y: (i * 53) % (h - 200),
			W: 180, H: 180, Stride: 1, Skip: 1,
		}, w, h)
		if ok {
			labels = append(labels, l)
		}
	}
	labels.SortByY()
	fr := frame.New(w, h, frame.Gray8)

	b.Run("raster-packed", func(b *testing.B) {
		enc := core.NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(labels); err != nil {
			b.Fatal(err)
		}
		var bytes int
		for i := 0; i < b.N; i++ {
			ef, err := enc.EncodeFrame(fr, 0)
			if err != nil {
				b.Fatal(err)
			}
			bytes = ef.TotalBytes()
		}
		b.ReportMetric(float64(bytes)/1e6, "MB/frame")
	})
	b.Run("grouped-roi", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, l := range labels {
				bytes += int64(l.Area()) // each region stored separately
			}
		}
		b.ReportMetric(float64(bytes)/1e6, "MB/frame")
	})
}

// BenchmarkAblationDecodeSearch compares EncMask-metadata decode against a
// decoder that searches region labels per pixel (the scalability argument
// of §3.3: label search grows with region count, metadata does not).
func BenchmarkAblationDecodeSearch(b *testing.B) {
	const w, h = 1280, 720
	for _, n := range []int{16, 100, 400} {
		labels := benchLabels(n, w, h)
		enc := core.NewEncoder(w, h, frame.Gray8)
		if err := enc.SetRegionLabels(labels); err != nil {
			b.Fatal(err)
		}
		ef, err := enc.EncodeFrame(frame.New(w, h, frame.Gray8), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encmask-%dregions", n), func(b *testing.B) {
			dec := core.NewDecoder(w, h, frame.Gray8)
			if err := dec.Push(ef); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("labelsearch-%dregions", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labelSearchDecode(ef, labels)
			}
		})
	}
}

// labelSearchDecode is the strawman decoder: for every pixel it scans the
// region label list to decide regionality, rather than reading the EncMask.
func labelSearchDecode(ef *core.EncodedFrame, labels region.List) *frame.Frame {
	out := frame.New(ef.W, ef.H, frame.Gray8)
	for y := 0; y < ef.H; y++ {
		for x := 0; x < ef.W; x++ {
			for _, l := range labels {
				if l.Contains(x, y) && l.ActiveAt(ef.FrameIndex) && l.OnStride(x, y) {
					if px, err := ef.PixelAt(x, y); err == nil {
						out.Pix[y*ef.W+x] = px[0]
					}
					break
				}
			}
		}
	}
	return out
}

// BenchmarkAblationHistoryDepth measures decode cost against the metadata
// scratchpad depth (the paper fixes 4; deeper history resolves longer skips
// at higher translation cost).
func BenchmarkAblationHistoryDepth(b *testing.B) {
	const w, h = 1280, 720
	labels := region.List{{X: 0, Y: 0, W: w, H: h, Stride: 1, Skip: 6}}
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			enc := core.NewEncoder(w, h, frame.Gray8)
			if err := enc.SetRegionLabels(labels); err != nil {
				b.Fatal(err)
			}
			dec := core.NewDecoder(w, h, frame.Gray8, core.WithHistoryDepth(depth))
			fr := frame.New(w, h, frame.Gray8)
			fr.Fill(128)
			for t := 0; t < depth+1; t++ { // frame 0 active, rest skipped
				ef, err := enc.EncodeFrame(fr, t)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.Push(ef); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(); err != nil {
					b.Fatal(err)
				}
			}
			st := dec.Stats()
			b.ReportMetric(float64(st.Black)/float64(st.PixelsRequested)*100, "unresolved-pct")
		})
	}
}

// BenchmarkAblationReconstructionQuality measures decoded-frame PSNR as a
// function of region stride on a textured scene: the quality ceiling that
// stride-based decimation (nearest-neighbor reconstruction) imposes, which
// is the accuracy side of the stride knob in Table 4.
func BenchmarkAblationReconstructionQuality(b *testing.B) {
	const w, h = 640, 480
	world := synth.NewWorld(1024, 1024, 6)
	in := world.Render(synth.Pose{X: 512, Y: 512}, w, h)
	for _, stride := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("stride-%d", stride), func(b *testing.B) {
			enc := core.NewEncoder(w, h, frame.Gray8)
			labels := region.List{{X: 0, Y: 0, W: w, H: h, Stride: stride, Skip: 1}}
			if err := enc.SetRegionLabels(labels); err != nil {
				b.Fatal(err)
			}
			dec := core.NewDecoder(w, h, frame.Gray8)
			var psnr float64
			for i := 0; i < b.N; i++ {
				ef, err := enc.EncodeFrame(in, 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.Push(ef); err != nil {
					b.Fatal(err)
				}
				out, err := dec.DecodeFrame()
				if err != nil {
					b.Fatal(err)
				}
				psnr, err = frame.PSNR(in, out)
				if err != nil {
					b.Fatal(err)
				}
			}
			if psnr > 1000 {
				psnr = 99 // lossless (stride 1) reports +Inf
			}
			b.ReportMetric(psnr, "PSNR-dB")
		})
	}
}

// BenchmarkAblationRegionGrouping quantifies the paper's §3.4 claim that
// grouping features "into a smaller number of regions ... reduces task
// accuracy and memory efficiency": the same feature set captured as
// per-feature regions, as coalesced overlapping regions, and as k-means
// groups of 16 (the multi-ROI limit), reporting stored pixels per frame.
func BenchmarkAblationRegionGrouping(b *testing.B) {
	const w, h = 1280, 720
	// Feature-like clustered labels.
	var labels region.List
	for c := 0; c < 6; c++ {
		cx, cy := (c*211)%(w-200), (c*157)%(h-200)
		for i := 0; i < 60; i++ {
			l, ok := region.Clip(region.Label{
				X: cx + (i*37)%160, Y: cy + (i*53)%160,
				W: 50, H: 50, Stride: 1 + i%3, Skip: 1 + i%2,
			}, w, h)
			if ok {
				labels = append(labels, l)
			}
		}
	}
	labels.SortByY()
	variants := []struct {
		name string
		ls   region.List
	}{
		{"per-feature", labels},
		{"coalesced", region.MergeOverlapping(labels, 0.25, w, h)},
		{"grouped-16", region.ClusterKMeans(labels, 16, w, h, 1)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var stored int
			for i := 0; i < b.N; i++ {
				counts := core.CountCodes(w, h, 1, v.ls)
				stored = counts[bitpack.CodeR]
			}
			b.ReportMetric(float64(len(v.ls)), "regions")
			b.ReportMetric(float64(stored)/float64(w*h)*100, "stored-pixel-pct")
		})
	}
}

// BenchmarkHWModel exercises the analytic hardware model (cheap; included
// so -bench=. covers the whole reproduction surface).
func BenchmarkHWModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = hwmodel.EncoderResources(core.DesignHybrid, 1600)
		_ = hwmodel.DecoderResources(3840)
		_ = hwmodel.EncoderPowerMW(1600)
	}
}

// BenchmarkEncMaskCountR measures the decoder's hot popcount primitive.
func BenchmarkEncMaskCountR(b *testing.B) {
	m := bitpack.NewMask2(3840)
	m.Fill(500, 3000, bitpack.CodeR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.CountRRange(100, 3700)
	}
}
