package experiments

import (
	"fmt"
	"math"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/features"
	"repro/internal/policy"
	"repro/internal/region"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// FutureWorkResult quantifies the three §7 directions on top of the
// reproduced system:
//
//   - DRAM-less computing: how often the intermediate-frame encoded buffers
//     fit an on-chip SRAM budget, so the system could avoid DRAM entirely
//     between full captures;
//   - Rhythmic pixel camera: the further energy saving from moving the
//     encoder before the CSI link (sensor-side), which shrinks interface
//     traffic to the encoded stream;
//   - Adaptive cycle length: traffic and pixel savings of a motion-adaptive
//     cycle against the best fixed cycle on a mixed-motion sequence.
type FutureWorkResult struct {
	// SRAMBudgetMB is the assumed on-chip buffer budget.
	SRAMBudgetMB float64
	// IntermediateFitFraction is the share of intermediate frames whose
	// encoded frame (payload + metadata) fits the budget.
	IntermediateFitFraction float64
	// MeanIntermediateMB is the average intermediate encoded-frame size.
	MeanIntermediateMB float64

	// CSISavingsMWAtISP and CSISavingsMWInSensor compare encoder placement:
	// at the ISP output the CSI still carries the full stream; inside the
	// camera it carries only encoded pixels.
	CSISavingsMWAtISP    float64
	CSISavingsMWInSensor float64

	// AdaptivePixelFraction and FixedPixelFraction compare stored-pixel
	// shares of the adaptive policy against a fixed CL=10 on a sequence
	// alternating static and fast segments.
	AdaptivePixelFraction float64
	FixedPixelFraction    float64
	// AdaptiveMeanCycle is the average cycle length the adaptive policy
	// chose.
	AdaptiveMeanCycle float64
}

// FutureWork runs the §7 analyses.
func FutureWork(s Scale) (FutureWorkResult, error) {
	out := FutureWorkResult{SRAMBudgetMB: 4}

	// --- DRAM-less: intermediate encoded-frame sizes vs SRAM budget ---
	cfg := slamConfig(s)
	rp, err := workloads.NewRP(cfg.CycleLength, cfg.W, cfg.H)
	if err != nil {
		return out, err
	}
	res, err := workloads.RunSLAM(cfg, rp)
	if err != nil {
		return out, err
	}
	// Evaluate on a 1080p mobile pipeline with 3-byte pixels: the DRAM-less
	// question is whether *intermediate* encoded frames fit an SoC-SRAM
	// class buffer, which is plausible at 1080p (a 4K intermediate frame at
	// ~30% coverage is ~9 MB and still needs DRAM).
	const w, h = 1920, 1080
	scaled := ScaleTrace(res.LabelTrace, cfg.W, cfg.H, w, h)
	meta := float64((w*h+3)/4 + 4*(h+1))
	fit, count := 0, 0
	var sizeSum float64
	var fullPixels, encodedPixels float64
	for t, labels := range scaled {
		counts := core.CountCodes(w, h, t, labels)
		rPix := float64(counts[bitpack.CodeR])
		fullPixels += float64(w * h)
		encodedPixels += rPix
		if t%cfg.CycleLength == 0 {
			continue // full captures go to DRAM regardless
		}
		size := rPix*fig8BPP + meta
		sizeSum += size
		count++
		if size <= out.SRAMBudgetMB*1e6 {
			fit++
		}
	}
	if count > 0 {
		out.IntermediateFitFraction = float64(fit) / float64(count)
		out.MeanIntermediateMB = sizeSum / float64(count) / 1e6
	}

	// --- Rhythmic pixel camera: CSI traffic by encoder placement ---
	// Evaluated at the paper's 4K sensor stream: moving the encoder into
	// the camera shrinks MIPI traffic by the discarded-pixel fraction.
	frames := float64(len(scaled))
	model := energy.Default
	const csiW, csiH = 3840, 2160
	const fps = 30.0
	encodedFraction := encodedPixels / fullPixels
	csiEnergyPerFrame := func(pixels float64) float64 {
		e := model.Energy(energy.Activity{PixelsOverCSI: int64(pixels * frames)})
		return e.CommMJ / frames
	}
	fullCSI := csiEnergyPerFrame(float64(csiW * csiH))
	encCSI := csiEnergyPerFrame(float64(csiW*csiH) * encodedFraction)
	out.CSISavingsMWAtISP = 0 // ISP-output placement leaves CSI untouched
	out.CSISavingsMWInSensor = energy.PowerMW(fullCSI-encCSI, fps)

	// --- Adaptive cycle length on a mixed-motion label trace ---
	adaptive, fixed, meanCycle, err := adaptiveVsFixed(s)
	if err != nil {
		return out, err
	}
	out.AdaptivePixelFraction = adaptive
	out.FixedPixelFraction = fixed
	out.AdaptiveMeanCycle = meanCycle
	return out, nil
}

// adaptiveVsFixed drives the SLAM loop over a static-then-fast sequence
// with an adaptive policy and a fixed CL=10 policy, returning stored-pixel
// fractions and the adaptive policy's mean cycle.
func adaptiveVsFixed(s Scale) (adaptiveFrac, fixedFrac, meanCycle float64, err error) {
	cfg := slamConfig(s)
	world := synth.NewWorld(cfg.WorldSize, cfg.WorldSize, cfg.Seed)
	// Mixed motion: first half static, second half fast.
	half := cfg.Frames / 2
	gtStatic := world.Trajectory(half, cfg.W, cfg.H, synth.ProfileStatic, cfg.Seed+77)
	gtFast := world.Trajectory(cfg.Frames-half, cfg.W, cfg.H, synth.ProfileFast, cfg.Seed+78)
	gt := append(append([]synth.Pose{}, gtStatic...), gtFast...)

	run := func(adaptive bool) (float64, float64, error) {
		var featureLabels region.List
		src := policy.SourceFunc(func(int) region.List { return featureLabels })
		var pol interface {
			Labels(int) region.List
		}
		var ada *policy.AdaptiveCycle
		if adaptive {
			ada = policy.NewAdaptiveCycle(4, 20, cfg.W, cfg.H, 4, src)
			pol = ada
		} else {
			pol = policy.NewCycle(10, cfg.W, cfg.H, src)
		}
		rp, err := workloads.NewRP(10, cfg.W, cfg.H)
		if err != nil {
			return 0, 0, err
		}
		det := policy.DefaultFeatureParams()
		detector := features.NewDetector()
		detector.MaxFeatures = max(60, cfg.W*cfg.H/1400)
		var cycleSum float64
		for t := 0; t < cfg.Frames; t++ {
			labels := pol.Labels(t)
			if len(labels) == 0 {
				labels = region.List{region.FullFrame(cfg.W, cfg.H)}
			}
			in := world.Render(gt[t], cfg.W, cfg.H)
			seen, err := rp.Process(in, t, labels)
			if err != nil {
				return 0, 0, err
			}
			kps := detector.Detect(seen)
			// Scene motion from the camera trajectory — the accelerometer /
			// motion signal §6.1 suggests feeding the policy.
			disp := 0.0
			if t > 0 {
				disp = math.Hypot(gt[t].X-gt[t-1].X, gt[t].Y-gt[t-1].Y)
			}
			featureLabels = policy.FromKeypoints(kps, disp, cfg.W, cfg.H, det)
			if ada != nil {
				ada.ObserveMotion(disp)
				cycleSum += float64(ada.CurrentCycle())
			}
		}
		st := rp.Sys.Stats()
		frac := float64(st.PixelsStored) / float64(st.PixelsIn)
		return frac, cycleSum / float64(cfg.Frames), nil
	}

	adaptiveFrac, meanCycle, err = run(true)
	if err != nil {
		return 0, 0, 0, err
	}
	fixedFrac, _, err = run(false)
	if err != nil {
		return 0, 0, 0, err
	}
	return adaptiveFrac, fixedFrac, meanCycle, nil
}

// Report renders the future-work analysis.
func (r FutureWorkResult) Report() string {
	return table(
		[]string{"Future direction (§7)", "Metric", "Value"},
		[][]string{
			{"DRAM-less computing", fmt.Sprintf("intermediate frames fitting %.0f MB SRAM", r.SRAMBudgetMB),
				fmt.Sprintf("%.0f%%", r.IntermediateFitFraction*100)},
			{"", "mean intermediate encoded frame", fmt.Sprintf("%.2f MB", r.MeanIntermediateMB)},
			{"Rhythmic pixel camera", "CSI power saving, encoder at ISP output", fmt.Sprintf("%.0f mW", r.CSISavingsMWAtISP)},
			{"", "CSI power saving, encoder in sensor", fmt.Sprintf("%.0f mW", r.CSISavingsMWInSensor)},
			{"Adaptive cycle length", "pixels stored (adaptive)", fmt.Sprintf("%.1f%%", r.AdaptivePixelFraction*100)},
			{"", "pixels stored (fixed CL=10)", fmt.Sprintf("%.1f%%", r.FixedPixelFraction*100)},
			{"", "mean adaptive cycle", fmt.Sprintf("%.1f", r.AdaptiveMeanCycle)},
		},
	)
}
