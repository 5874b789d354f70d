package workloads

import (
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/region"
	"repro/internal/slam"
	"repro/internal/synth"
)

// SLAMConfig describes one V-SLAM run.
type SLAMConfig struct {
	W, H   int
	Frames int
	// CycleLength for the region policy (ignored by frame-based captures,
	// which always see full frames but still record the label trace).
	CycleLength int
	// Profile shapes the camera motion.
	Profile synth.MotionProfile
	// Seed selects the world and trajectory.
	Seed int64
	// WorldSize is the square world canvas side (default 4x the viewport
	// diagonal-ish).
	WorldSize int
}

// DefaultSLAMConfig returns the evaluation shape: 480p-class viewport.
func DefaultSLAMConfig() SLAMConfig {
	return SLAMConfig{
		W: 640, H: 480, Frames: 100, CycleLength: 10,
		Profile: synth.ProfileMedium, Seed: 1, WorldSize: 2048,
	}
}

// SLAMResult reports one run.
type SLAMResult struct {
	System string
	// ATE and ATEStd are the absolute trajectory error RMSE and the
	// stddev of per-frame errors, in world pixels.
	ATE, ATEStd float64
	// RPETrans (px/frame) and RPERot (rad/frame) are relative pose errors.
	RPETrans, RPERot float64
	// LostFrames counts frames where tracking coasted.
	LostFrames int
	// LabelTrace is the per-frame region label list the policy issued
	// (input for the traffic simulator).
	LabelTrace []region.List
	// PixelFractions is stored-pixel fraction per frame for RP captures
	// (nil for others).
	PixelFractions []float64
	// AvgRegions is the mean region count on intermediate frames.
	AvgRegions float64
}

// RunSLAM executes the V-SLAM workload against a capture system.
func RunSLAM(cfg SLAMConfig, cap Capture) (SLAMResult, error) {
	if cfg.WorldSize == 0 {
		cfg.WorldSize = 2048
	}
	world := synth.NewWorld(cfg.WorldSize, cfg.WorldSize, cfg.Seed)
	gt := world.Trajectory(cfg.Frames, cfg.W, cfg.H, cfg.Profile, cfg.Seed+77)

	// Scale the feature budget to resolution like ORB-SLAM does (~1500 at
	// 1080p — roughly one feature per 1400 pixels).
	slamCfg := slam.DefaultConfig()
	slamCfg.Detector.MaxFeatures = max(60, cfg.W*cfg.H/1400)
	sys := slam.New(slamCfg)
	params := policy.DefaultFeatureParams()

	// The policy closes the loop: intermediate frames use regions around
	// the previous frame's features.
	var featureLabels region.List
	src := policy.SourceFunc(func(int) region.List { return featureLabels })
	pol := policy.NewCycle(cfg.CycleLength, cfg.W, cfg.H, src)

	res := SLAMResult{System: cap.Name()}
	var regionCounts []float64
	rp, isRP := cap.(*RP)
	for t := 0; t < cfg.Frames; t++ {
		labels := pol.Labels(t)
		if len(labels) == 0 {
			// No features yet (or policy produced nothing): fall back to a
			// full capture so the system can reacquire.
			labels = region.List{region.FullFrame(cfg.W, cfg.H)}
		}
		res.LabelTrace = append(res.LabelTrace, labels.Clone())
		if !pol.IsFullCapture(t) {
			regionCounts = append(regionCounts, float64(len(labels)))
		}

		in := world.Render(gt[t], cfg.W, cfg.H)
		seen, err := cap.Process(in, t, labels)
		if err != nil {
			return res, err
		}
		step := sys.ProcessFrame(seen)
		if step.Lost {
			res.LostFrames++
		}
		featureLabels = policy.FromKeypointsVel(step.KeyPoints, step.Displacements, step.MeanDisplacement, cfg.W, cfg.H, params)
		if isRP {
			res.PixelFractions = append(res.PixelFractions,
				float64(rp.Sys.Stats().PixelsStored)/float64(rp.Sys.Stats().PixelsIn))
		}
	}

	// Align the estimated trajectory (starting at origin) to ground truth
	// by the first pose, then score.
	est := sys.Trajectory()
	aligned := make([]metrics.Pose2D, len(est))
	for i := range est {
		aligned[i] = metrics.Pose2D{
			X:     est[i].X + gt[0].X,
			Y:     est[i].Y + gt[0].Y,
			Theta: est[i].Theta + gt[0].Theta,
		}
	}
	gtPoses := make([]metrics.Pose2D, len(gt))
	for i, p := range gt {
		gtPoses[i] = metrics.Pose2D{X: p.X, Y: p.Y, Theta: p.Theta}
	}
	var err error
	res.ATE, res.ATEStd, err = metrics.ATE(aligned, gtPoses)
	if err != nil {
		return res, err
	}
	res.RPETrans, res.RPERot, err = metrics.RPE(aligned, gtPoses, 1)
	if err != nil {
		return res, err
	}
	res.AvgRegions = metrics.Mean(regionCounts)
	return res, nil
}
