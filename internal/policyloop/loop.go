// Package policyloop closes the rhythmic-pixel control loop over the wire:
// a worker subscribes to a producing session's frame stream (through rpxd
// directly or an rpxgw in front of a fleet), decodes the pushed frames, runs
// a registry-selected policy over the observed scene once per cycle, and
// pushes the resulting region-label workload back to the producer with
// in-stream label feedback (Stream.SetLabels).
//
// The paper's evaluations drive policies offline from ground truth; this
// package is the deployment shape §4.3.1 implies — the policy lives in a
// separate process from the capture pipeline, sees only what the sensor
// actually encoded, and steers the sensor's rhythm for the frames that
// follow. The server guarantees a deterministic boundary for every pushed
// workload (LABELS_APPLIED carries the first frame index captured under the
// new labels), so the loop's effect on the stream is exact, not
// best-effort.
package policyloop

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/slam"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// Default knobs.
const (
	DefaultCredit      = 64
	DefaultBatch       = 8
	DefaultCycleLength = 4
	DefaultMaxRetries  = 5
	DefaultBackoff     = 100 * time.Millisecond
	maxBackoff         = 5 * time.Second
)

// Config parameterizes a Loop.
type Config struct {
	// Addr is the rpxd (or rpxgw) address to dial.
	Addr string
	// Target is the producing session's server-assigned id whose stream the
	// loop steers.
	Target uint64
	// Policy selects the region policy by registry name (policy.Names).
	Policy string
	// CycleLength is the loop cadence: the policy observes the scene and
	// pushes a fresh workload once every CycleLength streamed frames. The
	// policy's own full-frame renewal cycle runs in push units, so complete
	// scene coverage recurs every CycleLength pushes. 0 selects
	// DefaultCycleLength.
	CycleLength int
	// W, H, Format describe the target session's frames — the geometry the
	// loop's decoder reconstructs. (The loop's own wire session is a minimal
	// placeholder; only the subscription matters.)
	W, H   int
	Format rpx.Format
	// Tile is the motion-grid pitch in pixels (0 = policy.DefaultMotionTile).
	Tile int
	// Features enables the feature/track frontend: keypoints, per-feature
	// displacements, and the global motion estimate from an incremental
	// matcher feed the policy alongside the motion grid. Gray8 targets only.
	Features bool
	// Credit is the push credit window in frames (0 = DefaultCredit); Batch
	// bounds frames per FRAME_PUSH (0 = DefaultBatch).
	Credit, Batch int
	// Timeout bounds each stream read; a producer idle longer than this
	// breaks the subscription (and Reconnect re-attaches). 0 = client
	// default.
	Timeout time.Duration
	// Reconnect re-dials and re-subscribes after transport errors, with
	// exponential backoff. MaxRetries bounds consecutive failed attempts
	// (0 = DefaultMaxRetries; a successful re-attach resets the count);
	// Backoff is the base delay (0 = DefaultBackoff).
	Reconnect  bool
	MaxRetries int
	Backoff    time.Duration
	// Metrics, when non-nil, receives the rpxpolicy_* series.
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of loop progress.
type Stats struct {
	// Frames is the number of pushed frames received and decoded.
	Frames uint64
	// Cycles is the number of completed observe+push cycles.
	Cycles uint64
	// LabelsPushed counts SetLabels writes; LabelsRejected counts the
	// subset the server refused (bad geometry, backlog) — rejections leave
	// the previous workload in force.
	LabelsPushed   uint64
	LabelsRejected uint64
	// Reconnects counts successful re-attachments after transport errors.
	Reconnects uint64
	// LastBoundary is the most recent LABELS_APPLIED frame index: every
	// frame from it on was captured under the loop's latest accepted
	// workload.
	LastBoundary uint64
}

// Loop is a running closed-loop policy worker. Construct with New, drive
// with Run.
type Loop struct {
	cfg Config
	pol policy.Policy

	// everAttached distinguishes the first subscription from re-attachments
	// (only Run's goroutine touches it).
	everAttached bool

	frames       atomic.Uint64
	cycles       atomic.Uint64
	pushed       atomic.Uint64
	rejected     atomic.Uint64
	reconnects   atomic.Uint64
	lastBoundary atomic.Uint64
	lag          *obs.Histogram
}

// New validates the configuration and builds the policy. An unknown policy
// name fails here, listing the registered names.
func New(cfg Config) (*Loop, error) {
	if cfg.Addr == "" {
		return nil, errors.New("policyloop: no server address")
	}
	if cfg.Target == 0 {
		return nil, errors.New("policyloop: no target session id")
	}
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("policyloop: invalid target geometry %dx%d", cfg.W, cfg.H)
	}
	if cfg.CycleLength <= 0 {
		cfg.CycleLength = DefaultCycleLength
	}
	if cfg.Credit <= 0 {
		cfg.Credit = DefaultCredit
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.Features && cfg.Format != rpx.Gray8 {
		return nil, fmt.Errorf("policyloop: feature frontend needs Gray8 frames, target is %v", cfg.Format)
	}
	pol, err := policy.Build(cfg.Policy, cfg.W, cfg.H, cfg.CycleLength)
	if err != nil {
		return nil, err
	}
	l := &Loop{cfg: cfg, pol: pol, lag: &obs.Histogram{}}
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("rpxpolicy_frames_total", "pushed frames received and decoded", l.frames.Load)
		m.CounterFunc("rpxpolicy_cycles_total", "completed observe+push policy cycles", l.cycles.Load)
		m.CounterFunc("rpxpolicy_labels_pushed_total", "label workloads pushed to the target", l.pushed.Load)
		m.CounterFunc("rpxpolicy_labels_rejected_total", "pushed workloads the server refused", l.rejected.Load)
		m.CounterFunc("rpxpolicy_reconnects_total", "successful re-attachments after transport errors", l.reconnects.Load)
		m.GaugeFunc("rpxpolicy_last_boundary", "frame index of the latest accepted workload's boundary",
			func() float64 { return float64(l.lastBoundary.Load()) })
		m.RegisterHistogram("rpxpolicy_cycle_lag_seconds", "observe-to-push latency per policy cycle", l.lag)
	}
	return l, nil
}

// Stats returns a snapshot of the loop counters. Safe concurrently with Run.
func (l *Loop) Stats() Stats {
	return Stats{
		Frames:         l.frames.Load(),
		Cycles:         l.cycles.Load(),
		LabelsPushed:   l.pushed.Load(),
		LabelsRejected: l.rejected.Load(),
		Reconnects:     l.reconnects.Load(),
		LastBoundary:   l.lastBoundary.Load(),
	}
}

func (l *Loop) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// Run drives the loop until ctx is cancelled (returns nil: graceful drain),
// the producing session ends (returns nil: the stream's natural end), or an
// unrecoverable error occurs. With Reconnect set, transport errors re-dial
// and re-subscribe under exponential backoff instead of returning.
func (l *Loop) Run(ctx context.Context) error {
	attempts := 0
	for {
		attached, err := l.runOnce(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if err == nil {
			return nil
		}
		// A terminal server error means the producer is gone for good
		// (session closed); re-attaching would target a dead id.
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return fmt.Errorf("policyloop: stream ended by server: %w", err)
		}
		if !l.cfg.Reconnect {
			return err
		}
		if attached {
			attempts = 0
		}
		attempts++
		if attempts > l.cfg.MaxRetries {
			return fmt.Errorf("policyloop: giving up after %d attempts: %w", attempts-1, err)
		}
		delay := min(l.cfg.Backoff<<(attempts-1), maxBackoff)
		l.logf("policyloop: %v; re-attaching in %v (attempt %d/%d)", err, delay, attempts, l.cfg.MaxRetries)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
	}
}

// runOnce dials, subscribes, and runs the decode/observe/push loop until the
// stream ends or errors. attached reports whether the subscription was
// established (used to reset the retry budget).
func (l *Loop) runOnce(ctx context.Context) (attached bool, err error) {
	// The loop's own session is a minimal placeholder — only the
	// subscription (and its label-feedback channel) matters.
	sess, err := client.Dial(l.cfg.Addr, client.Config{
		W: 8, H: 8, Format: rpx.Gray8,
		RequestTimeout: l.cfg.Timeout,
	})
	if err != nil {
		return false, fmt.Errorf("policyloop: dial %s: %w", l.cfg.Addr, err)
	}
	defer sess.Close()

	st, err := sess.Subscribe(client.SubscribeOptions{
		Target: l.cfg.Target,
		Credit: l.cfg.Credit,
		Batch:  l.cfg.Batch,
	})
	if err != nil {
		return false, fmt.Errorf("policyloop: subscribe to session %d: %w", l.cfg.Target, err)
	}
	if l.everAttached {
		l.reconnects.Add(1)
	}
	l.everAttached = true
	l.logf("policyloop: attached to session %d (policy %s, CL %d, credit %d)",
		l.cfg.Target, l.cfg.Policy, l.cfg.CycleLength, l.cfg.Credit)
	st.OnLabelsApplied(func(la client.LabelsApplied) {
		if la.Err != nil {
			l.rejected.Add(1)
			l.logf("policyloop: workload rejected: %v", la.Err)
			return
		}
		l.lastBoundary.Store(la.AppliedSeq)
	})

	// Recv blocks in a read; cancelling ctx closes the session underneath it
	// so the drain is prompt. watcherDone keeps the watcher from outliving
	// this attachment and closing a future session's connection.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			sess.Close()
		case <-watcherDone:
		}
	}()

	dec := core.NewDecoder(l.cfg.W, l.cfg.H, frame.Format(l.cfg.Format))
	motion := policy.NewMotionMap(l.cfg.W, l.cfg.H, l.cfg.Tile)
	var tracker *slam.System
	if l.cfg.Features {
		tracker = slam.New(slam.DefaultConfig())
	}

	var prev, cur *frame.Frame
	sinceCycle := 0
	pushes := 0
	consumed := 0
	replenish := max(1, l.cfg.Credit/2)
	for {
		f, err := st.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return true, nil
			}
			return true, fmt.Errorf("policyloop: stream receive: %w", err)
		}
		l.frames.Add(1)
		if consumed++; consumed >= replenish {
			if err := st.Grant(consumed); err != nil {
				return true, fmt.Errorf("policyloop: credit grant: %w", err)
			}
			consumed = 0
		}

		ef, err := f.Decode()
		if err != nil {
			return true, fmt.Errorf("policyloop: frame %d container: %w", f.Seq, err)
		}
		if err := dec.Push(ef); err != nil {
			return true, fmt.Errorf("policyloop: frame %d: %w", f.Seq, err)
		}
		img, err := dec.DecodeFrame()
		if err != nil {
			return true, fmt.Errorf("policyloop: decode frame %d: %w", f.Seq, err)
		}
		prev, cur = cur, img

		if sinceCycle++; sinceCycle < l.cfg.CycleLength {
			continue
		}
		sinceCycle = 0
		start := time.Now()
		var fb policy.Feedback
		if prev != nil {
			if err := motion.Update(prev, cur); err != nil {
				return true, fmt.Errorf("policyloop: motion update: %w", err)
			}
			fb.Motion = motion
		}
		if tracker != nil {
			step := tracker.ProcessFrame(cur)
			fb.KeyPoints = step.KeyPoints
			fb.Displacements = step.Displacements
			fb.MeanDisplacement = step.MeanDisplacement
		}
		l.pol.Observe(fb)
		labels := l.pol.Labels(pushes)
		pushes++
		if err := st.SetLabels(labels); err != nil {
			return true, fmt.Errorf("policyloop: push labels: %w", err)
		}
		l.lag.Observe(time.Since(start))
		l.pushed.Add(1)
		l.cycles.Add(1)
	}
}
