// Package policyloop closes the rhythmic-pixel control loop over the wire:
// a worker subscribes to a producing session's frame stream (through rpxd
// directly or an rpxgw in front of a fleet), keeps every pushed frame in
// its decoder history, reconstructs the two frames a cycle's policy reads,
// runs a registry-selected policy over the observed scene once per cycle,
// and pushes the resulting region-label workload back to the producer with
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
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/region"
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
	// breaks the subscription, and Run re-attaches. 0 = client default.
	Timeout time.Duration
	// Run re-dials and re-subscribes after every transport error, with
	// exponential backoff. MaxRetries bounds consecutive failed attempts
	// (0 = DefaultMaxRetries; a successful re-attach resets the count);
	// Backoff is the base delay (0 = DefaultBackoff).
	MaxRetries int
	Backoff    time.Duration
	// Metrics, when non-nil, receives the rpxpolicy_* series.
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of loop progress.
type Stats struct {
	// Frames is the number of pushed frames received.
	Frames uint64
	// Cycles is the number of completed observe+push cycles.
	Cycles uint64
	// LabelsPushed counts SetLabels writes; LabelsRejected counts the
	// subset the server refused (bad geometry, or the session closed) —
	// rejections leave the previous workload in force.
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
	gaps         atomic.Uint64
	lastBoundary atomic.Uint64
	steerLag     atomic.Uint64 // latest accepted workload's lag in frames
	steerLagSum  atomic.Uint64 // lags summed over accepted workloads
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
		m.CounterFunc("rpxpolicy_frames_total", "pushed frames received", l.frames.Load)
		m.CounterFunc("rpxpolicy_cycles_total", "completed observe+push policy cycles", l.cycles.Load)
		m.CounterFunc("rpxpolicy_labels_pushed_total", "label workloads pushed to the target", l.pushed.Load)
		m.CounterFunc("rpxpolicy_labels_rejected_total", "pushed workloads the server refused", l.rejected.Load)
		m.CounterFunc("rpxpolicy_reconnects_total", "successful re-attachments after transport errors", l.reconnects.Load)
		m.CounterFunc("rpxpolicy_stream_gaps_total", "Seq discontinuities that restarted the decode history", l.gaps.Load)
		m.GaugeFunc("rpxpolicy_last_boundary", "frame index of the latest accepted workload's boundary",
			func() float64 { return float64(l.lastBoundary.Load()) })
		m.GaugeFunc("rpxpolicy_steer_lag_frames", "latest accepted workload's boundary minus the frame it was observed on",
			func() float64 { return float64(l.steerLag.Load()) })
		m.CounterFunc("rpxpolicy_steer_lag_frames_total", "steering lag in frames summed over accepted workloads", l.steerLagSum.Load)
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
// the producing session ends (returns a "stream ended by server" error
// wrapping the server's *wire.RemoteError), or an unrecoverable error
// occurs. Transport errors — a dropped connection included — re-dial and
// re-subscribe under exponential backoff instead of returning, until
// MaxRetries consecutive attempts have failed.
func (l *Loop) Run(ctx context.Context) error {
	attempts := 0
	for {
		attached, err := l.runOnce(ctx)
		if ctx.Err() != nil {
			return nil
		}
		// A terminal server error means the producer is gone for good
		// (session closed); re-attaching would target a dead id.
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return fmt.Errorf("policyloop: stream ended by server: %w", err)
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
// stream fails, and returns why: a stream has no clean end here, because
// the loop never unsubscribes and a closed producer ends it with an ERROR.
// attached reports whether the subscription was established (used to reset
// the retry budget).
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

	w := l.newWorker()
	// pending holds, oldest first, the Seq of the frame whose observation
	// produced each pushed workload still awaiting its LABELS_APPLIED; the
	// server answers in push order.
	var pending []uint64
	st.OnLabelsApplied(func(la client.LabelsApplied) {
		observed, known := uint64(0), len(pending) > 0
		if known {
			observed, pending = pending[0], pending[1:]
		}
		if la.Err != nil {
			l.rejected.Add(1)
			l.logf("policyloop: workload rejected: %v", la.Err)
			return
		}
		l.lastBoundary.Store(la.AppliedSeq)
		// A boundary below the observed frame means the numbering
		// restarted (a migration) and the difference measures nothing.
		if known && la.AppliedSeq >= observed {
			l.steerLag.Store(la.AppliedSeq - observed)
			l.steerLagSum.Add(la.AppliedSeq - observed)
		}
	})

	consumed := 0
	replenish := max(1, l.cfg.Credit/2)
	for {
		f, err := st.Recv()
		if err != nil {
			return true, fmt.Errorf("policyloop: stream receive: %w", err)
		}
		l.frames.Add(1)
		if consumed++; consumed >= replenish {
			if err := st.Grant(consumed); err != nil {
				return true, fmt.Errorf("policyloop: credit grant: %w", err)
			}
			consumed = 0
		}

		closes, err := w.ingest(&f)
		if err != nil {
			return true, err
		}
		if !closes {
			continue
		}
		start := time.Now()
		labels, err := w.decide()
		if err != nil {
			return true, err
		}
		if err := st.SetLabels(labels); err != nil {
			return true, fmt.Errorf("policyloop: push labels: %w", err)
		}
		pending = append(pending, f.Seq)
		l.lag.Observe(time.Since(start))
		l.pushed.Add(1)
		l.cycles.Add(1)
	}
}

// worker is one attachment's per-frame state: the decoder history every
// pushed frame enters, the two reconstructions the policy compares, and
// the position in the current cycle.
//
// Only the last two frames of each cycle are reconstructed — the prev and
// cur that the motion grid and the tracker read — so a worker with cycle
// length CL decodes 2 of every CL frames (every frame at CL 1). The rest
// are parsed and pushed, because later frames resolve temporally skipped
// pixels against them. Parsing reuses the buffers of the history frame the
// push evicts, and reconstruction alternates between two frames, so once
// warm a frame costs no allocation.
type worker struct {
	l       *Loop
	dec     *core.Decoder
	motion  *policy.MotionMap
	tracker *slam.System

	rd    bytes.Reader       // reads the frame being parsed
	spare *core.EncodedFrame // evicted from the history; parsed into next
	out   [2]*frame.Frame    // the reconstructions prev and cur point to

	prev, cur  *frame.Frame
	nextSeq    uint64 // Seq the next frame must carry to continue the history
	sinceCycle int    // frames of the current cycle consumed
	pushes     int    // workloads produced since the last restart
}

func (l *Loop) newWorker() *worker {
	w := &worker{
		l:      l,
		motion: policy.NewMotionMap(l.cfg.W, l.cfg.H, l.cfg.Tile),
	}
	if l.cfg.Features {
		w.tracker = slam.New(slam.DefaultConfig())
	}
	w.restart()
	return w
}

// restart begins the worker's history and cycle afresh, as a new
// attachment does.
func (w *worker) restart() {
	w.dec = core.NewDecoder(w.l.cfg.W, w.l.cfg.H, frame.Format(w.l.cfg.Format))
	w.prev, w.cur = nil, nil
	w.sinceCycle, w.pushes = 0, 0
}

// ingest parses f into the history and reconstructs it when the policy
// will read it, reporting whether f closes a cycle; decide then produces
// the cycle's workload.
//
// The decoder resolves a skipped pixel against the newest older frame that
// captured it, so its history must be the frames the producer captured, in
// order. A frame whose Seq does not follow the last one — frames dropped
// for lack of credit, or numbering that restarted after a migration —
// therefore restarts the history and the cycle instead of joining them.
func (w *worker) ingest(f *client.StreamFrame) (closes bool, err error) {
	if w.dec.HistoryLen() > 0 && f.Seq != w.nextSeq {
		w.l.gaps.Add(1)
		w.l.logf("policyloop: stream jumped from frame %d to %d; restarting history", w.nextSeq, f.Seq)
		w.restart()
	}
	ef := w.spare
	if ef == nil {
		ef = new(core.EncodedFrame)
	}
	w.rd.Reset(f.Raw)
	if err := core.ReadEncodedFrameInto(&w.rd, ef); err != nil {
		return false, fmt.Errorf("policyloop: frame %d container: %w", f.Seq, err)
	}
	if w.spare, err = w.dec.PushEvict(ef); err != nil {
		return false, fmt.Errorf("policyloop: frame %d: %w", f.Seq, err)
	}
	w.nextSeq = f.Seq + 1

	cl := w.l.cfg.CycleLength
	w.sinceCycle++
	if w.sinceCycle >= cl-1 {
		k := 0
		if w.out[k] == w.cur {
			k = 1
		}
		if w.out[k] == nil { // allocated on first use, not at attachment
			w.out[k] = frame.New(w.l.cfg.W, w.l.cfg.H, frame.Format(w.l.cfg.Format))
		}
		img := w.out[k]
		if err := w.dec.DecodeFrameInto(img); err != nil {
			return false, fmt.Errorf("policyloop: decode frame %d: %w", f.Seq, err)
		}
		w.prev, w.cur = w.cur, img
	}
	if w.sinceCycle < cl {
		return false, nil
	}
	w.sinceCycle = 0
	return true, nil
}

// decide runs the policy over the cycle's last two reconstructions and
// returns the next workload.
func (w *worker) decide() (region.List, error) {
	var fb policy.Feedback
	if w.prev != nil {
		if err := w.motion.Update(w.prev, w.cur); err != nil {
			return nil, fmt.Errorf("policyloop: motion update: %w", err)
		}
		fb.Motion = w.motion
	}
	if w.tracker != nil {
		step := w.tracker.ProcessFrame(w.cur)
		fb.KeyPoints = step.KeyPoints
		fb.Displacements = step.Displacements
		fb.MeanDisplacement = step.MeanDisplacement
	}
	w.l.pol.Observe(fb)
	labels := w.l.pol.Labels(w.pushes)
	w.pushes++
	return labels, nil
}
