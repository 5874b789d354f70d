// Package rpx is the public API of the rhythmic pixel regions system — the
// visual sensing pipeline of Kodukula et al., "Rhythmic Pixel Regions:
// Multi-resolution Visual Sensing System towards High-Precision Visual
// Computing at Low Power" (ASPLOS 2021) — reproduced in pure Go.
//
// The central abstraction is the RegionLabel: a rectangular neighborhood of
// pixels with its own spatial resolution (Stride) and temporal rate (Skip).
// An application registers hundreds of labels per frame; the encoder packs
// only the matching pixels (plus compact metadata) into memory, and the
// decoder reconstructs ordinary frames — or any sub-window — on demand, so
// existing vision code runs unmodified while DRAM traffic drops by the
// fraction of pixels discarded.
//
// Basic use:
//
//	sys, _ := rpx.NewSystem(640, 480, rpx.Gray8)
//	sys.SetRegionLabels([]rpx.RegionLabel{{X: 100, Y: 80, W: 200, H: 160, Stride: 2, Skip: 1}})
//	sys.Capture(inputFrame)          // encode into the (simulated) framebuffer
//	out, _ := sys.Decoded()          // reconstruct for the vision algorithm
//
// Policies (see NewCyclePolicy, FeatureRegions, BoxRegions) close the loop
// from vision results back to the next frame's labels.
//
// Replay paths reuse their buffers: DecodeStream reads each frame into the
// storage of the history frame it evicts and decodes into one output
// frame, so its callback sees a frame that the next decode overwrites.
package rpx

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/features"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/region"
	"repro/internal/synth"
)

// RegionLabel describes one rhythmic pixel region: position, extent,
// spatial stride, and temporal skip (see the package documentation).
type RegionLabel = region.Label

// RegionList is a capture workload of region labels.
type RegionList = region.List

// Frame is a raster-scan pixel buffer.
type Frame = frame.Frame

// Format selects the pixel format of a pipeline.
type Format = frame.Format

// Pixel formats.
const (
	Gray8  = frame.Gray8
	RGB24  = frame.RGB24
	YUV444 = frame.YUV444
)

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int, f Format) *Frame { return frame.New(w, h, f) }

// FullFrame returns a label covering the whole frame at full density.
func FullFrame(w, h int) RegionLabel { return region.FullFrame(w, h) }

// KeyPoint is a detected visual feature (ORB-style).
type KeyPoint = features.KeyPoint

// FeatureDetector extracts keypoints from frames.
type FeatureDetector = features.Detector

// NewFeatureDetector returns a detector with ORB-like defaults.
func NewFeatureDetector() *FeatureDetector { return features.NewDetector() }

// Box is an axis-aligned bounding box used by box-driven policies.
type Box = synth.Box

// EncodedFrame is the packed in-memory representation of one captured
// frame.
type EncodedFrame = core.EncodedFrame

// CaptureStats reports one Capture call.
type CaptureStats struct {
	// FrameIndex is the temporal index assigned to the frame.
	FrameIndex int
	// EncodedPixels is the number of pixels stored.
	EncodedPixels int
	// EncodedBytes is payload plus metadata written to the framebuffer.
	EncodedBytes int
	// PixelFraction is EncodedPixels / (W*H).
	PixelFraction float64
}

// SystemStats aggregates traffic over a System's lifetime.
type SystemStats struct {
	FramesCaptured  int
	BytesWritten    int64 // encoded payload + metadata into the framebuffer
	BytesRead       int64 // decoder fetches from the framebuffer
	PixelsIn        int64 // pixels consumed from the sensor stream
	PixelsStored    int64 // pixels surviving encoding
	RegisterUpdates int64 // AXI-lite writes for label configuration
}

// ReductionVsFrameBased returns the write-traffic reduction against storing
// every frame in full: 0.6 means 60% fewer bytes written.
func (s SystemStats) ReductionVsFrameBased(bytesPerPixel int) float64 {
	full := s.PixelsIn * int64(bytesPerPixel)
	if full == 0 {
		return 0
	}
	return 1 - float64(s.BytesWritten)/float64(full)
}

// System ties together the runtime (SetRegionLabels register path), the
// rhythmic pixel encoder, the simulated framebuffer, and the decoder.
//
// Concurrency contract: a System is single-goroutine for its operations —
// SetRegionLabels, Capture, Decoded, DecodeWindow, and LastEncoded must all
// be issued from one goroutine (or be externally serialized). The read-only
// statistics accessors Stats, EncoderStats, and DecoderStats are the
// exception: they return snapshots taken under an internal mutex and are
// safe to call concurrently from a monitoring goroutine while captures are
// in flight.
type System struct {
	w, h   int
	format Format

	enc *core.Encoder
	dec *core.Decoder
	rt  *driver.Runtime

	frameIndex int
	last       *core.EncodedFrame

	// pool recycles encoded-frame storage: frames evicted from the
	// decoder's history ring feed the encoder's next output. Owned by the
	// operations goroutine, like the encoder it serves.
	pool *core.FramePool

	// tracer, when non-nil, receives frame-path spans (commit → encode →
	// push → decode) tagged with tracerTag. Mutated only through SetTracer
	// under the single-goroutine contract.
	tracer    *obs.Tracer
	tracerTag uint64

	// statsMu guards the snapshot fields below, which mutating operations
	// refresh and the concurrent-safe accessors read.
	statsMu  sync.Mutex
	stats    SystemStats
	encStats core.EncoderStats
	decStats core.DecoderStats
}

// Option configures a System.
type Option func(*options)

type options struct {
	firstFrameIndex int
}

// WithFirstFrameIndex sets the temporal index of the first captured frame
// (default 0); region skip phases are evaluated against this index.
func WithFirstFrameIndex(i int) Option { return func(o *options) { o.firstFrameIndex = i } }

// NewSystem creates a rhythmic pixel pipeline for w x h frames. Its
// hardware is the paper's: the decoder resolves temporally skipped pixels
// against the 4 most recent encoded frames (§4.2), and the register file
// holds 1600 region labels (the hybrid encoder of Table 5).
func NewSystem(w, h int, format Format, opts ...Option) (*System, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("rpx: invalid dimensions %dx%d", w, h)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	enc := core.NewEncoder(w, h, format)
	pool := &core.FramePool{}
	enc.SetFramePool(pool)
	dec := core.NewDecoder(w, h, format)
	rt := driver.NewRuntime(w, h, driver.NewRegisterFile(driver.DefaultMaxRegions), enc)
	return &System{
		w: w, h: h, format: format,
		enc: enc, dec: dec, rt: rt, pool: pool,
		frameIndex: o.firstFrameIndex,
	}, nil
}

// Dimensions returns the pipeline frame size.
func (s *System) Dimensions() (w, h int) { return s.w, s.h }

// SetRegionLabels installs the capture workload through the runtime and
// driver register path. The list lands in the driver's shadow registers and
// takes effect at the next Capture (the frame boundary), as on the real
// hardware; labels persist across frames until replaced. An empty list
// discards every pixel until new labels arrive.
func (s *System) SetRegionLabels(labels []RegionLabel) error {
	return s.rt.SetRegionLabels(RegionList(labels))
}

// Labels returns the currently installed (y-sorted) labels.
func (s *System) Labels() RegionList { return s.enc.Labels() }

// FrameIndex returns the index the next Capture will use.
func (s *System) FrameIndex() int { return s.frameIndex }

// Capture streams a frame through the encoder into the framebuffer and
// makes it the decoder's newest frame. Pending SetRegionLabels writes are
// committed at this frame boundary. When a tracer is attached, the three
// capture-side frame-path spans are recorded: commit (the label registers'
// commit), encode (classification and packing, carrying the encoded bytes)
// and push (the decoder history push).
func (s *System) Capture(fr *Frame) (CaptureStats, error) {
	var t0 time.Time
	if s.tracer != nil {
		t0 = time.Now()
	}
	if err := s.rt.FrameBoundary(); err != nil {
		return CaptureStats{}, err
	}
	t0 = s.span(obs.SpanCommit, s.frameIndex, t0, 0)
	ef, err := s.enc.EncodeFrame(fr, s.frameIndex)
	if err != nil {
		return CaptureStats{}, err
	}
	t0 = s.span(obs.SpanEncode, s.frameIndex, t0, ef.TotalBytes())
	evicted, err := s.dec.PushEvict(ef)
	if err != nil {
		return CaptureStats{}, err
	}
	s.span(obs.SpanPush, s.frameIndex, t0, 0)
	s.last = ef
	// The frame the history ring just dropped feeds the next encode, unless
	// a borrower still pins it (see BorrowLastEncoded).
	s.pool.Put(evicted)
	cs := CaptureStats{
		FrameIndex:    s.frameIndex,
		EncodedPixels: ef.NumEncodedPixels(),
		EncodedBytes:  ef.TotalBytes(),
		PixelFraction: float64(ef.NumEncodedPixels()) / float64(s.w*s.h),
	}
	s.frameIndex++
	s.statsMu.Lock()
	s.stats.FramesCaptured++
	s.stats.BytesWritten += int64(ef.TotalBytes())
	s.stats.PixelsIn += int64(s.w * s.h)
	s.stats.PixelsStored += int64(ef.NumEncodedPixels())
	s.stats.RegisterUpdates = s.rt.RegisterFile().AXIWrites()
	s.encStats = s.enc.Stats()
	s.decStats = s.dec.Stats()
	s.statsMu.Unlock()
	return cs, nil
}

// Decoded reconstructs the full most-recent frame.
func (s *System) Decoded() (*Frame, error) {
	return s.DecodeWindow(0, 0, s.w, s.h)
}

// DecodeWindow reconstructs a sub-rectangle of the most recent frame, the
// access pattern of a tiled vision accelerator. When a tracer is attached,
// a decode span carrying the encoded bytes fetched is recorded.
func (s *System) DecodeWindow(x, y, w, h int) (*Frame, error) {
	var t0 time.Time
	if s.tracer != nil {
		t0 = time.Now()
	}
	before := s.dec.Stats().EncodedBytesRead
	fr, err := s.dec.DecodeWindow(x, y, w, h)
	if err != nil {
		return nil, err
	}
	after := s.dec.Stats()
	if s.last != nil {
		s.span(obs.SpanDecode, s.last.FrameIndex, t0, after.EncodedBytesRead-before)
	}
	s.statsMu.Lock()
	s.stats.BytesRead += int64(after.EncodedBytesRead - before)
	s.decStats = after
	s.statsMu.Unlock()
	return fr, nil
}

// span records one frame-path span ending now and returns the new start
// time for the next span; it is a no-op (returning the zero time) when no
// tracer is attached.
func (s *System) span(op string, frameIndex int, t0 time.Time, bytes int) time.Time {
	if s.tracer == nil {
		return time.Time{}
	}
	now := time.Now()
	s.tracer.Record(obs.Span{
		Session: s.tracerTag,
		Frame:   frameIndex,
		Op:      op,
		Start:   t0.UnixNano(),
		Dur:     now.Sub(t0).Nanoseconds(),
		Bytes:   bytes,
	})
	return now
}

// FrameTracer is the fixed-ring frame-path span recorder SetTracer
// attaches; dump it with its WriteJSON or Snapshot methods.
type FrameTracer = obs.Tracer

// NewFrameTracer returns a frame-path tracer retaining the most recent
// capacity spans (capacity <= 0 selects a default).
func NewFrameTracer(capacity int) *FrameTracer { return obs.NewTracer(capacity) }

// SetTracer attaches a frame-path tracer: Capture and DecodeWindow record
// commit/encode/push/decode spans tagged with tag (an rpxd session id, or
// any caller-chosen identifier). Pass nil to detach. SetTracer follows the
// System's single-goroutine contract: call it from the operations
// goroutine, not concurrently with Capture or decode.
func (s *System) SetTracer(t *obs.Tracer, tag uint64) {
	s.tracer = t
	s.tracerTag = tag
}

// LastEncoded returns a deep copy of the most recent encoded frame (nil
// before any Capture), for inspection and persistence. The caller owns the
// copy: it stays valid and immutable-by-others forever, and mutating it
// cannot corrupt the pipeline. Hot paths that can honour the borrow
// contract should prefer BorrowLastEncoded, which returns the live frame
// without copying.
func (s *System) LastEncoded() *EncodedFrame {
	if s.last == nil {
		return nil
	}
	return s.last.Clone()
}

// BorrowLastEncoded returns the live most recent encoded frame (nil before
// any Capture) without copying.
//
// Borrow contract: the frame belongs to the System and must never be
// mutated. Unpinned, it is valid only until the next Capture, which may
// recycle its storage into the encoder's frame pool. To hold it longer —
// from any goroutine — Pin it before the next Capture (on the goroutine
// that owns the System) and Unpin it after the last read: the System
// never recycles a pinned frame, it leaves one that its history evicts to
// the GC. Callers that want an owned copy use LastEncoded, or serialize
// the frame (EncodedFrame.AppendTo) before the next Capture.
func (s *System) BorrowLastEncoded() *EncodedFrame { return s.last }

// Stats returns the lifetime traffic counters. Safe to call from a
// monitoring goroutine concurrently with captures.
func (s *System) Stats() SystemStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// EncoderStats exposes the encoder's work counters as of the last completed
// operation. Safe to call from a monitoring goroutine.
func (s *System) EncoderStats() core.EncoderStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.encStats
}

// DecoderStats exposes the decoder's work counters as of the last completed
// operation. Safe to call from a monitoring goroutine.
func (s *System) DecoderStats() core.DecoderStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.decStats
}

// --- Encoded stream persistence ---

// StreamWriter serializes a sequence of encoded frames into the .rpxs
// container (all frames must share geometry).
type StreamWriter = core.StreamWriter

// NewStreamWriter returns a stream writer targeting w; feed it
// System.LastEncoded() after each Capture to persist a session.
func NewStreamWriter(w io.Writer) *StreamWriter { return core.NewStreamWriter(w) }

// StreamReader reads the .rpxs container frame by frame.
type StreamReader = core.StreamReader

// NewStreamReader validates the container header.
func NewStreamReader(r io.Reader) (*StreamReader, error) { return core.NewStreamReader(r) }

// DecodeStream replays a persisted stream through a fresh decoder, calling
// fn with each reconstructed frame in capture order (temporal-skip history
// accumulates exactly as it did live). fn receives the same reused output
// frame every time, valid until fn returns: copy what must outlive the
// call.
func DecodeStream(r io.Reader, format Format, fn func(frameIndex int, decoded *Frame) error) error {
	return core.DecodeStream(r, format, fn)
}

// --- Policy surface ---

// CyclePolicy is the paper's example policy: full-frame captures every
// CycleLength frames with task-driven regions in between.
type CyclePolicy = policy.Cycle

// PolicySource supplies intermediate-frame region labels.
type PolicySource = policy.Source

// PolicySourceFunc adapts a function to PolicySource.
type PolicySourceFunc = policy.SourceFunc

// NewCyclePolicy returns a cycle policy over a w x h frame.
func NewCyclePolicy(cycleLength, w, h int, src PolicySource) *CyclePolicy {
	return policy.NewCycle(cycleLength, w, h, src)
}

// FeatureParams tunes FeatureRegions.
type FeatureParams = policy.FeatureParams

// DefaultFeatureParams returns the evaluation defaults.
func DefaultFeatureParams() FeatureParams { return policy.DefaultFeatureParams() }

// FeatureRegions builds labels around keypoints: size → region extent,
// octave → stride, displacement → skip.
func FeatureRegions(kps []KeyPoint, meanDisplacement float64, w, h int, p FeatureParams) RegionList {
	return policy.FromKeypoints(kps, meanDisplacement, w, h, p)
}

// FeatureRegionsVel is FeatureRegions with per-feature velocities:
// displacements is aligned with kps (negative entries fall back to
// fallbackDisplacement), so each region gets its own temporal rate.
func FeatureRegionsVel(kps []KeyPoint, displacements []float64, fallbackDisplacement float64, w, h int, p FeatureParams) RegionList {
	return policy.FromKeypointsVel(kps, displacements, fallbackDisplacement, w, h, p)
}

// BoxParams tunes BoxRegions.
type BoxParams = policy.BoxParams

// DefaultBoxParams returns the evaluation defaults.
func DefaultBoxParams() BoxParams { return policy.DefaultBoxParams() }

// BoxRegions builds labels around tracked boxes with margins and
// motion-derived skip rates.
func BoxRegions(boxes []Box, velocities []float64, w, h int, p BoxParams) RegionList {
	return policy.FromBoxes(boxes, velocities, w, h, p)
}

// PredictivePolicy places regions at Kalman-predicted object positions.
type PredictivePolicy = policy.Predictive

// NewPredictivePolicy returns a predictive policy for a w x h frame.
func NewPredictivePolicy(w, h int, p BoxParams) *PredictivePolicy {
	return policy.NewPredictive(w, h, p)
}

// AdaptiveCyclePolicy varies its cycle length with observed scene motion
// (the paper's §7 adaptive-cycle direction).
type AdaptiveCyclePolicy = policy.AdaptiveCycle

// NewAdaptiveCyclePolicy returns an adaptive policy; feed it ObserveMotion
// each frame.
func NewAdaptiveCyclePolicy(minCycle, maxCycle, w, h int, fastMotion float64, src PolicySource) *AdaptiveCyclePolicy {
	return policy.NewAdaptiveCycle(minCycle, maxCycle, w, h, fastMotion, src)
}

// --- Policy registry: the paper's policy-maker / policy-user split ---

// Policy is a complete region-selection loop: Observe task feedback, emit
// the next frame's labels.
type Policy = policy.Policy

// PolicyFeedback carries per-frame task results into a Policy.
type PolicyFeedback = policy.Feedback

// PolicyMaker registers a named policy implementation.
type PolicyMaker = policy.Maker

// RegisterPolicy adds a policy to the shared pool (policy-maker tier).
func RegisterPolicy(m PolicyMaker) { policy.Register(m) }

// BuildPolicy instantiates a registered policy by name (policy-user tier).
// Built-ins: "feature-cycle", "box-cycle", "predictive", "adaptive-cycle".
func BuildPolicy(name string, w, h, cycleLength int) (Policy, error) {
	return policy.Build(name, w, h, cycleLength)
}

// PolicyNames lists the registered policies.
func PolicyNames() []string { return policy.Names() }

// DescribePolicy returns a registered policy's description.
func DescribePolicy(name string) (string, bool) { return policy.Describe(name) }
