package server

import "repro/internal/obs"

// The latency histogram was absorbed into the shared observability layer
// (internal/obs) so the manager, the rpx public API, and the rpxd admin
// endpoint all report through one implementation. The aliases keep the
// server package's exported surface — and the Snapshot JSON shape —
// unchanged.

// Histogram is a fixed-shape latency histogram with atomic buckets, safe
// for concurrent Observe and Snapshot without locks.
type Histogram = obs.Histogram

// HistogramSnapshot is a point-in-time copy of a Histogram, JSON-friendly
// for the Snapshot rpxd logs at exit.
type HistogramSnapshot = obs.HistogramSnapshot
