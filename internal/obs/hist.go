package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential latency buckets: bucket i counts
// observations in (2^(i-1), 2^i] microseconds, so the histogram spans 1 µs
// to ~4.3 s with the last bucket absorbing the tail.
const histBuckets = 32

// Histogram is a fixed-shape latency histogram with atomic buckets, safe
// for concurrent Observe and Snapshot without locks — the shape per-op
// stats need so a metrics scrape never stalls a worker. The zero value is
// ready to use. (Absorbed from internal/server, which now aliases it.)
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	i := 0
	for us > 1<<i && i < histBuckets-1 {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram, JSON-friendly
// for rpxd's exit snapshot and the /debug/vars exposition.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// SumNanos is the total observed latency.
	SumNanos int64 `json:"sum_ns"`
	// MaxNanos is the largest single observation.
	MaxNanos int64 `json:"max_ns"`
	// Buckets[i] counts observations in the per-range interval
	// (UpperMicros[i-1], UpperMicros[i]] — bucket 0 covers [0, 1µs]. The
	// counts are NOT cumulative; sum a prefix to get "at or below".
	Buckets []uint64 `json:"buckets,omitempty"`
	// UpperMicros[i] is the inclusive upper bound of bucket i in µs.
	UpperMicros []int64 `json:"upper_us,omitempty"`
}

// Snapshot copies the histogram. Concurrent Observe calls may land between
// bucket reads; totals stay self-consistent enough for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sumNs.Load(),
		MaxNanos: h.maxNs.Load(),
	}
	// Trim trailing empty buckets so the JSON stays compact.
	last := -1
	var raw [histBuckets]uint64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] > 0 {
			last = i
		}
	}
	if last < 0 {
		return s
	}
	s.Buckets = make([]uint64, last+1)
	s.UpperMicros = make([]int64, last+1)
	for i := 0; i <= last; i++ {
		s.Buckets[i] = raw[i]
		s.UpperMicros[i] = 1 << i
	}
	return s
}

// MeanNanos returns the mean latency in nanoseconds (0 when empty).
func (s HistogramSnapshot) MeanNanos() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNanos / int64(s.Count)
}

// QuantileMicros returns an upper-bound estimate of the q-quantile (0..1)
// in microseconds, from the bucket boundaries.
func (s HistogramSnapshot) QuantileMicros(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			return s.UpperMicros[i]
		}
	}
	return s.UpperMicros[len(s.UpperMicros)-1]
}
