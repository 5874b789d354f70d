package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The shared hosts this benchmark runs on change speed by up to ~1.8x for
// seconds to minutes at a time, as other tenants load the caches and memory
// the benchmark's CPU shares. Whole runs can land in a slow stretch, so
// wall-clock latencies alone move more between runs than most changes to
// the code would. The speed probe times a fixed piece of work that runs
// none of the program's code, between frames: a chain of dependent reads at
// pseudo-random offsets of a buffer larger than a core's share of the last
// level cache, behind a memory copy. Its time follows the frame latencies'
// slow stretches (a compute-only probe that fits in cache barely moves with
// them). Frame latencies are scaled by (refProbeMs / the probe's time
// around them) ^ probeElasticity, set-up times by the plain ratio: what they
// would read on a host that runs the probe in refProbeMs.
const (
	// refProbeMs is about the probe's time on an unloaded 2.0 GHz Xeon vCPU.
	refProbeMs = 0.5
	// probeElasticity is how much frame latencies move per unit of probe
	// time, in log terms: a least-squares fit of log latency on log probe
	// time over 26 runs on a 2-vCPU 2.0 GHz Xeon host gave 1.4 to 1.75 for
	// relay-qvga, and policy-1080p's spread barely depends on it. The plain
	// ratio left relay-qvga's run-to-run spread about twice as wide. Set-up
	// time, mostly process start, was no steadier with it.
	probeElasticity = 1.7
	// probeBytes sizes the probe's buffer (a power of two); probeCopy bytes
	// of it are copied and probeReads dependent reads made.
	probeBytes = 16 << 20
	probeCopy  = 2 << 20
	probeReads = 8000
	// probeRepeats runs the probe back to back and keeps the fastest, so a
	// preemption in one repeat does not count.
	probeRepeats = 3
	// probeEvery is the least time between two probes in the measured loop.
	probeEvery = 100 * time.Millisecond
	// probeSpan is how far from a frame the probes that scale it may lie.
	probeSpan = 500 * time.Millisecond
)

type probeSample struct {
	at time.Time
	ms float64
}

type speedProbe struct {
	src, dst []byte
	samples  []probeSample
	sink     int
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{src: make([]byte, probeBytes), dst: make([]byte, probeCopy)}
	rand.New(rand.NewSource(1)).Read(p.src)
	return p
}

// measure runs the probe and records its fastest repeat in milliseconds.
func (p *speedProbe) measure() float64 {
	best := 0.0
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		copy(p.dst, p.src)
		idx := p.sink
		for i := 0; i < probeReads; i++ {
			idx = (idx*1103515245 + 12345 + int(p.src[idx])) & (probeBytes - 1)
		}
		p.sink = idx
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; r == 0 || ms < best {
			best = ms
		}
	}
	p.samples = append(p.samples, probeSample{time.Now(), best})
	return best
}

// maybe measures when the last probe is at least probeEvery old.
func (p *speedProbe) maybe() {
	if n := len(p.samples); n == 0 || time.Since(p.samples[n-1].at) >= probeEvery {
		p.measure()
	}
}

// scaleAt is the factor that brings a frame latency measured at t to the
// reference host, from the median probe within probeSpan of t, or the
// nearest probe when none is that close.
func (p *speedProbe) scaleAt(t time.Time) float64 {
	i := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(t.Add(-probeSpan)) })
	var near []float64
	for j := i; j < len(p.samples) && !p.samples[j].at.After(t.Add(probeSpan)); j++ {
		near = append(near, p.samples[j].ms)
	}
	if len(near) == 0 {
		j := min(i, len(p.samples)-1)
		if j > 0 && t.Sub(p.samples[j-1].at) < p.samples[j].at.Sub(t) {
			j--
		}
		near = append(near, p.samples[j].ms)
	}
	return math.Pow(refProbeMs/quantile(near, 0.5), probeElasticity)
}

// median is the median of every probe taken so far.
func (p *speedProbe) median() float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = s.ms
	}
	return quantile(ms, 0.5)
}
