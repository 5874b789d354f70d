// Package region defines the developer-facing region label abstraction of
// rhythmic pixel regions (§3.1): rectangular neighborhoods of pixels with
// region-specific spatial resolution (stride) and temporal rate (skip).
//
// A capture workload is a list of labels. Labels may overlap; the encoder's
// raster-packed representation stores each pixel at most once regardless of
// how many labels cover it.
package region

import (
	"fmt"
	"sort"
)

// Label describes one rhythmic pixel region, mirroring the paper's
// RegionLabel struct:
//
//	struct RegionLabel { int x, y, w, h, stride, skip; };
//
// X, Y is the top-left corner; W, H the extent. Stride is the spatial
// sampling density: within the region, only pixels whose offset from the
// region origin is a multiple of Stride in both axes are captured (Stride=1
// captures every pixel, Stride=2 every other pixel per axis, i.e. 1/4 of
// the region's pixels). Skip is the temporal interval in frames between
// consecutive samplings: a region with Skip=s is captured on frames where
// (frameIndex-Phase) mod s == 0 (Skip=1 captures every frame, Skip=2 every
// other frame). Phase offsets the region's rhythm within its skip interval.
type Label struct {
	X, Y   int
	W, H   int
	Stride int
	Skip   int
	Phase  int
}

// MaxStride is the largest spatial stride a label may have. A vertically
// strided row reconstructs from its lattice row up to Stride-1 rows above
// it, and a windowed decode first replays the rows its first row depends on
// that way; the cap keeps that warm-up short. The paper's
// workloads use strides up to 4 (Table 4).
const MaxStride = 8

// Validate reports whether the label is well formed within a w x h frame.
// Labels must be non-empty, lie fully inside the frame, have a stride in
// [1, MaxStride] and a positive skip.
func (l Label) Validate(frameW, frameH int) error {
	switch {
	case l.W <= 0 || l.H <= 0:
		return fmt.Errorf("region: empty label %dx%d", l.W, l.H)
	case l.X < 0 || l.Y < 0 || l.X+l.W > frameW || l.Y+l.H > frameH:
		return fmt.Errorf("region: label (%d,%d %dx%d) outside %dx%d frame", l.X, l.Y, l.W, l.H, frameW, frameH)
	case l.Stride < 1:
		return fmt.Errorf("region: stride %d < 1", l.Stride)
	case l.Stride > MaxStride:
		return fmt.Errorf("region: stride %d > %d", l.Stride, MaxStride)
	case l.Skip < 1:
		return fmt.Errorf("region: skip %d < 1", l.Skip)
	case l.Phase < 0 || l.Phase >= l.Skip:
		return fmt.Errorf("region: phase %d outside [0,%d)", l.Phase, l.Skip)
	}
	return nil
}

// ActiveAt reports whether the region is temporally sampled at the given
// frame index: the frame falls on the region's rhythm.
func (l Label) ActiveAt(frameIndex int) bool {
	if l.Skip <= 1 {
		return true
	}
	m := (frameIndex - l.Phase) % l.Skip
	if m < 0 {
		m += l.Skip
	}
	return m == 0
}

// Contains reports whether pixel (x, y) lies inside the region rectangle.
func (l Label) Contains(x, y int) bool {
	return x >= l.X && x < l.X+l.W && y >= l.Y && y < l.Y+l.H
}

// OnStride reports whether pixel (x, y), assumed inside the region, falls on
// the region's spatial sampling lattice.
func (l Label) OnStride(x, y int) bool {
	if l.Stride <= 1 {
		return true
	}
	return (x-l.X)%l.Stride == 0 && (y-l.Y)%l.Stride == 0
}

// RowOverlaps reports whether the region covers image row y and the row
// falls on the region's vertical stride lattice (matching the paper's RoI
// Selector, which shortlists "region labels where row is in y-range" and
// matches the vertical stride).
func (l Label) RowOverlaps(y int) bool {
	if y < l.Y || y >= l.Y+l.H {
		return false
	}
	return l.Stride <= 1 || (y-l.Y)%l.Stride == 0
}

// RowInYRange reports whether the region's rectangle covers image row y,
// ignoring stride. Pixels on such rows are regional even when strided out.
func (l Label) RowInYRange(y int) bool {
	return y >= l.Y && y < l.Y+l.H
}

// SampledPixels returns the number of pixels the region contributes on a
// frame where it is active: the count of lattice points under the stride.
func (l Label) SampledPixels() int {
	return ceilDiv(l.W, l.Stride) * ceilDiv(l.H, l.Stride)
}

// Area returns W*H.
func (l Label) Area() int { return l.W * l.H }

// String formats the label compactly.
func (l Label) String() string {
	return fmt.Sprintf("{%d,%d %dx%d s%d k%d p%d}", l.X, l.Y, l.W, l.H, l.Stride, l.Skip, l.Phase)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// List is a capture workload: a set of region labels. The encoder requires
// lists sorted by Y (the paper has the app runtime pre-sort labels so the
// hardware RoI Selector can shortlist rows cheaply).
type List []Label

// Validate checks every label against the frame dimensions.
func (ls List) Validate(frameW, frameH int) error {
	for i, l := range ls {
		if err := l.Validate(frameW, frameH); err != nil {
			return fmt.Errorf("label %d: %w", i, err)
		}
	}
	return nil
}

// SortByY sorts the list by top edge, then left edge, in place, and returns
// it. This is the pre-sorting step the paper assigns to the OS-level runtime.
func (ls List) SortByY() List {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Y != ls[j].Y {
			return ls[i].Y < ls[j].Y
		}
		return ls[i].X < ls[j].X
	})
	return ls
}

// IsSortedByY reports whether the list is sorted by top edge.
func (ls List) IsSortedByY() bool {
	return sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i].Y < ls[j].Y })
}

// Clone returns a copy of the list.
func (ls List) Clone() List {
	out := make(List, len(ls))
	copy(out, ls)
	return out
}

// FullFrame returns a single label covering the whole frame at full
// resolution and rate — the frame-based-computing degenerate case.
func FullFrame(w, h int) Label {
	return Label{X: 0, Y: 0, W: w, H: h, Stride: 1, Skip: 1}
}

// Clip returns a copy of l clipped to the w x h frame with stride clamped
// to [1, MaxStride] and skip floored to 1, or false if the clipped
// rectangle is empty.
// Policies use this to sanitize predicted regions near frame borders.
func Clip(l Label, w, h int) (Label, bool) {
	if l.X < 0 {
		l.W += l.X
		l.X = 0
	}
	if l.Y < 0 {
		l.H += l.Y
		l.Y = 0
	}
	if l.X+l.W > w {
		l.W = w - l.X
	}
	if l.Y+l.H > h {
		l.H = h - l.Y
	}
	if l.W <= 0 || l.H <= 0 || l.X >= w || l.Y >= h {
		return Label{}, false
	}
	l.Stride = min(max(l.Stride, 1), MaxStride)
	if l.Skip < 1 {
		l.Skip = 1
	}
	if l.Phase < 0 || l.Phase >= l.Skip {
		l.Phase = 0
	}
	return l, true
}

// CoverageStats summarizes a list for reporting (the paper's Table 4).
type CoverageStats struct {
	NumRegions            int
	MinW, MinH            int
	MaxW, MaxH            int
	MinStride, MaxStride  int
	MinSkip, MaxSkip      int
	TotalSampled          int // sum of per-region sampled pixel counts
	UnionAreaApproxPixels int // approximate union coverage (grid sampled)
}

// Stats computes coverage statistics for the list over a w x h frame.
func (ls List) Stats(w, h int) CoverageStats {
	s := CoverageStats{NumRegions: len(ls)}
	if len(ls) == 0 {
		return s
	}
	s.MinW, s.MinH = ls[0].W, ls[0].H
	s.MinStride, s.MinSkip = ls[0].Stride, ls[0].Skip
	for _, l := range ls {
		s.MinW, s.MaxW = min(s.MinW, l.W), max(s.MaxW, l.W)
		s.MinH, s.MaxH = min(s.MinH, l.H), max(s.MaxH, l.H)
		s.MinStride, s.MaxStride = min(s.MinStride, l.Stride), max(s.MaxStride, l.Stride)
		s.MinSkip, s.MaxSkip = min(s.MinSkip, l.Skip), max(s.MaxSkip, l.Skip)
		s.TotalSampled += l.SampledPixels()
	}
	// Approximate the union coverage by sampling a coarse grid; exact union
	// of hundreds of rectangles is not needed for reporting.
	const grid = 128
	stepX, stepY := max(w/grid, 1), max(h/grid, 1)
	covered, total := 0, 0
	for y := 0; y < h; y += stepY {
		for x := 0; x < w; x += stepX {
			total++
			for _, l := range ls {
				if l.Contains(x, y) {
					covered++
					break
				}
			}
		}
	}
	if total > 0 {
		s.UnionAreaApproxPixels = int(float64(covered) / float64(total) * float64(w) * float64(h))
	}
	return s
}
