package policy

import (
	"fmt"
	"strconv"

	"repro/internal/frame"
	"repro/internal/region"
)

// DefaultMotionTile is the change-energy grid pitch in pixels.
const DefaultMotionTile = 16

// MotionMap is a per-tile change-energy grid: the mean absolute byte
// difference between two consecutive decoded frames, one cell per Tile x
// Tile pixel block. It is the frame-differencing substrate the scenario
// policies share — a software stand-in for the motion metadata an
// intelligent-skipping sensor (arXiv:2409.17341) or an event camera
// (arXiv:2206.04341) would deliver for free.
type MotionMap struct {
	// FrameW, FrameH are the pixel dimensions the map covers.
	FrameW, FrameH int
	// Tile is the cell pitch in pixels (edge cells may be smaller).
	Tile int
	// Cols, Rows are the grid dimensions.
	Cols, Rows int
	// Energy is the row-major grid: mean absolute byte delta per cell, in
	// [0, 255]. All zeros until the first Update.
	Energy []float64
}

// NewMotionMap returns a zeroed grid for a w x h frame (tile <= 0 selects
// DefaultMotionTile).
func NewMotionMap(w, h, tile int) *MotionMap {
	if tile <= 0 {
		tile = DefaultMotionTile
	}
	cols, rows := (w+tile-1)/tile, (h+tile-1)/tile
	return &MotionMap{
		FrameW: w, FrameH: h,
		Tile: tile, Cols: cols, Rows: rows,
		Energy: make([]float64, cols*rows),
	}
}

// At returns the cell's energy.
func (m *MotionMap) At(col, row int) float64 { return m.Energy[row*m.Cols+col] }

// Update recomputes the grid from two consecutive frames of the map's
// geometry. Differencing runs over raw bytes, so every channel of a
// multi-channel format contributes.
func (m *MotionMap) Update(prev, cur *frame.Frame) error {
	if prev.W != m.FrameW || prev.H != m.FrameH || cur.W != m.FrameW || cur.H != m.FrameH {
		return fmt.Errorf("policy: motion map is %dx%d, frames are %dx%d and %dx%d",
			m.FrameW, m.FrameH, prev.W, prev.H, cur.W, cur.H)
	}
	if prev.Format != cur.Format {
		return fmt.Errorf("policy: motion frames disagree on format: %v vs %v", prev.Format, cur.Format)
	}
	// Each cell's energy is its byte count's share of the summed absolute
	// deltas. The sums are integers well below 2^53, so accumulating them
	// in Energy itself is exact, and cells are complete tiles except at the
	// right and bottom edges, so the counts follow from the geometry.
	clear(m.Energy)
	bpp := cur.BytesPerPixel()
	stride := cur.Stride()
	seg := m.Tile * bpp
	for y := 0; y < m.FrameH; y++ {
		cells := m.Energy[(y/m.Tile)*m.Cols:][:m.Cols]
		pr := prev.Pix[y*stride : (y+1)*stride]
		cr := cur.Pix[y*stride : (y+1)*stride]
		for c := range cells {
			lo := c * seg
			cells[c] += float64(absDiffSum(pr[lo:min(lo+seg, stride)], cr[lo:]))
		}
	}
	for r := 0; r < m.Rows; r++ {
		h := min(m.Tile, m.FrameH-r*m.Tile)
		for c := 0; c < m.Cols; c++ {
			w := min(m.Tile, m.FrameW-c*m.Tile)
			m.Energy[r*m.Cols+c] /= float64(w * h * bpp)
		}
	}
	return nil
}

// absDiffSum returns the sum of |a[i] - b[i]| over a (b at least as long).
// The absolute value takes no branch on the sign, which changing pixels
// would mispredict about half the time.
func absDiffSum(a, b []byte) int {
	b = b[:len(a)]
	sum := 0
	for i, x := range a {
		d := int(x) - int(b[i])
		m := d >> (strconv.IntSize - 1)
		sum += (d ^ m) - m
	}
	return sum
}

// Max returns the largest cell energy.
func (m *MotionMap) Max() float64 {
	max := 0.0
	for _, e := range m.Energy {
		if e > max {
			max = e
		}
	}
	return max
}

// tileLabel builds one clipped label covering the grid cells [c0, c1] of
// row r with the given sampling parameters.
func (m *MotionMap) tileLabel(c0, c1, r, stride, skip int) (region.Label, bool) {
	x := c0 * m.Tile
	y := r * m.Tile
	w := (c1 - c0 + 1) * m.Tile
	if x+w > m.FrameW {
		w = m.FrameW - x
	}
	h := m.Tile
	if y+h > m.FrameH {
		h = m.FrameH - y
	}
	return region.Clip(region.Label{
		X: x, Y: y, W: w, H: h,
		Stride: stride,
		Skip:   skip,
		Phase:  phaseFor(x, y, skip),
	}, m.FrameW, m.FrameH)
}
