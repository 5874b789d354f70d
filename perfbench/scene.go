package main

import (
	"math/rand"

	"repro/rpx"
)

// scene is a seeded synthetic sensor input: a static textured background
// with textured boxes bouncing across it. Frame t is a pure function of the
// seed and t, so the reference replay renders exactly what the producer
// captured.
type scene struct {
	w, h  int
	bg    []byte
	boxes []box
	// rois are static background regions of interest, the stand-in for the
	// feature neighbourhoods a vision task would label.
	rois []rpx.RegionLabel
}

type box struct {
	x0, y0, vx, vy int
	w, h           int
	shade          byte
}

// newScene builds the background, nBoxes moving boxes and nROIs static
// regions for a w x h Gray8 sensor.
func newScene(seed int64, w, h, nBoxes, nROIs int) *scene {
	rng := rand.New(rand.NewSource(seed))
	s := &scene{w: w, h: h, bg: make([]byte, w*h)}

	// 8x8 blocks of seeded grey levels plus a fine diagonal ripple: enough
	// texture that every region carries distinct pixels.
	bw, bh := (w+7)/8, (h+7)/8
	blocks := make([]byte, bw*bh)
	for i := range blocks {
		blocks[i] = byte(24 + rng.Intn(96))
	}
	for y := 0; y < h; y++ {
		row := s.bg[y*w : (y+1)*w]
		for x := range row {
			row[x] = blocks[(y/8)*bw+x/8] + byte((x*7+y*3)%9)
		}
	}

	// Sizes, speeds, strides and skips depend only on the index, so every
	// seed asks the pipeline for the same amount of work; the seed moves
	// things around.
	unit := max(1, h/120) // box size and speed scale with the sensor
	for i := 0; i < nBoxes; i++ {
		b := box{
			w:     unit * (14 + 4*(i%3)),
			h:     unit * (12 + 3*(i%4)),
			vx:    unit * (1 + i%3),
			vy:    unit * (1 + i%2),
			shade: byte(160 + rng.Intn(80)),
		}
		if rng.Intn(2) == 0 {
			b.vx = -b.vx
		}
		if rng.Intn(2) == 0 {
			b.vy = -b.vy
		}
		b.x0 = rng.Intn(w - b.w)
		b.y0 = rng.Intn(h - b.h)
		s.boxes = append(s.boxes, b)
	}

	for i := 0; i < nROIs; i++ {
		side := unit * (2 + i%6)
		skip := 1 + i%3
		s.rois = append(s.rois, rpx.RegionLabel{
			X: rng.Intn(w - side), Y: rng.Intn(h - side),
			W: side, H: side,
			Stride: 1 + i%2,
			Skip:   skip,
			Phase:  rng.Intn(skip),
		})
	}
	return s
}

// bounce reflects p0+v*t into [0, span].
func bounce(p0, v, t, span int) int {
	if span <= 0 {
		return 0
	}
	p := (p0 + v*t) % (2 * span)
	if p < 0 {
		p += 2 * span
	}
	if p > span {
		p = 2*span - p
	}
	return p
}

func (s *scene) boxAt(b box, t int) (x, y int) {
	return bounce(b.x0, b.vx, t, s.w-b.w), bounce(b.y0, b.vy, t, s.h-b.h)
}

// render writes frame t into dst.
func (s *scene) render(t int, dst *rpx.Frame) {
	copy(dst.Pix, s.bg)
	for _, b := range s.boxes {
		bx, by := s.boxAt(b, t)
		for y := 0; y < b.h; y++ {
			row := dst.Pix[(by+y)*s.w+bx : (by+y)*s.w+bx+b.w]
			for x := range row {
				row[x] = b.shade + byte((x^y)&15)
			}
		}
	}
}

// labels is the application's region workload for frame t, renewed every cl
// frames: a full-frame capture on every fullEvery-th cycle and, between
// them, the static regions of interest plus one full-density region per box
// covering where the box travels during the cycle. Everything else is not
// captured.
func (s *scene) labels(t, cl, fullEvery int) []rpx.RegionLabel {
	if (t/cl)%fullEvery == 0 {
		return []rpx.RegionLabel{rpx.FullFrame(s.w, s.h)}
	}
	ls := make([]rpx.RegionLabel, 0, len(s.rois)+len(s.boxes))
	ls = append(ls, s.rois...)
	margin := max(2, s.h/60)
	for _, b := range s.boxes {
		x0, y0 := s.boxAt(b, t)
		x1, y1 := x0+b.w, y0+b.h
		for k := 1; k < cl; k++ {
			x, y := s.boxAt(b, t+k)
			x0, y0 = min(x0, x), min(y0, y)
			x1, y1 = max(x1, x+b.w), max(y1, y+b.h)
		}
		x0, y0 = max(0, x0-margin), max(0, y0-margin)
		x1, y1 = min(s.w, x1+margin), min(s.h, y1+margin)
		ls = append(ls, rpx.RegionLabel{X: x0, Y: y0, W: x1 - x0, H: y1 - y0, Stride: 1, Skip: 1})
	}
	return ls
}
