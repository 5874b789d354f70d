package core

import (
	"repro/internal/bitpack"
	"repro/internal/region"
)

// CountCodes computes the EncMask code histogram for a frame without
// materializing the mask or touching pixel data. The throughput simulator
// uses it to derive per-frame traffic from region label specifications
// alone, exactly as the paper's evaluation methodology does (§5.3.1).
//
// The returned array is indexed by bitpack.Code: [N, St, Sk, R] counts.
// Labels must be y-sorted. Rows are classified by the encoder's own per-row
// pipeline, reuse of rows that classify alike included, so the histogram
// always matches the EncMask an encoder would build.
func CountCodes(w, h, frameIndex int, labels region.List) [4]int {
	var counts [4]int
	if len(labels) == 0 {
		counts[bitpack.CodeN] = w * h
		return counts
	}
	rows := rowEncoder{w: w}
	var stats EncoderStats // discarded: the shared kernels require one
	for y := 0; y < h; y++ {
		slot, _ := rows.classify(labels, y, frameIndex, &stats)
		if slot < 0 {
			counts[bitpack.CodeN] += w
			continue
		}
		for _, c := range rows.rows[slot].codes {
			counts[c]++
		}
	}
	return counts
}
