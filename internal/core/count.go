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
// Labels must be y-sorted. Rows are classified by the encoder's own RoI
// Selector and Comparison Engine kernels, so the histogram always matches
// the EncMask an encoder would build.
func CountCodes(w, h, frameIndex int, labels region.List) [4]int {
	var counts [4]int
	if len(labels) == 0 {
		counts[bitpack.CodeN] = w * h
		return counts
	}
	codes := make([]bitpack.Code, w)
	var sublist []int
	var stats EncoderStats // discarded: the shared kernels require one
	for y := 0; y < h; y++ {
		sublist = rowSublist(labels, y, sublist, &stats)
		if len(sublist) == 0 {
			counts[bitpack.CodeN] += w
			continue
		}
		paintRowCodes(labels, sublist, codes, y, frameIndex, &stats)
		for _, c := range codes {
			counts[c]++
		}
	}
	return counts
}
