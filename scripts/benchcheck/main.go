// Command benchcheck is CI's bench-check gate. It reads one traced
// relay-qvga perfbench run, the result line perfbench prints last and the
// per-frame span dump it writes, and fails unless
//
//  1. the run checked out: correct, no failed frame, at least one frame
//     measured, and one span per measured frame;
//  2. every frame's wire bytes are its stored pixels plus exactly
//     metadataBytes, the container's fixed per-frame metadata; and
//  3. consumer_allocs_per_frame is at most maxConsumerAllocs.
//
// Timings are printed but not gated: one short run on a shared runner
// cannot resolve them, and the benchmark's paired runs gate them.
//
// Usage:
//
//	benchcheck <result.json> <perfbench-trace-relay-qvga-seed<N>.json>
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

const (
	// frameW and frameH are relay-qvga's geometry; its frames are Gray8,
	// so each stored pixel is one wire byte.
	frameW, frameH = 320, 240
	// metadataBytes is what one RPXE container carries besides its pixels
	// at that geometry: the 28-byte header, 4·(H+1) bytes of row offsets
	// and W·H/4 bytes of 2-bit EncMask. It is committed, not computed from
	// the container code, so that a change to the layout fails the gate
	// instead of moving the expectation with it. All 2,449,377 frames of
	// 62 runs at seed 1 (3 s, 10 s and 30 s) read exactly this.
	metadataBytes = 20192
	// maxConsumerAllocs bounds the consumer's heap allocations per frame.
	// At bench-check's settings (seed 1, 30 s) 10 runs of the tree read
	// 2.97–3.14, and 10 runs with one extra heap allocation per received
	// frame read 4.02–4.29; the limit sits midway. The runtime counts
	// allocations a span at a time, so the mean moves from run to run, and
	// less in longer runs: at 10 s the two sets read 3.03–3.51 and
	// 3.91–4.62.
	maxConsumerAllocs = 3.6
)

// result is perfbench's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spanDump is the part of perfbench's span dump the gate reads.
type spanDump struct {
	Frames []struct {
		Frame    int     `json:"frame"`
		Bytes    int     `json:"wire_bytes"`
		Fraction float64 `json:"pixel_fraction"`
	} `json:"frames"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck <result.json> <span-dump.json>")
		os.Exit(2)
	}
	var res result
	var dump spanDump
	if err := readJSON(os.Args[1], &res); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if err := readJSON(os.Args[2], &dump); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("benchcheck: %-30s %12.4f %s\n", name, m.Value, m.Unit)
	}
	if failures := check(res, dump); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcheck: FAIL", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcheck: OK (%d frames, %d metadata bytes each, %.3f consumer allocs/frame <= %.2f)\n",
		len(dump.Frames), metadataBytes, res.Metrics["consumer_allocs_per_frame"].Value, maxConsumerAllocs)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// check returns one message per failed gate; none means the run passes.
func check(res result, dump spanDump) []string {
	var failures []string
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		failures = append(failures, fmt.Sprintf("run did not check out: correct %v, %d of %d frames failed",
			res.Correct, res.Failed, res.Attempted))
	}
	if len(dump.Frames) != res.Attempted {
		failures = append(failures, fmt.Sprintf("span dump holds %d frames, the run measured %d",
			len(dump.Frames), res.Attempted))
	}
	wrong, first := 0, ""
	for _, f := range dump.Frames {
		stored := int(math.Round(f.Fraction * frameW * frameH))
		if meta := f.Bytes - stored; meta != metadataBytes {
			if wrong++; wrong == 1 {
				first = fmt.Sprintf("frame %d: %d wire bytes for %d stored pixels, %d metadata bytes", f.Frame, f.Bytes, stored, meta)
			}
		}
	}
	if wrong > 0 {
		failures = append(failures, fmt.Sprintf("%d of %d frames carry other than %d metadata bytes, first %s",
			wrong, len(dump.Frames), metadataBytes, first))
	}
	allocs, ok := res.Metrics["consumer_allocs_per_frame"]
	if !ok {
		failures = append(failures, "result has no consumer_allocs_per_frame (run perfbench with --trace 1)")
	} else if allocs.Value > maxConsumerAllocs {
		failures = append(failures, fmt.Sprintf("consumer_allocs_per_frame %.3f > %.2f", allocs.Value, maxConsumerAllocs))
	}
	return failures
}
