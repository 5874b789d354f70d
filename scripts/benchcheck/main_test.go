package main

import (
	"encoding/json"
	"testing"
)

// cleanRun is a synthetic traced relay-qvga run in perfbench's output
// format that passes every gate. Its frames store all 76800 pixels, a
// quarter of them, and none; each carries 20192 metadata bytes (28 header
// + 4·241 row offsets + 19200 EncMask).
func cleanRun() (res, dump map[string]any) {
	frames := []map[string]any{
		{"frame": 100, "e2e_ns": 300000, "wire_bytes": 96992, "pixel_fraction": 1.0},
		{"frame": 101, "e2e_ns": 200000, "wire_bytes": 39392, "pixel_fraction": 0.25},
		{"frame": 102, "e2e_ns": 150000, "wire_bytes": 20192, "pixel_fraction": 0.0},
	}
	res = map[string]any{
		"correct":   true,
		"attempted": len(frames),
		"failed":    0,
		"metrics": map[string]any{
			"consumer_allocs_per_frame": map[string]any{"value": 3.0, "unit": "count"},
			"capture_ms":                map[string]any{"value": 0.2, "unit": "ms"},
		},
	}
	dump = map[string]any{"workload": "relay-qvga", "seed": 1, "frames": frames}
	return res, dump
}

// verdict runs the gate on res and dump as perfbench would write them.
func verdict(t *testing.T, res, dump map[string]any) []string {
	t.Helper()
	var r result
	var d spanDump
	viaJSON(t, res, &r)
	viaJSON(t, dump, &d)
	return check(r, d)
}

func viaJSON(t *testing.T, in map[string]any, out any) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(res, dump map[string]any)
		pass   bool
	}{
		{"clean", func(res, dump map[string]any) {}, true},
		{"one extra wire byte", func(res, dump map[string]any) {
			dump["frames"].([]map[string]any)[1]["wire_bytes"] = 39393
		}, false},
		{"allocations at the limit", func(res, dump map[string]any) {
			res["metrics"].(map[string]any)["consumer_allocs_per_frame"] =
				map[string]any{"value": maxConsumerAllocs, "unit": "count"}
		}, true},
		{"one allocation over the limit", func(res, dump map[string]any) {
			res["metrics"].(map[string]any)["consumer_allocs_per_frame"] =
				map[string]any{"value": maxConsumerAllocs + 1, "unit": "count"}
		}, false},
		{"no alloc metric", func(res, dump map[string]any) {
			delete(res["metrics"].(map[string]any), "consumer_allocs_per_frame")
		}, false},
		{"not correct", func(res, dump map[string]any) { res["correct"] = false }, false},
		{"failed frame", func(res, dump map[string]any) { res["failed"] = 1 }, false},
		{"empty span dump", func(res, dump map[string]any) { dump["frames"] = []map[string]any{} }, false},
		{"nothing measured", func(res, dump map[string]any) {
			res["attempted"] = 0
			dump["frames"] = []map[string]any{}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, dump := cleanRun()
			tc.mutate(res, dump)
			failures := verdict(t, res, dump)
			if pass := len(failures) == 0; pass != tc.pass {
				t.Errorf("pass = %v, want %v (failures %q)", pass, tc.pass, failures)
			}
		})
	}
}
