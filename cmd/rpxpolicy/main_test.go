package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/policyloop"
	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// TestListPolicies: every registered policy appears with its description —
// the -list-policies surface the unknown-name Build error points at.
func TestListPolicies(t *testing.T) {
	var buf bytes.Buffer
	listPolicies(&buf)
	out := buf.String()
	names := policy.Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d policies, want the 4 paper policies plus 3 scenarios", len(names))
	}
	for _, name := range names {
		if !strings.Contains(out, name+"\t") {
			t.Errorf("listing lacks %q:\n%s", name, out)
		}
		desc, _ := policy.Describe(name)
		if !strings.Contains(out, desc) {
			t.Errorf("listing lacks the description of %q", name)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]rpx.Format{"gray8": rpx.Gray8, "rgb24": rpx.RGB24, "yuv444": rpx.YUV444} {
		got, err := parseFormat(s)
		if err != nil || got != want {
			t.Errorf("parseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseFormat("bayer"); err == nil {
		t.Error("parseFormat accepted an unknown format")
	}
}

// TestRunClosesLoop boots the worker's run() against an in-process rpxd,
// with the admin endpoint live, and verifies: the loop steers the producer
// (captures drop below full frame), /metrics exports the rpxpolicy_* series,
// and cancellation drains cleanly with a final stats flush.
func TestRunClosesLoop(t *testing.T) {
	const w, h = 64, 48
	mgr := server.NewManager(server.Config{})
	srv := server.NewTCPServer(mgr, server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	producer, err := client.Dial(ln.Addr().String(), client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}

	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, adminLn, policyloop.Config{
			Addr:        ln.Addr().String(),
			Target:      producer.ID(),
			Policy:      "saliency-stride",
			CycleLength: 2,
			W:           w, H: h, Format: rpx.Gray8,
		}, &log)
	}()

	fr := rpx.NewFrame(w, h, rpx.Gray8)
	steered := false
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; !steered; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("worker never steered the producer; log:\n%s", log.String())
		}
		for p := range fr.Pix {
			fr.Pix[p] = 16
		}
		bx, by := (i*4)%(w-16), (i*2)%(h-16)
		for y := by; y < by+16; y++ {
			for x := bx; x < bx+16; x++ {
				fr.Pix[y*w+x] = 240
			}
		}
		cs, err := producer.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		steered = cs.PixelFraction < 0.99
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get("http://" + adminLn.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"rpxpolicy_cycles_total", "rpxpolicy_labels_pushed_total", "rpxpolicy_cycle_lag_seconds"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v; log:\n%s", err, log.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not drain; log:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "final stats") {
		t.Fatalf("no final stats flush in log:\n%s", log.String())
	}
}
