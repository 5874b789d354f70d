package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// TestServeAndDrain boots the daemon loop on a loopback listener, runs a
// client session against it, then cancels the context and verifies the
// graceful shutdown path: clean return, sessions drained, stats flushed.
func TestServeAndDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- serveAndDrain(ctx, ln, nil, 0, server.Config{}, server.TCPConfig{}, 5*time.Second, &log)
	}()

	sess, err := client.Dial(ln.Addr().String(), client.Config{W: 32, H: 32, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(32, 32, rpx.Gray8)
	for i := range fr.Pix {
		fr.Pix[i] = byte(i)
	}
	if _, err := sess.Capture(fr); err != nil {
		t.Fatal(err)
	}
	dec, err := sess.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(fr) {
		t.Fatal("daemon round trip mismatch")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveAndDrain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	out := log.String()
	if !strings.Contains(out, "final stats") || !strings.Contains(out, "\"frames_captured\": 1") {
		t.Fatalf("final stats not flushed:\n%s", out)
	}
}

// adminGet fetches an admin URL and returns status code and body.
func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestAdminEndpoints boots the daemon with the admin endpoint enabled,
// drives traffic through two sessions, and verifies /metrics, /healthz,
// /debug/vars, /debug/trace, and /debug/pprof — including the /healthz flip
// to 503 during the graceful drain window.
func TestAdminEndpoints(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + adminLn.Addr().String()

	hold := make(chan struct{})
	testDrainHold = hold
	defer func() { testDrainHold = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- serveAndDrain(ctx, ln, adminLn, 64, server.Config{}, server.TCPConfig{}, 5*time.Second, &log)
	}()

	// Drive two concurrent sessions so per-session series exist.
	var sessions []*client.Session
	for i := 0; i < 2; i++ {
		sess, err := client.Dial(ln.Addr().String(), client.Config{W: 32, H: 32, Format: rpx.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(32, 32)}); err != nil {
			t.Fatal(err)
		}
		fr := rpx.NewFrame(32, 32, rpx.Gray8)
		for j := range fr.Pix {
			fr.Pix[j] = byte(i + j)
		}
		for c := 0; c < 3; c++ {
			if _, err := sess.Capture(fr); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := sess.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(fr) {
			t.Fatal("round trip mismatch")
		}
	}

	// Healthy while serving.
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz while serving: code=%d body=%q", code, body)
	}

	// /metrics: global counters, op latency histograms, per-session series
	// (scraped while sessions are still open).
	_, metrics := adminGet(t, base+"/metrics")
	id0 := strconv.FormatUint(sessions[0].ID(), 10)
	for _, want := range []string{
		"rpxd_frames_captured_total 6",
		"rpxd_sessions_opened_total 2",
		"rpxd_sessions_open 2",
		"rpxd_op_latency_seconds_bucket",
		`rpxd_op_latency_seconds_count{op="capture"}`,
		`rpxd_session_frames_captured_total{session="` + id0 + `"} 3`,
		`rpxd_session_frames_captured_total{session="` + strconv.FormatUint(sessions[1].ID(), 10) + `"} 3`,
		`rpxd_session_op_latency_seconds_count{op="capture",session="` + id0 + `"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("metrics body:\n%s", metrics)
	}

	// /debug/vars is valid JSON holding the same families.
	_, vars := adminGet(t, base+"/debug/vars")
	var varsDoc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &varsDoc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, vars)
	}
	if _, ok := varsDoc["rpxd_frames_captured_total"]; !ok {
		t.Fatalf("/debug/vars missing rpxd_frames_captured_total:\n%s", vars)
	}

	// /debug/trace: spans for every frame-path op.
	_, trace := adminGet(t, base+"/debug/trace")
	var traceDoc struct {
		Total int `json:"total"`
		Spans []struct {
			Op string `json:"op"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(trace), &traceDoc); err != nil {
		t.Fatalf("/debug/trace not JSON: %v\n%s", err, trace)
	}
	if traceDoc.Total == 0 {
		t.Fatalf("/debug/trace has no spans:\n%s", trace)
	}
	seen := map[string]bool{}
	for _, sp := range traceDoc.Spans {
		seen[sp.Op] = true
	}
	for _, op := range []string{"commit", "encode", "push", "decode"} {
		if !seen[op] {
			t.Errorf("/debug/trace missing op %q (saw %v)", op, seen)
		}
	}

	// pprof index answers.
	if code, _ := adminGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}

	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Trigger shutdown; serveAndDrain flips /healthz to 503 and then blocks
	// on testDrainHold, so the draining window is observable here.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := adminGet(t, base+"/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "draining") {
				t.Fatalf("/healthz draining body=%q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never flipped to 503 after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(hold)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveAndDrain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if out := log.String(); !strings.Contains(out, "rpxd: admin listening on "+adminLn.Addr().String()) {
		t.Fatalf("admin listen line not logged:\n%s", out)
	}
}
