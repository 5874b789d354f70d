package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// startBackend boots an in-process rpxd for the daemon tests.
func startBackend(t *testing.T) string {
	t.Helper()
	mgr := server.NewManager(server.Config{})
	srv := server.NewTCPServer(mgr, server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestServeAndDrain boots the gateway daemon loop on a loopback listener
// with one real rpxd behind it, proxies a client session end to end, then
// cancels the context and verifies the graceful shutdown path: clean
// return, snapshot flushed.
func TestServeAndDrain(t *testing.T) {
	backend := startBackend(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- serveAndDrain(ctx, ln, nil, gateway.Config{
			Backends: []gateway.Backend{{Addr: backend}},
			Health:   gateway.WatcherConfig{Interval: time.Hour},
		}, 5*time.Second, &log)
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
		t.Fatal("gateway round trip mismatch")
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
		t.Fatal("gateway did not shut down")
	}
	out := log.String()
	if !strings.Contains(out, "final stats") || !strings.Contains(out, "\"sessions_total\": 1") {
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

// TestAdminEndpoints boots the gateway with the admin endpoint enabled,
// drives proxied traffic, and verifies /metrics, /healthz (including the
// 503 draining window and its JSON body), /debug/vars, and /debug/pprof.
func TestAdminEndpoints(t *testing.T) {
	backend := startBackend(t)
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
		done <- serveAndDrain(ctx, ln, adminLn, gateway.Config{
			Backends: []gateway.Backend{{Addr: backend}},
			Health:   gateway.WatcherConfig{Interval: time.Hour},
		}, 5*time.Second, &log)
	}()

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
		if _, err := sess.Decoded(); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy while serving; the session count is on /metrics.
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || body != "{\"state\":\"ok\"}\n" {
		t.Fatalf("/healthz while serving: code=%d body=%q", code, body)
	}

	_, metrics := adminGet(t, base+"/metrics")
	for _, want := range []string{
		"rpxgw_sessions_open 2",
		"rpxgw_sessions_opened_total 2",
		"rpxgw_sessions_rerouted_total 0",
		`rpxgw_backend_up{backend="` + backend + `"} 1`,
		`rpxgw_backend_sessions{backend="` + backend + `"} 2`,
		`rpxgw_proxy_op_latency_seconds_count{op="capture"}`,
		`rpxgw_proxy_op_latency_seconds_bucket`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("metrics body:\n%s", metrics)
	}

	_, vars := adminGet(t, base+"/debug/vars")
	var varsDoc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &varsDoc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, vars)
	}
	if _, ok := varsDoc["rpxgw_sessions_opened_total"]; !ok {
		t.Fatalf("/debug/vars missing rpxgw_sessions_opened_total:\n%s", vars)
	}

	if code, _ := adminGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}

	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

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
		t.Fatal("gateway did not shut down")
	}
	if out := log.String(); !strings.Contains(out, "rpxgw: admin listening on "+adminLn.Addr().String()) {
		t.Fatalf("admin listen line not logged:\n%s", out)
	}
}

// expectedFaultErr mirrors the client fault contract for the live matrix.
func expectedFaultErr(err error) bool {
	var re *wire.RemoteError
	var ne net.Error
	return errors.Is(err, client.ErrBrokenSession) ||
		errors.As(err, &re) ||
		errors.As(err, &ne) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// TestLiveGatewayStream is the CI streaming smoke driver, gated on
// RPXGW_ADDR: against an externally started rpxgw it opens a producer and
// a subscriber session, relays a push stream through the gateway, and
// requires every pushed frame in order followed by a clean UNSUBSCRIBE,
// after which the subscribing session still serves.
func TestLiveGatewayStream(t *testing.T) {
	addr := os.Getenv("RPXGW_ADDR")
	if addr == "" {
		t.Skip("RPXGW_ADDR not set; live streaming smoke runs only under scripts/ci.sh")
	}

	const w, h, frames = 32, 24, 16
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}
	subscriber, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer subscriber.Close()
	st, err := subscriber.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 64, Batch: 4})
	if err != nil {
		t.Fatalf("subscribe through live gateway: %v", err)
	}

	fr := rpx.NewFrame(w, h, rpx.Gray8)
	for i := 0; i < frames; i++ {
		for p := range fr.Pix {
			fr.Pix[p] = byte(i*13 + p)
		}
		if _, err := producer.Capture(fr); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	for i := 0; i < frames; i++ {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if f.Seq != uint64(i) || f.Dropped != 0 {
			t.Fatalf("frame %d: seq %d dropped %d — gap or reorder through the live gateway", i, f.Seq, f.Dropped)
		}
		if _, err := f.Decode(); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("clean unsubscribe: %v", err)
	}
	if _, err := subscriber.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("request/reply after unsubscribe: %v", err)
	}
	t.Logf("live streaming smoke: %d frames pushed through %s", frames, addr)
}

// TestLiveGatewayMatrix is the CI smoke driver, gated on RPXGW_ADDR: it
// runs a 4-session capture/decode matrix against an externally started
// rpxgw binary and, when RPXGW_KILL_PID names an rpxd process, kills it
// mid-matrix. The candidate-set oracle must hold throughout: every op
// returns correct bytes or a typed error, and sessions recover onto the
// surviving backends without any client session breaking. scripts/ci.sh
// runs this against 2 rpxd + 1 rpxgw with a pinned FAULTNET_SEED
// environment.
func TestLiveGatewayMatrix(t *testing.T) {
	addr := os.Getenv("RPXGW_ADDR")
	if addr == "" {
		t.Skip("RPXGW_ADDR not set; live gateway smoke runs only under scripts/ci.sh")
	}
	var killPID int
	if v := os.Getenv("RPXGW_KILL_PID"); v != "" {
		pid, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("RPXGW_KILL_PID=%q: %v", v, err)
		}
		killPID = pid
	}

	const w, h, frames, sessions = 32, 24, 24, 4
	var killOnce sync.Once
	kill := func() {
		if killPID == 0 {
			return
		}
		killOnce.Do(func() {
			t.Logf("killing backend pid %d mid-matrix", killPID)
			if err := syscall.Kill(killPID, syscall.SIGKILL); err != nil {
				t.Errorf("kill backend pid %d: %v", killPID, err)
			}
		})
	}

	// Frames start once every session has dialed, so the kill lands on
	// open sessions, not on handshakes that would fail over without a
	// reroute (scripts/ci.sh checks that the kill rerouted sessions).
	var wg, dialed sync.WaitGroup
	dialed.Add(sessions)
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("session %d: %s", si, fmt.Sprintf(format, args...))
			}
			sess, err := client.Dial(addr, client.Config{
				W: w, H: h, Format: rpx.Gray8,
				RequestTimeout: 5 * time.Second,
			})
			dialed.Done()
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer sess.Close()
			dialed.Wait()
			if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
				fail("set labels: %v", err)
				return
			}
			mkFrame := func(i int) *rpx.Frame {
				fr := rpx.NewFrame(w, h, rpx.Gray8)
				for p := range fr.Pix {
					fr.Pix[p] = byte(si*1000*37 + i*11 + p)
				}
				return fr
			}
			var candidates []int
			for i := 0; i < frames; i++ {
				if i == frames/2 {
					kill()
				}
				if _, err := sess.Capture(mkFrame(i)); err != nil {
					if !expectedFaultErr(err) {
						fail("capture %d: unexpected error class: %v", i, err)
						return
					}
					candidates = append(candidates, i)
				} else {
					candidates = []int{i}
				}
				dec, err := sess.Decoded()
				if err != nil {
					if !expectedFaultErr(err) {
						fail("decode %d: unexpected error class: %v", i, err)
						return
					}
					continue
				}
				matched := false
				for _, c := range candidates {
					if dec.Equal(mkFrame(c)) {
						matched = true
						break
					}
				}
				if !matched {
					fail("decode %d matches none of the possibly-captured frames %v — a mismatched reply through the gateway", i, candidates)
					return
				}
			}
			if sess.Broken() {
				fail("client session broken; a backend loss must be invisible to the client")
			}
		}(si)
	}
	wg.Wait()
}
