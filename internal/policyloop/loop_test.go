package policyloop

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

func startServer(tb testing.TB) string {
	tb.Helper()
	mgr := server.NewManager(server.Config{})
	srv := server.NewTCPServer(mgr, server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// renderBox paints a w x h Gray8 frame: flat background, bright 16x16 box
// whose position follows the frame index — enough motion for every scenario
// policy to localize.
func renderBox(fr *rpx.Frame, index int) {
	for i := range fr.Pix {
		fr.Pix[i] = 32
	}
	bx, by := (index*4)%(fr.W-16), (index*2)%(fr.H-16)
	for y := by; y < by+16; y++ {
		for x := bx; x < bx+16; x++ {
			fr.Pix[y*fr.W+x] = 224
		}
	}
}

// onePrefix returns a Logf that logs through t and fails the test on a
// line that does not carry the package prefix exactly once.
func onePrefix(t *testing.T) func(format string, args ...any) {
	return func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		if n := strings.Count(line, "policyloop:"); n != 1 {
			t.Errorf("log line carries the package prefix %d times: %q", n, line)
		}
	}
}

func TestLoopClosesOverLiveServer(t *testing.T) {
	const w, h = 64, 48
	addr := startServer(t)
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	loop, err := New(Config{
		Addr:        addr,
		Target:      producer.ID(),
		Policy:      "motion-skip",
		CycleLength: 2,
		W:           w, H: h, Format: rpx.Gray8,
		Metrics: reg,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- loop.Run(ctx) }()

	// Capture until the loop's workload has demonstrably taken effect over
	// at least two cycles: two distinct applied boundaries and a capture
	// whose pixel fraction dropped below full frame.
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	var steered atomic.Bool
	boundaries := map[uint64]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("loop never steered the producer: stats %+v, boundaries %v", loop.Stats(), boundaries)
		}
		renderBox(fr, i)
		cs, err := producer.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		if cs.PixelFraction < 0.99 {
			steered.Store(true)
		}
		if b := loop.Stats().LastBoundary; b != 0 {
			boundaries[b] = true
		}
		if steered.Load() && len(boundaries) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	st := loop.Stats()
	if st.Frames == 0 || st.Cycles < 2 || st.LabelsPushed < 2 {
		t.Fatalf("loop stats %+v, want >=2 cycles and pushes", st)
	}
	if st.LabelsRejected != 0 {
		t.Fatalf("server rejected %d workloads", st.LabelsRejected)
	}

	// Graceful drain: cancelling the context ends Run with nil.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after cancel = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}

	// The metrics registry saw the same counters.
	found := false
	series := map[string]float64{}
	for _, s := range reg.Gather() {
		if s.Name == "rpxpolicy_cycles_total" && s.Value >= 2 {
			found = true
		}
		series[s.Name] = s.Value
	}
	if !found {
		t.Fatal("rpxpolicy_cycles_total missing or zero in the registry")
	}
	// An accepted workload applies from a frame after the one it was
	// observed on, so the steering lag is at least one frame.
	if lag, sum := series["rpxpolicy_steer_lag_frames"], series["rpxpolicy_steer_lag_frames_total"]; lag < 1 || sum < lag {
		t.Fatalf("steering lag %v frames, summed %v; want at least 1 and a sum no smaller", lag, sum)
	}
}

func TestLoopReconnects(t *testing.T) {
	const w, h = 32, 32
	addr := startServer(t)
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	loop, err := New(Config{
		Addr:   addr,
		Target: producer.ID(),
		Policy: "event-change",
		W:      w, H: h, Format: rpx.Gray8,
		CycleLength: 2,
		Timeout:     500 * time.Millisecond,
		MaxRetries:  20,
		Backoff:     10 * time.Millisecond,
		Logf:        onePrefix(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- loop.Run(ctx) }()

	// Phase 1: frames flow, the loop attaches and cycles.
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; loop.Stats().Cycles == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("loop never cycled: %+v", loop.Stats())
		}
		renderBox(fr, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// Phase 2: starve the stream past the read timeout so the subscription
	// breaks, then resume captures; the loop must re-attach and cycle again.
	time.Sleep(700 * time.Millisecond)
	base := loop.Stats()
	deadline = time.Now().Add(20 * time.Second)
	for i := 1000; loop.Stats().Cycles <= base.Cycles; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("loop never recovered: %+v (was %+v)", loop.Stats(), base)
		}
		renderBox(fr, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if loop.Stats().Reconnects == 0 {
		t.Fatalf("loop recovered without counting a reconnect: %+v", loop.Stats())
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run after cancel = %v, want nil", err)
	}
}

// TestLoopReattachesAfterDroppedConnection: a connection cut between the
// worker and the server reads as io.EOF in Recv, like the end of a stream.
// The worker has no clean stream end, so it must re-attach through the cut
// and keep cycling, not return.
func TestLoopReattachesAfterDroppedConnection(t *testing.T) {
	const w, h = 32, 32
	addr := startServer(t)
	proxy, err := faultnet.NewProxy(addr, faultnet.ProxyConfig{Rules: []faultnet.Rule{
		{Dir: faultnet.ServerToClient, Nth: 20, Drop: true, Once: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()

	loop, err := New(Config{
		Addr:   proxy.Addr(),
		Target: producer.ID(),
		Policy: "event-change",
		W:      w, H: h, Format: rpx.Gray8,
		CycleLength: 2,
		MaxRetries:  20,
		Backoff:     10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- loop.Run(ctx) }()

	// Capture until the loop has re-attached after the cut and then
	// completed a cycle on the new attachment.
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	var reattached *Stats
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; reattached == nil || loop.Stats().Cycles <= reattached.Cycles; i++ {
		select {
		case err := <-runErr:
			t.Fatalf("Run returned %v with the producer still capturing (stats %+v)", err, loop.Stats())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop did not cycle on after the cut: %+v", loop.Stats())
		}
		renderBox(fr, i)
		if _, err := producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		if st := loop.Stats(); reattached == nil && st.Reconnects >= 1 {
			reattached = &st
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run after cancel = %v, want nil", err)
	}
}

// TestLoopFollowsProducerAcrossGatewayDrain: through rpxgw, draining the
// producer's backend migrates the producer, which ends the worker's stream
// with UNAVAILABLE while the producer lives on under the id its client
// holds. The worker must re-attach by that id and keep cycling on the
// frames the producer's new backend pushes. Once the producer closes, the
// worker's next SUBSCRIBE draws BAD_REQUEST and Run ends with that typed
// error.
func TestLoopFollowsProducerAcrossGatewayDrain(t *testing.T) {
	const w, h = 32, 32
	var backends []gateway.Backend
	var healths []*server.Health
	for i := 0; i < 2; i++ {
		health := new(server.Health)
		admin := httptest.NewServer(health)
		t.Cleanup(admin.Close)
		backends = append(backends, gateway.Backend{Addr: startServer(t), Admin: admin.Listener.Addr().String()})
		healths = append(healths, health)
	}
	g, err := gateway.New(gateway.Config{
		Backends: backends,
		Health:   gateway.WatcherConfig{Interval: time.Hour, Timeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	g.Watcher().Probe()

	// The gateway's first session lands on the first backend.
	producer, err := client.Dial(ln.Addr().String(), client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	loop, err := New(Config{
		Addr:   ln.Addr().String(),
		Target: producer.ID(),
		Policy: "event-change",
		W:      w, H: h, Format: rpx.Gray8,
		CycleLength: 2,
		MaxRetries:  20,
		Backoff:     10 * time.Millisecond,
		Logf:        onePrefix(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- loop.Run(ctx) }()

	fr := rpx.NewFrame(w, h, rpx.Gray8)
	i := 0
	captureUntil := func(what string, done func(Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !done(loop.Stats()); i++ {
			select {
			case err := <-runErr:
				t.Fatalf("Run returned %v with the producer still capturing (stats %+v)", err, loop.Stats())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: stats %+v", what, loop.Stats())
			}
			renderBox(fr, i)
			if _, err := producer.Capture(fr); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	captureUntil("the loop never cycled", func(st Stats) bool { return st.Cycles > 0 })

	healths[0].SetDraining()
	g.Watcher().Probe()
	var reattached *Stats
	captureUntil("the loop did not cycle on after the drain", func(st Stats) bool {
		if reattached == nil && st.Reconnects >= 1 {
			reattached = &st
		}
		return reattached != nil && st.Cycles > reattached.Cycles
	})
	if n := g.Snapshot().Rerouted; n != 1 {
		t.Fatalf("sessions rerouted = %d, want 1 (the producer)", n)
	}

	producer.Close()
	select {
	case err := <-runErr:
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
			t.Fatalf("Run after the producer closed = %v, want BAD_REQUEST", err)
		}
		if n := strings.Count(err.Error(), "policyloop:"); n != 1 {
			t.Fatalf("Run's error carries the package prefix %d times: %v", n, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the producer closed")
	}
}

// TestRunGivesUpWithOnePrefix: with nothing listening at the address,
// every attempt fails to dial; each retry is logged, and Run then gives
// up, with the package prefix once in every line and in the error.
func TestRunGivesUpWithOnePrefix(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	loop, err := New(Config{
		Addr: addr, Target: 1, Policy: "motion-skip",
		W: 8, H: 8, Format: rpx.Gray8,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		Logf:       onePrefix(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = loop.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("Run = %v, want it to give up after 2 attempts", err)
	}
	if n := strings.Count(err.Error(), "policyloop:"); n != 1 {
		t.Fatalf("Run's error carries the package prefix %d times: %v", n, err)
	}
}

func TestNewRejectsUnknownPolicy(t *testing.T) {
	_, err := New(Config{Addr: "x", Target: 1, W: 8, H: 8, Policy: "nope"})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	// The Build error surfaces the registry contents to the operator.
	for _, name := range policy.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestNewValidates(t *testing.T) {
	base := Config{Addr: "x", Target: 1, W: 8, H: 8, Format: rpx.Gray8, Policy: "motion-skip"}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"no addr", func(c *Config) { c.Addr = "" }},
		{"no target", func(c *Config) { c.Target = 0 }},
		{"bad geometry", func(c *Config) { c.W = 0 }},
		{"features need gray", func(c *Config) { c.Features = true; c.Format = rpx.RGB24 }},
	} {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
