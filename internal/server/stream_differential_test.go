package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// startDiffServer is the external-test-package twin of startTestServer
// (this file lives outside package server to break the test import cycle
// through rpx/client).
func startDiffServer(t *testing.T, mcfg server.Config, tcfg server.TCPConfig) string {
	t.Helper()
	srv := server.NewTCPServer(server.NewManager(mcfg), tcfg)
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

// The differential harness proves the push path byte-identical to the
// in-process library: for randomized geometries and workloads, every
// FRAME_PUSH record a subscriber receives must equal — payload, row
// offsets, encoding mask, the whole serialized EncodedFrame — what an
// in-process rpx.System sees via Capture + LastEncoded when fed the exact
// same labels and frames, and carry the same CaptureStats. Each case is
// driven by its seed alone, so any failure reproduces from the logged seed.

// diffCase runs one randomized producer/subscriber pair against the server
// at addr, beside an in-process reference. Returned errors carry the seed.
func diffCase(addr string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}

	w := 16 + rng.Intn(80)
	h := 16 + rng.Intn(60)
	format := rpx.Gray8
	if rng.Intn(3) == 0 {
		format = rpx.RGB24
	}
	frames := 3 + rng.Intn(6)

	// Random well-formed workload, sorted by Y as the runtime expects.
	labels := make([]rpx.RegionLabel, 1+rng.Intn(4))
	for i := range labels {
		lw := 1 + rng.Intn(w)
		lh := 1 + rng.Intn(h)
		skip := 1 + rng.Intn(4)
		labels[i] = rpx.RegionLabel{
			X: rng.Intn(w - lw + 1), Y: rng.Intn(h - lh + 1),
			W: lw, H: lh,
			Stride: 1 + rng.Intn(3),
			Skip:   skip,
			Phase:  rng.Intn(skip),
		}
	}
	rpx.RegionList(labels).SortByY()

	cfg := client.Config{W: w, H: h, Format: format}
	producer, err := client.Dial(addr, cfg)
	if err != nil {
		return fail("dial producer: %v", err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels(labels); err != nil {
		return fail("set labels %+v: %v", labels, err)
	}
	reference, err := rpx.NewSystem(w, h, format)
	if err != nil {
		return fail("reference system: %v", err)
	}
	if err := reference.SetRegionLabels(labels); err != nil {
		return fail("reference labels %+v: %v", labels, err)
	}
	subSess, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		return fail("dial subscriber: %v", err)
	}
	defer subSess.Close()
	st, err := subSess.Subscribe(client.SubscribeOptions{
		Target: producer.ID(),
		Credit: frames + rng.Intn(32),
		Batch:  1 + rng.Intn(8),
	})
	if err != nil {
		return fail("subscribe: %v", err)
	}

	// Feed the producer and the reference identical frames; record the
	// reference view.
	fr := rpx.NewFrame(w, h, format)
	wantStats := make([]rpx.CaptureStats, frames)
	wantRaw := make([][]byte, frames)
	for i := 0; i < frames; i++ {
		rng.Read(fr.Pix)
		pcs, err := producer.Capture(fr)
		if err != nil {
			return fail("producer capture %d: %v", i, err)
		}
		rcs, err := reference.Capture(fr)
		if err != nil {
			return fail("reference capture %d: %v", i, err)
		}
		if pcs != rcs {
			return fail("capture %d stats diverge: push-side %+v, reference %+v", i, pcs, rcs)
		}
		wantStats[i] = rcs
		var buf bytes.Buffer
		if _, err := reference.LastEncoded().WriteTo(&buf); err != nil {
			return fail("serialize reference frame %d: %v", i, err)
		}
		wantRaw[i] = buf.Bytes()
	}

	// Drain the stream: every pushed record must match the reference
	// byte-for-byte and stat-for-stat, with no gaps or drops.
	for i := 0; i < frames; i++ {
		f, err := st.Recv()
		if err != nil {
			return fail("recv %d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			return fail("recv %d has seq %d — gap or reorder", i, f.Seq)
		}
		if f.Dropped != 0 {
			return fail("recv %d reports %d dropped with ample credit", i, f.Dropped)
		}
		if f.Stats != wantStats[i] {
			return fail("frame %d stats: push %+v, reference %+v", i, f.Stats, wantStats[i])
		}
		if !bytes.Equal(f.Raw, wantRaw[i]) {
			return fail("frame %d bytes diverge from reference (%d vs %d bytes)", i, len(f.Raw), len(wantRaw[i]))
		}
	}
	if err := st.Close(); err != nil {
		return fail("unsubscribe: %v", err)
	}
	return nil
}

// TestStreamDifferential runs the randomized differential suite with 1, 2
// and 8 cases running at once against one server — 20 cases per cell, 60
// total.
func TestStreamDifferential(t *testing.T) {
	addr := startDiffServer(t, server.Config{}, server.TCPConfig{})
	const casesPer = 20
	for _, n := range []int{1, 2, 8} {
		n := n
		t.Run(fmt.Sprintf("parallel%d", n), func(t *testing.T) {
			sem := make(chan struct{}, n)
			var wg sync.WaitGroup
			for c := 0; c < casesPer; c++ {
				seed := int64(100_000*n + c)
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if err := diffCase(addr, seed); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}
