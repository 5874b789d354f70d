package client_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// startServer boots a TCPServer on a loopback listener.
func startServer(tb testing.TB, mcfg server.Config, tcfg server.TCPConfig) string {
	tb.Helper()
	return serveManager(tb, server.NewManager(mcfg), tcfg)
}

// serveManager boots a TCPServer over mgr on a loopback listener.
func serveManager(tb testing.TB, mgr *server.Manager, tcfg server.TCPConfig) string {
	tb.Helper()
	srv := server.NewTCPServer(mgr, tcfg)
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

// sessionGeometry is one concurrent client's distinct configuration.
type sessionGeometry struct {
	w, h   int
	format rpx.Format
	labels []rpx.RegionLabel
}

func e2eGeometries() []sessionGeometry {
	return []sessionGeometry{
		{64, 48, rpx.Gray8, []rpx.RegionLabel{{X: 8, Y: 8, W: 32, H: 24, Stride: 1, Skip: 1}}},
		{80, 60, rpx.Gray8, []rpx.RegionLabel{{X: 0, Y: 0, W: 80, H: 60, Stride: 2, Skip: 1}}},
		{32, 32, rpx.RGB24, []rpx.RegionLabel{rpx.FullFrame(32, 32)}},
		{96, 32, rpx.Gray8, []rpx.RegionLabel{{X: 16, Y: 4, W: 64, H: 24, Stride: 1, Skip: 2}}},
		{48, 48, rpx.YUV444, []rpx.RegionLabel{{X: 4, Y: 4, W: 40, H: 40, Stride: 2, Skip: 2}}},
		{128, 24, rpx.Gray8, []rpx.RegionLabel{{X: 0, Y: 0, W: 64, H: 24, Stride: 1, Skip: 1}, {X: 64, Y: 0, W: 64, H: 24, Stride: 4, Skip: 3}}},
		{56, 72, rpx.Gray8, []rpx.RegionLabel{{X: 8, Y: 16, W: 40, H: 40, Stride: 2, Skip: 1}}},
		{40, 40, rpx.RGB24, []rpx.RegionLabel{{X: 0, Y: 0, W: 40, H: 20, Stride: 1, Skip: 1}}},
	}
}

// fillFrame generates a deterministic per-session, per-frame test pattern.
func fillFrame(fr *rpx.Frame, session, index int) {
	for i := range fr.Pix {
		fr.Pix[i] = byte(session*37 + index*11 + i)
	}
}

// TestEndToEndConcurrentSessions is the acceptance test: >= 8 concurrent
// client sessions with different geometries each capture >= 16 frames
// through a loopback rpxd and must decode byte-for-byte identically to an
// in-process rpx.System fed the same frames.
func TestEndToEndConcurrentSessions(t *testing.T) {
	mgr := server.NewManager(server.Config{})
	addr := serveManager(t, mgr, server.TCPConfig{})
	geoms := e2eGeometries()
	const frames = 16

	var wg sync.WaitGroup
	for gi, g := range geoms {
		wg.Add(1)
		go func(gi int, g sessionGeometry) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("session %d (%dx%d %v): %s", gi, g.w, g.h, g.format, fmt.Sprintf(format, args...))
			}

			sess, err := client.Dial(addr, client.Config{W: g.w, H: g.h, Format: g.format})
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer sess.Close()

			ref, err := rpx.NewSystem(g.w, g.h, g.format)
			if err != nil {
				fail("ref system: %v", err)
				return
			}
			if err := sess.SetRegionLabels(g.labels); err != nil {
				fail("set labels: %v", err)
				return
			}
			if err := ref.SetRegionLabels(g.labels); err != nil {
				fail("ref set labels: %v", err)
				return
			}

			fr := rpx.NewFrame(g.w, g.h, g.format)
			for i := 0; i < frames; i++ {
				fillFrame(fr, gi, i)
				got, err := sess.Capture(fr)
				if err != nil {
					fail("capture %d: %v", i, err)
					return
				}
				want, err := ref.Capture(fr)
				if err != nil {
					fail("ref capture %d: %v", i, err)
					return
				}
				if got != want {
					fail("capture stats %d = %+v, want %+v", i, got, want)
					return
				}
				dGot, err := sess.Decoded()
				if err != nil {
					fail("decode %d: %v", i, err)
					return
				}
				dWant, err := ref.Decoded()
				if err != nil {
					fail("ref decode %d: %v", i, err)
					return
				}
				if !dGot.Equal(dWant) {
					fail("decoded frame %d differs byte-for-byte", i)
					return
				}
			}
		}(gi, g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Aggregate stats must reflect the whole run.
	snap := mgr.Snapshot()
	wantFrames := int64(len(geoms) * frames)
	if snap.FramesCaptured != wantFrames {
		t.Fatalf("server FramesCaptured = %d, want %d", snap.FramesCaptured, wantFrames)
	}
	if snap.SessionsOpened != int64(len(geoms)) {
		t.Fatalf("server SessionsOpened = %d, want %d", snap.SessionsOpened, len(geoms))
	}
	if snap.EncodedBytes == 0 {
		t.Fatal("server EncodedBytes = 0")
	}
	capture := snap.OpLatency["capture"]
	if capture.Count != uint64(wantFrames) {
		t.Fatalf("capture latency count = %d, want %d", capture.Count, wantFrames)
	}
}

// BenchmarkSessionsFPS reports aggregate frames/sec through a loopback
// rpxd across 1, 4, and 8 concurrent sessions (capture + decode per frame).
func BenchmarkSessionsFPS(b *testing.B) {
	for _, sessions := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			addr := startServer(b, server.Config{}, server.TCPConfig{})
			const w, h = 64, 48

			clients := make([]*client.Session, sessions)
			for i := range clients {
				sess, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
				if err != nil {
					b.Fatal(err)
				}
				defer sess.Close()
				if err := sess.SetRegionLabels([]rpx.RegionLabel{{X: 8, Y: 8, W: 48, H: 32, Stride: 2, Skip: 1}}); err != nil {
					b.Fatal(err)
				}
				clients[i] = sess
			}

			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			perSession := b.N
			for ci, sess := range clients {
				wg.Add(1)
				go func(ci int, sess *client.Session) {
					defer wg.Done()
					fr := rpx.NewFrame(w, h, rpx.Gray8)
					for i := 0; i < perSession; i++ {
						fillFrame(fr, ci, i)
						if _, err := sess.Capture(fr); err != nil {
							b.Error(err)
							return
						}
						if _, err := sess.Decoded(); err != nil {
							b.Error(err)
							return
						}
					}
				}(ci, sess)
			}
			wg.Wait()
			b.StopTimer()
			total := float64(sessions * perSession)
			b.ReportMetric(total/time.Since(start).Seconds(), "frames/sec")
		})
	}
}
