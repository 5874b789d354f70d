package gateway_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// testBackend is one live rpxd with handles the tests need: its manager
// (session counts), its health state (planned drain), and a hard kill.
type testBackend struct {
	addr   string
	admin  string // set only by startBackendWithAdmin
	mgr    *server.Manager
	health *server.Health
	kill   func()
}

// startBackend boots a real rpxd TCPServer on a loopback port. kill
// force-closes its connections (10ms drain budget), standing in for a
// crashed or partitioned backend.
func startBackend(tb testing.TB) *testBackend {
	tb.Helper()
	mgr := server.NewManager(server.Config{})
	srv := server.NewTCPServer(mgr, server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	b := &testBackend{addr: ln.Addr().String(), mgr: mgr}
	var once sync.Once
	b.kill = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	tb.Cleanup(b.kill)
	return b
}

// startBackendWithAdmin adds the real /healthz admin endpoint (the same
// server.Health handler rpxd serves) so the gateway's watcher probes the
// genuine article.
func startBackendWithAdmin(tb testing.TB) *testBackend {
	tb.Helper()
	b := startBackend(tb)
	b.health = new(server.Health)
	ts := httptest.NewServer(b.health)
	tb.Cleanup(ts.Close)
	b.admin = ts.Listener.Addr().String()
	return b
}

// startGateway boots a gateway over the given backends. The watcher's
// interval is an hour so only its startup probe and explicit Probe() calls
// run — state transitions in tests are deterministic.
func startGateway(tb testing.TB, backends []gateway.Backend, mut func(*gateway.Config)) (string, *gateway.Gateway) {
	tb.Helper()
	cfg := gateway.Config{
		Backends: backends,
		Health:   gateway.WatcherConfig{Interval: time.Hour, Timeout: 500 * time.Millisecond},
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := gateway.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go g.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return ln.Addr().String(), g
}

func fillFrame(fr *rpx.Frame, session, index int) {
	for i := range fr.Pix {
		fr.Pix[i] = byte(session*37 + index*11 + i)
	}
}

// expectedFaultErr mirrors the client fault-matrix contract: an error from
// an op on a faulty path must be typed — remote, transport, or poisoned
// session — never silence or a mangled success.
func expectedFaultErr(err error) bool {
	var re *wire.RemoteError
	var ne net.Error
	return errors.Is(err, client.ErrBrokenSession) ||
		errors.As(err, &re) ||
		errors.As(err, &ne) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// faultSeeds pins the injection matrix to FAULTNET_SEED when set (the CI
// smoke stage does), else runs a small fixed spread.
func faultSeeds(t *testing.T) []int64 {
	if v := os.Getenv("FAULTNET_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("FAULTNET_SEED=%q: %v", v, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 1234}
}

func TestParseBackends(t *testing.T) {
	got, err := gateway.ParseBackends("10.0.0.1:7621@10.0.0.1:9621, 10.0.0.2:7621 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []gateway.Backend{
		{Addr: "10.0.0.1:7621", Admin: "10.0.0.1:9621"},
		{Addr: "10.0.0.2:7621"},
	}
	if len(got) != len(want) {
		t.Fatalf("ParseBackends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseBackends[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "a:1,a:1", "@admin:1"} {
		if _, err := gateway.ParseBackends(bad); err == nil {
			t.Errorf("ParseBackends(%q) accepted, want error", bad)
		}
	}
}

// TestGatewayProxySingleBackend is the transparency check: every client op
// through the gateway must behave byte-identically to a direct rpxd
// session — same capture stats, same decoded pixels — because the gateway
// relays without re-encoding.
func TestGatewayProxySingleBackend(t *testing.T) {
	b := startBackend(t)
	gaddr, g := startGateway(t, []gateway.Backend{{Addr: b.addr}}, nil)

	const w, h = 48, 36
	labels := []rpx.RegionLabel{
		{X: 4, Y: 4, W: 32, H: 24, Stride: 2, Skip: 1},
		{X: 0, Y: 30, W: w, H: 6, Stride: 1, Skip: 1},
	}
	sess, err := client.Dial(gaddr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ref, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	for i := 0; i < 5; i++ {
		fillFrame(fr, 3, i)
		got, err := sess.Capture(fr)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		want, err := ref.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("capture stats %d = %+v, want %+v", i, got, want)
		}
	}
	dGot, err := sess.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	dWant, err := ref.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	if !dGot.Equal(dWant) {
		t.Fatal("decoded frame through gateway differs from direct pipeline")
	}

	snap := g.Snapshot()
	if snap.SessionsOpen != 1 || snap.SessionsTotal != 1 {
		t.Fatalf("snapshot = %+v, want 1 open / 1 total", snap)
	}
	if bs := snap.Backends[b.addr]; bs.LocalSessions != 1 {
		t.Fatalf("backend snapshot = %+v, want 1 local session", bs)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close through gateway: %v", err)
	}
	if n := g.Snapshot().SessionsOpen; n != 0 {
		t.Fatalf("SessionsOpen after close = %d, want 0", n)
	}
}

// TestGatewayRelaysRejection pins the deterministic-rejection contract: a
// backend's handshake rejection (here CodeGeometry from a payload cap the
// session cannot fit) is relayed to the client verbatim, with no failover —
// every backend would answer the same.
func TestGatewayRelaysRejection(t *testing.T) {
	mgr := server.NewManager(server.Config{})
	srv := server.NewTCPServer(mgr, server.TCPConfig{MaxPayload: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	gaddr, _ := startGateway(t, []gateway.Backend{{Addr: ln.Addr().String()}}, nil)
	_, err = client.Dial(gaddr, client.Config{W: 128, H: 128, Format: rpx.Gray8})
	if err == nil {
		t.Fatal("oversized geometry accepted through gateway")
	}
	if !client.IsGeometryRejected(err) {
		t.Fatalf("dial error = %v, want the backend's geometry rejection relayed", err)
	}
}

// TestGatewayRejectsRetiredHello: rpxgw validates a HELLO before it dials
// any backend. A v9 HELLO appended a u32 decoder history depth; at depth
// 1<<30 it ended a v9 backend out of memory, and the gateway, taking that
// for a transport failure, replayed it to the next backend. Now it draws
// CodeProto at the gateway, no backend opens a session, and the fleet
// keeps serving.
func TestGatewayRejectsRetiredHello(t *testing.T) {
	backends := []*testBackend{startBackend(t), startBackend(t)}
	gaddr, _ := startGateway(t, []gateway.Backend{{Addr: backends[0].addr}, {Addr: backends[1].addr}}, nil)
	v9 := binary.LittleEndian.AppendUint32(wire.MarshalHello(wire.Hello{W: 8, H: 8, Format: rpx.Gray8}), 1<<30)
	binary.LittleEndian.PutUint32(v9[4:], 9)
	conn, err := net.DialTimeout("tcp", gaddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, wire.MsgHello, v9, 0); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	re, _ := wire.UnmarshalError(payload)
	if typ != wire.MsgError || re == nil || re.Code != wire.CodeProto {
		t.Fatalf("v9 HELLO through the gateway got type %d (%v), want a PROTO error", typ, re)
	}
	for i, b := range backends {
		if n := b.mgr.Snapshot().SessionsOpened; n != 0 {
			t.Fatalf("backend %d opened %d sessions for a rejected HELLO", i, n)
		}
	}
	sess, err := client.Dial(gaddr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatalf("dial after the rejected HELLO: %v", err)
	}
	defer sess.Close()
	if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(8, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
		t.Fatalf("capture after the rejected HELLO: %v", err)
	}
}

// TestGatewaySessionLimitFailover: a full backend (MaxSessions 1) answers
// CodeSessionLimit, which is not deterministic across the fleet — the
// gateway fails over to the next backend instead of relaying it.
func TestGatewaySessionLimitFailover(t *testing.T) {
	full := server.NewManager(server.Config{MaxSessions: 1})
	fullSrv := server.NewTCPServer(full, server.TCPConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fullSrv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		fullSrv.Shutdown(ctx)
	})
	roomy := startBackend(t)

	gaddr, g := startGateway(t, []gateway.Backend{{Addr: ln.Addr().String()}, {Addr: roomy.addr}}, nil)
	var sessions []*client.Session
	for i := 0; i < 4; i++ {
		sess, err := client.Dial(gaddr, client.Config{W: 16, H: 12, Format: rpx.Gray8})
		if err != nil {
			t.Fatalf("dial %d through gateway with one full backend: %v", i, err)
		}
		defer sess.Close()
		sessions = append(sessions, sess)
	}
	snap := g.Snapshot()
	if snap.SessionsOpen != len(sessions) {
		t.Fatalf("snapshot sessions open = %d, want %d", snap.SessionsOpen, len(sessions))
	}
	if bs := snap.Backends[ln.Addr().String()]; bs.LocalSessions > 1 {
		t.Fatalf("full backend holds %d sessions, cap is 1", bs.LocalSessions)
	}
}

// TestGatewayPlacement pins the placement rule for new and migrated
// sessions alike: the routable backend holding the fewest of the gateway's
// sessions. Concurrent dials spread evenly because each is counted when
// its backend is picked, and draining a backend splits its sessions
// between the survivors.
func TestGatewayPlacement(t *testing.T) {
	backends := []*testBackend{startBackendWithAdmin(t), startBackendWithAdmin(t), startBackendWithAdmin(t)}
	var cfgBackends []gateway.Backend
	for _, b := range backends {
		cfgBackends = append(cfgBackends, gateway.Backend{Addr: b.addr, Admin: b.admin})
	}
	gaddr, g := startGateway(t, cfgBackends, nil)
	g.Watcher().Probe()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := client.Dial(gaddr, client.Config{W: 16, H: 12, Format: rpx.Gray8})
			if err != nil {
				t.Error(err)
				return
			}
			t.Cleanup(func() { sess.Close() })
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := fmt.Sprint(sessionsAcross(backends)); got != "[2 2 2]" {
		t.Fatalf("6 concurrent dials over 3 backends landed %s, want [2 2 2]", got)
	}

	backends[0].health.SetDraining()
	g.Watcher().Probe()
	deadline := time.Now().Add(5 * time.Second)
	for fmt.Sprint(sessionsAcross(backends)) != "[0 3 3]" || g.Snapshot().Rerouted != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("after draining backend 0: sessions %v, rerouted %d; want [0 3 3] after 2 migrations",
				sessionsAcross(backends), g.Snapshot().Rerouted)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayDrainMigration is the planned-drain path: a backend flips its
// real /healthz to draining, the watcher cordons it, and its live session
// migrates to the survivor with HELLO and the last SetRegionLabels replayed
// — proven by post-migration capture/decode being byte-identical to a fresh
// reference pipeline with those labels installed.
func TestGatewayDrainMigration(t *testing.T) {
	b1 := startBackendWithAdmin(t)
	b2 := startBackendWithAdmin(t)
	backends := []gateway.Backend{
		{Addr: b1.addr, Admin: b1.admin},
		{Addr: b2.addr, Admin: b2.admin},
	}
	byAddr := map[string]*testBackend{b1.addr: b1, b2.addr: b2}
	gaddr, g := startGateway(t, backends, nil)
	g.Watcher().Probe() // both healthy

	const w, h = 40, 30
	labels := []rpx.RegionLabel{{X: 2, Y: 2, W: 30, H: 20, Stride: 2, Skip: 1}}
	sess, err := client.Dial(gaddr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	fillFrame(fr, 9, 0)
	if _, err := sess.Capture(fr); err != nil {
		t.Fatal(err)
	}

	// Find the pinned backend and start its planned drain.
	var pinned string
	for addr, bs := range g.Snapshot().Backends {
		if bs.LocalSessions == 1 {
			pinned = addr
		}
	}
	if pinned == "" {
		t.Fatal("no backend reports the session")
	}
	byAddr[pinned].health.SetDraining()
	g.Watcher().Probe()

	// Evacuation runs asynchronously; wait for the session to land on the
	// survivor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := g.Snapshot()
		if snap.Backends[pinned].LocalSessions == 0 && snap.Rerouted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never migrated off draining backend: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := g.Snapshot().Backends[pinned]; st.State != "draining" {
		t.Fatalf("drained backend state = %q, want draining", st.State)
	}

	// The replacement pipeline is fresh but must carry the replayed labels:
	// capture/decode byte-identical to a fresh reference with those labels.
	ref, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		fillFrame(fr, 9, i)
		got, err := sess.Capture(fr)
		if err != nil {
			t.Fatalf("post-drain capture %d: %v", i, err)
		}
		want, err := ref.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("post-drain capture stats %d = %+v, want %+v (labels not replayed?)", i, got, want)
		}
		dGot, err := sess.Decoded()
		if err != nil {
			t.Fatalf("post-drain decode %d: %v", i, err)
		}
		dWant, err := ref.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		if !dGot.Equal(dWant) {
			t.Fatalf("post-drain decode %d differs — labels not replayed onto replacement", i)
		}
	}
	if sess.Broken() {
		t.Fatal("client session broken; migration must be invisible to the client")
	}
}

// TestGatewayKillBackendMidMatrix is the acceptance e2e: a session matrix
// runs through the gateway over three backends while the most-loaded
// backend is hard-killed mid-matrix. The candidate-set oracle from the
// client fault tests applies end to end: every op returns either bytes
// matching a legitimately-captured frame or a typed error — never a
// mismatched frame — and the killed backend's sessions recover onto
// survivors via HELLO replay without any client session breaking.
func TestGatewayKillBackendMidMatrix(t *testing.T) {
	backends := []*testBackend{startBackend(t), startBackend(t), startBackend(t)}
	var cfgBackends []gateway.Backend
	byAddr := map[string]*testBackend{}
	for _, b := range backends {
		cfgBackends = append(cfgBackends, gateway.Backend{Addr: b.addr})
		byAddr[b.addr] = b
	}
	gaddr, g := startGateway(t, cfgBackends, func(cfg *gateway.Config) {
		cfg.BackendTimeout = 2 * time.Second
	})

	const w, h, frames, sessions = 24, 16, 30, 8
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			// With 8 sessions on 3 backends the most-loaded one holds >= 3;
			// killing it guarantees migrations happen.
			var victim string
			max := -1
			for addr, bs := range g.Snapshot().Backends {
				if bs.LocalSessions > max {
					victim, max = addr, bs.LocalSessions
				}
			}
			t.Logf("killing backend %s (%d sessions)", victim, max)
			byAddr[victim].kill()
		})
	}

	// Frames start once every session has dialed, so all of them are open
	// when the kill lands. The gateway counts a session on its backend from
	// the moment it picks it, so a victim chosen while dials were still in
	// flight could hold only handshakes, which fail over without a reroute.
	var wg, dialed sync.WaitGroup
	dialed.Add(sessions)
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("session %d: %s", si, fmt.Sprintf(format, args...))
			}
			sess, err := client.Dial(gaddr, client.Config{
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
				fillFrame(fr, si*1000, i)
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
				fail("client session broken; migration must be invisible to the client")
			}
		}(si)
	}
	wg.Wait()

	snap := g.Snapshot()
	if snap.Rerouted == 0 {
		t.Errorf("no sessions rerouted after killing the most-loaded backend: %+v", snap)
	}
}

// TestGatewayFaultMatrix layers faultnet between the gateway and one
// backend: random latency, partial writes, resets, and truncations on that
// path force mid-request migrations under -race. The candidate-set oracle
// must still hold for every session, and no client session may break.
func TestGatewayFaultMatrix(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clean := startBackend(t)
			faulty := startBackend(t)
			proxy, err := faultnet.NewProxy(faulty.addr, faultnet.ProxyConfig{
				ClientFaults: faultnet.Faults{
					Seed:             seed,
					LatencyProb:      0.05,
					LatencyMin:       time.Millisecond,
					LatencyMax:       20 * time.Millisecond,
					PartialWriteProb: 0.10,
					ResetProb:        0.03,
					TruncateProb:     0.03,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			gaddr, _ := startGateway(t, []gateway.Backend{
				{Addr: clean.addr}, {Addr: proxy.Addr()},
			}, func(cfg *gateway.Config) {
				cfg.BackendTimeout = time.Second
			})

			const w, h, frames, sessions = 24, 16, 25, 4
			var wg sync.WaitGroup
			for si := 0; si < sessions; si++ {
				wg.Add(1)
				go func(si int) {
					defer wg.Done()
					fail := func(format string, args ...any) {
						t.Errorf("seed %d session %d: %s", seed, si, fmt.Sprintf(format, args...))
					}
					sess, err := client.Dial(gaddr, client.Config{
						W: w, H: h, Format: rpx.Gray8,
						RequestTimeout: 5 * time.Second,
					})
					if err != nil {
						if !expectedFaultErr(err) {
							fail("dial: unexpected error class: %v", err)
						}
						return
					}
					defer sess.Close()
					installed := false
					for attempt := 0; attempt < 50; attempt++ {
						err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)})
						if err == nil {
							installed = true
							break
						}
						if !expectedFaultErr(err) {
							fail("set labels: unexpected error class: %v", err)
							return
						}
					}
					if !installed {
						fail("labels never installed in 50 attempts")
						return
					}
					mkFrame := func(i int) *rpx.Frame {
						fr := rpx.NewFrame(w, h, rpx.Gray8)
						fillFrame(fr, si*1000, i)
						return fr
					}
					var candidates []int
					for i := 0; i < frames; i++ {
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
							fail("decode %d matches none of the possibly-captured frames %v", i, candidates)
							return
						}
					}
					if sess.Broken() {
						fail("client session broken; migration must be invisible to the client")
					}
				}(si)
			}
			wg.Wait()
		})
	}
}

// TestGatewayShutdownDrains: Shutdown must refuse new connections, wake
// idle sessions, and return within the drain budget.
func TestGatewayShutdownDrains(t *testing.T) {
	b := startBackend(t)
	cfg := gateway.Config{
		Backends: []gateway.Backend{{Addr: b.addr}},
		Health:   gateway.WatcherConfig{Interval: time.Hour},
	}
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(ln) }()

	sess, err := client.Dial(ln.Addr().String(), client.Config{W: 16, H: 12, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	if _, err := client.Dial(ln.Addr().String(), client.Config{W: 16, H: 12, Format: rpx.Gray8}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
