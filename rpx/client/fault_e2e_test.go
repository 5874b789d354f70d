package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// startProxiedServer boots an rpxd TCPServer behind a faultnet proxy and
// returns the proxy plus the dialable (faulty) address.
func startProxiedServer(tb testing.TB, mcfg server.Config, tcfg server.TCPConfig, pcfg faultnet.ProxyConfig) (*faultnet.Proxy, string) {
	tb.Helper()
	backend := startServer(tb, mcfg, tcfg)
	p, err := faultnet.NewProxy(backend, pcfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p, p.Addr()
}

// legacySession reproduces the pre-fix client's round-trip semantics: set
// deadlines, write the request, read exactly one reply — and, crucially,
// keep using the connection after a timeout. It exists to demonstrate the
// desync bug the real client now refuses to commit.
type legacySession struct {
	conn net.Conn
	br   *bufio.Reader
}

func legacyDial(t *testing.T, addr string, cfg client.Config) *legacySession {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ls := &legacySession{conn: conn, br: bufio.NewReader(conn)}
	payload, err := ls.roundTrip(wire.MsgHello, wire.MarshalHello(wire.Hello{
		W: cfg.W, H: cfg.H, Format: cfg.Format,
	}), 5*time.Second)
	if err != nil {
		t.Fatalf("legacy handshake: %v", err)
	}
	if _, err := wire.UnmarshalHelloAck(payload); err != nil {
		t.Fatalf("legacy handshake ack: %v", err)
	}
	return ls
}

// roundTrip is the pre-fix behaviour: on timeout the error is returned but
// the connection is reused as if nothing happened.
func (ls *legacySession) roundTrip(typ byte, payload []byte, timeout time.Duration) ([]byte, error) {
	ls.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := wire.WriteMessage(ls.conn, typ, payload, wire.DefaultMaxPayload); err != nil {
		return nil, err
	}
	ls.conn.SetReadDeadline(time.Now().Add(timeout))
	_, rpayload, err := wire.ReadMessage(ls.br, wire.DefaultMaxPayload)
	return rpayload, err
}

// delayedReplyRules delays the 5th server→client message — the FRAME reply
// to the second Decode in the scripted scenario below (1 HELLO_ACK, 2 ACK
// labels, 3 CAPTURE_ACK, 4 FRAME decode, 5 FRAME decode) — far past the
// client's RequestTimeout.
func delayedReplyRules(delay time.Duration) faultnet.ProxyConfig {
	return faultnet.ProxyConfig{Rules: []faultnet.Rule{
		{Dir: faultnet.ServerToClient, Nth: 5, Delay: delay, Once: true},
	}}
}

// TestDesyncLegacyClientReturnsMismatchedReply documents the headline bug:
// with the old round-trip semantics, a reply delayed past the request
// timeout stays in the socket, and the *next* call reads it as its own
// answer — here, a CAPTURE happily returns the FRAME that belongs to the
// previous request.
func TestDesyncLegacyClientReturnsMismatchedReply(t *testing.T) {
	_, addr := startProxiedServer(t, server.Config{}, server.TCPConfig{}, delayedReplyRules(400*time.Millisecond))
	const w, h = 32, 24
	ls := legacyDial(t, addr, client.Config{W: w, H: h, Format: rpx.Gray8})

	if _, err := ls.roundTrip(wire.MsgSetLabels, wire.MarshalLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}), 5*time.Second); err != nil {
		t.Fatalf("set labels: %v", err)
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	fillFrame(fr, 1, 0)
	if _, err := ls.roundTrip(wire.MsgCapture, fr.Pix, 5*time.Second); err != nil {
		t.Fatalf("capture: %v", err)
	}
	if _, err := ls.roundTrip(wire.MsgDecode, nil, 5*time.Second); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Decode again; this reply is delayed past the timeout.
	if _, err := ls.roundTrip(wire.MsgDecode, nil, 100*time.Millisecond); err == nil {
		t.Fatal("delayed reply arrived in time; fault injection did not fire")
	}

	// Legacy behaviour: capture the next frame and read the stale FRAME
	// reply as if it answered this call.
	fillFrame(fr, 1, 1)
	payload, err := ls.roundTrip(wire.MsgCapture, fr.Pix, 5*time.Second)
	if err != nil {
		t.Fatalf("legacy capture: %v", err)
	}
	if _, err := wire.UnmarshalCaptureAck(payload); err == nil {
		t.Fatal("legacy client got its capture ack — the desync this fix addresses did not reproduce")
	}
	got, err := wire.UnmarshalFrame(payload)
	if err != nil {
		t.Fatalf("legacy capture reply is neither a CAPTURE_ACK nor the stale FRAME: %v", err)
	}
	if got.W != w || got.H != h {
		t.Fatalf("legacy client got a %dx%d frame, expected the stale %dx%d decode", got.W, got.H, w, h)
	}
}

// TestBrokenSessionAfterTimeout is the fixed client on the identical
// scenario: the timed-out call fails, and instead of reading the stale
// reply the next call fails with ErrBrokenSession.
func TestBrokenSessionAfterTimeout(t *testing.T) {
	_, addr := startProxiedServer(t, server.Config{}, server.TCPConfig{}, delayedReplyRules(400*time.Millisecond))
	const w, h = 32, 24
	sess, err := client.Dial(addr, client.Config{
		W: w, H: h, Format: rpx.Gray8, RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	fillFrame(fr, 1, 0)
	if _, err := sess.Capture(fr); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Decoded(); err != nil {
		t.Fatal(err)
	}

	_, err = sess.Decoded()
	if err == nil {
		t.Fatal("delayed reply arrived in time; fault injection did not fire")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("timed-out call = %v, want a timeout error", err)
	}
	if !sess.Broken() {
		t.Fatal("session not poisoned after timeout")
	}

	// The call that used to read the stale reply now refuses.
	if _, err := sess.Decoded(); !errors.Is(err, client.ErrBrokenSession) {
		t.Fatalf("post-timeout call = %v, want ErrBrokenSession", err)
	}
	if _, err := sess.Capture(fr); !errors.Is(err, client.ErrBrokenSession) {
		t.Fatalf("post-timeout capture = %v, want ErrBrokenSession", err)
	}
}

// faultSeeds returns the injection-matrix seeds: FAULTNET_SEED pins a
// single deterministic seed (the CI smoke stage uses this so failures
// reproduce); otherwise a small fixed spread runs.
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

// expectedFaultErr asserts an error from a faulty-network call is one of
// the typed/transport classes the client contract allows — never silence,
// never a mangled success.
func expectedFaultErr(err error) bool {
	var re *wire.RemoteError
	var ne net.Error
	return errors.Is(err, client.ErrBrokenSession) ||
		errors.As(err, &re) ||
		errors.As(err, &ne) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// TestFaultMatrix drives concurrent client sessions through a proxy
// injecting random latency spikes, partial writes, mid-message resets, and
// truncations, under -race. The oracle: with full-frame labels the decoded
// frame must byte-equal the last successfully captured frame (or one whose
// capture's ack was lost in flight) — every completed call returns either
// the correct bytes or a typed error, never a mismatched frame. A session a
// fault broke is replaced the one way the client offers: Dial again and
// re-install the labels. The new server-side session holds no frame yet, so
// the candidate set starts over. Each seed must exercise that path.
func TestFaultMatrix(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, addr := startProxiedServer(t, server.Config{}, server.TCPConfig{}, faultnet.ProxyConfig{
				ClientFaults: faultnet.Faults{
					Seed:             seed,
					LatencyProb:      0.05,
					LatencyMin:       time.Millisecond,
					LatencyMax:       30 * time.Millisecond,
					PartialWriteProb: 0.10,
					ResetProb:        0.02,
					TruncateProb:     0.02,
				},
			})
			const w, h, frames, sessions = 24, 16, 40, 4
			var redials atomic.Int64
			var wg sync.WaitGroup
			for si := 0; si < sessions; si++ {
				wg.Add(1)
				go func(si int) {
					defer wg.Done()
					fail := func(format string, args ...any) {
						t.Errorf("seed %d session %d: %s", seed, si, fmt.Sprintf(format, args...))
					}
					// open dials a session and installs full-frame labels,
					// starting over on a fresh session when an injected fault
					// hits either step; each must fail with a typed error.
					open := func() *client.Session {
						for attempt := 0; attempt < 50; attempt++ {
							sess, err := client.Dial(addr, client.Config{
								W: w, H: h, Format: rpx.Gray8,
								RequestTimeout: 250 * time.Millisecond,
							})
							if err != nil {
								if !expectedFaultErr(err) {
									fail("dial: unexpected error class: %v", err)
									return nil
								}
								continue
							}
							err = sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)})
							if err == nil {
								return sess
							}
							sess.Close()
							if !expectedFaultErr(err) {
								fail("set labels: unexpected error class: %v", err)
								return nil
							}
						}
						fail("no session with labels installed in 50 attempts")
						return nil
					}
					sess := open()
					if sess == nil {
						return
					}
					defer func() {
						if sess != nil {
							sess.Close()
						}
					}()

					mkFrame := func(i int) *rpx.Frame {
						fr := rpx.NewFrame(w, h, rpx.Gray8)
						fillFrame(fr, si*1000, i)
						return fr
					}
					// candidates is the set of frame indices the server may
					// legitimately hold: the last acked capture, plus any
					// captures whose acks were lost in flight since.
					var candidates []int
					// heal replaces a broken session with a fresh one, which
					// holds no frame.
					heal := func() bool {
						if !sess.Broken() {
							return true
						}
						sess.Close()
						redials.Add(1)
						candidates = nil
						sess = open()
						return sess != nil
					}
					for i := 0; i < frames; i++ {
						if !heal() {
							return
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
						if !heal() {
							return
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
							fail("decode %d returned a frame matching none of the possibly-captured frames %v — a mismatched reply", i, candidates)
							return
						}
					}
				}(si)
			}
			wg.Wait()
			if redials.Load() == 0 {
				t.Errorf("seed %d: no session broke, so the re-dial path went untested", seed)
			}
			t.Logf("seed %d: %d re-dials", seed, redials.Load())
		})
	}
}
