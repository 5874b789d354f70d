package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// Streaming under transport faults. The oracle everywhere: a subscriber
// observes a prefix of the frame sequence — contiguous seqs from its start
// point, every payload byte-identical to an in-process rpx.System fed the
// same labels and frames — and then
// either the stream is complete or a typed/transport error ends it. Never a
// torn FRAME_PUSH, never a gap, never a duplicate.

// streamFaultFixture boots a backend, a fault proxy in front of it for the
// subscriber, a producer dialed DIRECTLY to the backend (so scripted rule
// ordinals only ever count the subscriber's connection), the in-process
// reference, and the expected per-seq bytes for `frames` captures.
type streamFaultFixture struct {
	backendAddr string
	proxy       *faultnet.Proxy
	producer    *client.Session
	ref         *rpx.System
	want        [][]byte
}

func newStreamFaultFixture(t *testing.T, pcfg faultnet.ProxyConfig, w, h int) *streamFaultFixture {
	t.Helper()
	backend := startServer(t, server.Config{}, server.TCPConfig{})
	p, err := faultnet.NewProxy(backend, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	producer, err := client.Dial(backend, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { producer.Close() })
	ref, err := rpx.NewSystem(w, h, rpx.Gray8)
	if err != nil {
		t.Fatal(err)
	}
	labels := []rpx.RegionLabel{rpx.FullFrame(w, h)}
	if err := producer.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetRegionLabels(labels); err != nil {
		t.Fatal(err)
	}
	return &streamFaultFixture{backendAddr: backend, proxy: p, producer: producer, ref: ref}
}

// capture runs n producer captures and records the reference bytes for each.
func (fx *streamFaultFixture) capture(t *testing.T, w, h, n int) {
	t.Helper()
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	for i := 0; i < n; i++ {
		fillFrame(fr, 7, len(fx.want))
		if _, err := fx.producer.Capture(fr); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.ref.Capture(fr); err != nil {
			t.Fatal(err)
		}
		fx.want = append(fx.want, fx.ref.LastEncoded().AppendTo(nil))
	}
}

// drainUntilFault receives from st until a fault surfaces, asserting the
// prefix oracle along the way, and returns (framesReceived, err).
func drainUntilFault(t *testing.T, st *client.Stream, want [][]byte) (int, error) {
	t.Helper()
	got := 0
	for got < len(want) {
		f, err := st.Recv()
		if err != nil {
			return got, err
		}
		if f.Seq != uint64(got) {
			t.Fatalf("frame %d has seq %d — gap or reorder under faults", got, f.Seq)
		}
		if f.Dropped != 0 {
			t.Fatalf("frame %d reports drops with ample credit", got)
		}
		if !bytes.Equal(f.Raw, want[got]) {
			t.Fatalf("frame %d bytes diverge from the in-process reference — torn or corrupted push", got)
		}
		got++
	}
	return got, nil
}

// TestStreamFaultScriptedCuts: the proxy truncates (claiming the full
// length, delivering a prefix — a mid-message, mid-batch cut) or drops the
// 4th server→client message of the stream's connection, i.e. the 3rd
// FRAME_PUSH (1 ACK, 2+ pushes). The subscriber must see the
// untouched pushes byte-perfect and then a transport error that ends the
// stream — never a short or mangled frame surfaced as data. The stream
// stays ended, and the session it was opened from, on a connection of its
// own, still answers. The server coalesces up to Batch frames per push when
// the subscriber lags, so the run captures 4×Batch frames: at least 4
// pushes, whatever the timing.
func TestStreamFaultScriptedCuts(t *testing.T) {
	const w, h, frames = 48, 32, 16
	cuts := []struct {
		name string
		rule faultnet.Rule
	}{
		{"truncate-mid-push", faultnet.Rule{Dir: faultnet.ServerToClient, Nth: 4, TruncateTo: 11, Once: true}},
		{"drop-push", faultnet.Rule{Dir: faultnet.ServerToClient, Nth: 4, Drop: true, Once: true}},
	}
	for _, tc := range cuts {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fx := newStreamFaultFixture(t, faultnet.ProxyConfig{Rules: []faultnet.Rule{tc.rule}}, w, h)
			sub, err := client.Dial(fx.proxy.Addr(), client.Config{
				W: 8, H: 8, Format: rpx.Gray8, RequestTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			st, err := sub.Subscribe(client.SubscribeOptions{Target: fx.producer.ID(), Credit: 64, Batch: 4})
			if err != nil {
				t.Fatal(err)
			}
			fx.capture(t, w, h, frames)

			got, err := drainUntilFault(t, st, fx.want)
			if err == nil {
				t.Fatalf("all %d frames arrived; the scripted cut never fired", got)
			}
			if !expectedFaultErr(err) {
				t.Fatalf("stream ended with unexpected error class: %v", err)
			}
			// The two intact pushes (messages 2 and 3) carried at least two
			// frames; the cut message must deliver nothing at all.
			if got < 2 {
				t.Fatalf("only %d frames before the cut, want the intact pushes first", got)
			}
			if _, again := st.Recv(); again != err {
				t.Fatalf("Recv after the cut = %v, want the same %v", again, err)
			}
			if sub.Broken() {
				t.Fatal("a torn push on the stream's connection broke the session")
			}
			if _, err := sub.Capture(rpx.NewFrame(8, 8, rpx.Gray8)); err != nil {
				t.Fatalf("session after the stream's cut: %v", err)
			}
		})
	}
}

// TestStreamFaultMatrix: random latency, partial writes, resets, and
// truncations on the subscriber's connection, seeds pinned via
// FAULTNET_SEED. Whatever prefix of the stream survives must be contiguous
// and byte-perfect; the first fault must surface as a typed/transport
// error.
func TestStreamFaultMatrix(t *testing.T) {
	const w, h, frames = 32, 24, 30
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fx := newStreamFaultFixture(t, faultnet.ProxyConfig{
				ClientFaults: faultnet.Faults{
					Seed:             seed,
					LatencyProb:      0.05,
					LatencyMin:       time.Millisecond,
					LatencyMax:       10 * time.Millisecond,
					PartialWriteProb: 0.10,
					ResetProb:        0.03,
					TruncateProb:     0.05,
				},
			}, w, h)
			sub, err := client.Dial(fx.proxy.Addr(), client.Config{
				W: 8, H: 8, Format: rpx.Gray8, RequestTimeout: 2 * time.Second,
			})
			if err != nil {
				// Faults may hit the handshake itself; typed outcome, fine.
				if !expectedFaultErr(err) {
					t.Fatalf("dial: unexpected error class: %v", err)
				}
				return
			}
			defer sub.Close()
			st, err := sub.Subscribe(client.SubscribeOptions{Target: fx.producer.ID(), Credit: 64, Batch: 4})
			if err != nil {
				if !expectedFaultErr(err) {
					t.Fatalf("subscribe: unexpected error class: %v", err)
				}
				return
			}
			fx.capture(t, w, h, frames)

			got, err := drainUntilFault(t, st, fx.want)
			switch {
			case err == nil:
				// Clean run for this seed: close out; the unsubscribe itself
				// may still be hit by a fault.
				if cerr := st.Close(); cerr != nil && !expectedFaultErr(cerr) {
					t.Fatalf("close: unexpected error class: %v", cerr)
				}
			case expectedFaultErr(err):
				t.Logf("seed %d: fault after %d clean frames: %v", seed, got, err)
			default:
				t.Fatalf("stream ended with unexpected error class: %v", err)
			}
		})
	}
}
