package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/wire"
)

// The soak drives one producer session against three subscribers with
// deliberately mismatched drain rates and checks the credit ledger's
// invariants the whole way:
//
//   - in-flight never exceeds granted credit: for every subscription,
//     delivered + buffered ≤ granted, and buffered never exceeds the
//     window — a stalled subscriber cannot make the server buffer grow;
//   - no frame is silently lost: at the end, delivered + dropped equals
//     the frames published for every subscriber, and sequence numbers are
//     strictly increasing (no duplicates, no reorders);
//   - a stalled subscriber keeps every frame inside its credit window —
//     the window is filled in order, then later frames drop (counted).

const soakFrames = 520 // 500 while the stalled subscriber sleeps, 20 after

// soakConsumer drains a subscription with a per-batch ledger check and
// records delivered seqs.
type soakConsumer struct {
	sub       *Subscription
	delivered []uint64
	errs      []string
}

func (c *soakConsumer) drainBatch() bool {
	items, _, ok := c.sub.Next()
	for _, it := range items {
		if n := len(c.delivered); n > 0 && it.seq <= c.delivered[n-1] {
			c.errs = append(c.errs, fmt.Sprintf("seq %d after %d: duplicate or reorder", it.seq, c.delivered[n-1]))
		}
		c.delivered = append(c.delivered, it.seq)
	}
	release(items)
	// Ledger invariant: every delivered or buffered frame consumed one
	// granted credit. Buffered may grow concurrently, but can never push
	// the sum past the cumulative grant.
	if got, granted := uint64(len(c.delivered)+c.sub.Buffered()), c.sub.Granted(); got > granted {
		c.errs = append(c.errs, fmt.Sprintf("in-flight %d exceeds granted %d", got, granted))
	}
	if b := c.sub.Buffered(); b > wire.MaxCreditWindow {
		c.errs = append(c.errs, fmt.Sprintf("buffered %d exceeds the window", b))
	}
	return ok
}

func TestStreamCreditSoak(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	reg := obs.NewRegistry()
	m.registerMetrics(reg)

	sess, err := m.Open(SessionConfig{W: 32, H: 32, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetRegionLabels(region.List{region.FullFrame(32, 32)}); err != nil {
		t.Fatal(err)
	}

	subscribe := func(credit, batch int) *Subscription {
		sub, _, err := sess.Subscribe(credit, batch)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	trickle := &soakConsumer{sub: subscribe(1, 1)}
	stalled := &soakConsumer{sub: subscribe(64, 4)}
	greedy := &soakConsumer{sub: subscribe(wire.MaxCreditWindow, 8)}

	var wg sync.WaitGroup
	stalledResumed := make(chan struct{}) // stalled has drained its window and re-granted
	producerDone := make(chan struct{})

	// Producer: 500 frames while the stalled subscriber sleeps, then —
	// once it has resumed — 20 more it must not miss.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(producerDone)
		fr := frame.New(32, 32, frame.Gray8)
		for i := 0; i < soakFrames; i++ {
			if i == 500 {
				<-stalledResumed
			}
			for p := range fr.Pix {
				fr.Pix[p] = byte(i + p)
			}
			if _, err := sess.Capture(fr); err != nil {
				t.Errorf("capture %d: %v", i, err)
				return
			}
		}
	}()

	// Trickle: one credit at a time — drain a frame, grant one more.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for trickle.drainBatch() {
			trickle.sub.Grant(1)
		}
	}()

	// Greedy: drain as fast as possible on an ample window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for greedy.drainBatch() {
		}
	}()

	// Stalled: sleep 2s while the producer rushes ahead, then verify the
	// window survived intact, re-grant, and keep up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Second)
		for len(stalled.delivered) < 64 {
			if !stalled.drainBatch() {
				stalled.errs = append(stalled.errs, "subscription closed before the stalled window drained")
				return
			}
		}
		// The first 64 frames are exactly seqs 0..63: nothing inside the
		// credit window was lost while the subscriber slept.
		for i, seq := range stalled.delivered[:64] {
			if seq != uint64(i) {
				stalled.errs = append(stalled.errs, fmt.Sprintf("window slot %d holds seq %d", i, seq))
			}
		}
		stalled.sub.Grant(wire.MaxCreditWindow)
		close(stalledResumed)
		for stalled.drainBatch() {
		}
	}()

	// End the streams once the producer is done: unsubscribe closes each
	// channel; consumers drain what is buffered and observe end-of-stream.
	<-producerDone
	trickle.sub.Unsubscribe()
	greedy.sub.Unsubscribe()
	stalled.sub.Unsubscribe()
	wg.Wait()

	for name, c := range map[string]*soakConsumer{"trickle": trickle, "stalled": stalled, "greedy": greedy} {
		for _, e := range c.errs {
			t.Errorf("%s: %s", name, e)
		}
		// Conservation: every published frame was delivered or counted as
		// dropped — none vanished.
		if got := uint64(len(c.delivered)) + c.sub.Dropped(); got != soakFrames {
			t.Errorf("%s: delivered %d + dropped %d = %d, want %d published frames",
				name, len(c.delivered), c.sub.Dropped(), got, soakFrames)
		}
	}
	// Greedy never ran out of window: the full sequence, in order.
	if len(greedy.delivered) != soakFrames || greedy.sub.Dropped() != 0 {
		t.Errorf("greedy delivered %d with %d dropped, want all %d", len(greedy.delivered), greedy.sub.Dropped(), soakFrames)
	}
	// Stalled missed nothing after resuming: frames 500..519 all arrived.
	if n := len(stalled.delivered); n < 84 || stalled.delivered[n-1] != soakFrames-1 {
		t.Errorf("stalled delivered %d frames ending at %v, want 84 ending at %d",
			n, stalled.delivered[max(0, n-1):], soakFrames-1)
	}

	// The inflight gauge drained to zero and reports through the registry.
	if got := m.StreamInflight(); got != 0 {
		t.Errorf("StreamInflight = %d after full drain", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// published counts one offer per frame per subscriber: 520 × 3.
	for _, series := range []string{"rpxd_stream_inflight 0", "rpxd_stream_frames_published_total 1560"} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("registry exposition missing %q", series)
		}
	}
}

// TestStreamStalledSubscriberAllocs pins the bounded-memory claim: once a
// subscriber's window is exhausted, each further published frame is dropped
// with zero allocations — a stalled subscriber cannot grow server memory.
func TestStreamStalledSubscriberAllocs(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := sess.Subscribe(0, 1) // zero credit: every offer drops
	if err != nil {
		t.Fatal(err)
	}
	ef := &core.EncodedFrame{W: 16, H: 16, BytesPerPixel: 1}
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sub.offer(pushItem{seq: seq, ef: ef})
		seq++
	})
	if allocs != 0 {
		t.Fatalf("dropping a frame on an exhausted window costs %.1f allocs/frame, want 0", allocs)
	}
	if sub.Dropped() == 0 {
		t.Fatal("offers were not dropped; the measurement measured nothing")
	}
	if sub.Buffered() != 0 {
		t.Fatalf("zero-credit subscription buffered %d frames", sub.Buffered())
	}
	if ef.Pinned() {
		t.Fatal("a dropped frame was pinned")
	}
}

// TestAllocsSubscribeUnsubscribe pins a subscription's memory to the
// window it uses: attaching at credit 1 and detaching again allocates well
// under 4 KiB. A buffer sized for the largest window up front, 4,096
// queued frames, cost about 197 KB per SUBSCRIBE.
func TestAllocsSubscribeUnsubscribe(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		sub, _, err := sess.Subscribe(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sub.Unsubscribe()
	}
	cycle() // grow the session's and the manager's subscriber lists once
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 4<<10 {
		t.Fatalf("Subscribe(1, 1) plus Unsubscribe allocates %d bytes, want under 4 KiB", per)
	}
}
