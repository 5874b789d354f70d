package server

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/rpx"
)

// Streaming push subscriptions.
//
// A Subscription attaches to one session's encoded-frame stream and buffers
// the frames the session's captures publish until a transport writer
// drains them. Flow control is a credit ledger: the subscription holds at
// most as many undelivered frames as the client has granted credit for, so
// a stalled subscriber bounds server memory by construction and can never
// block the capture path or other sessions — frames produced with no
// credit available are dropped for that subscriber and counted, never
// queued unboundedly and never blocking the publishing capture.

// CloseReason says why a subscription ended; the transport writer picks its
// final message from it.
type CloseReason uint8

// Subscription close reasons.
const (
	// ReasonNone: still open.
	ReasonNone CloseReason = iota
	// ReasonUnsubscribed: the client asked; drain, then a final ACK.
	ReasonUnsubscribed
	// ReasonSessionClosed: the producing session closed.
	ReasonSessionClosed
	// ReasonConnClosed: the subscriber's own transport died.
	ReasonConnClosed
)

// pushItem is one published frame as a subscription queues it: the
// session's live encoded frame, pinned once for this subscription and
// shared read-only with every other subscriber, plus its sequence number
// and capture statistics. Whoever takes an item out of the queue owns that
// pin and must release it (release) after its last read of the frame.
type pushItem struct {
	seq   uint64
	stats rpx.CaptureStats
	ef    *core.EncodedFrame
}

// release drops each item's pin on its frame.
func release(items []pushItem) {
	for _, it := range items {
		it.ef.Unpin()
	}
}

// Subscription is one subscriber's view of a session's frame stream.
type Subscription struct {
	id    uint64
	sess  *Session
	batch int

	mu sync.Mutex
	// queued signals Next that a frame was queued or the subscription
	// closed.
	queued sync.Cond
	// queue holds accepted-but-undelivered frames, oldest first. offer only
	// queues a frame after consuming a credit and Grant clamps the window,
	// so len(queue)+credit <= wire.MaxCreditWindow always holds; its
	// storage grows with the window in use, not sized for the cap.
	queue   []pushItem
	credit  int
	granted uint64 // lifetime credits accepted (initial + grants, post-clamp)
	dropped uint64 // frames missed while out of credit
	reason  CloseReason

	// items holds the batch Next returns, reused call to call; only the
	// single consumer calling Next touches it.
	items []pushItem
}

// ID returns the server-assigned subscription id.
func (sub *Subscription) ID() uint64 { return sub.id }

// Batch returns the negotiated frames-per-FRAME_PUSH bound.
func (sub *Subscription) Batch() int { return sub.batch }

// Buffered returns the accepted-but-undelivered frame count (the in-flight
// gauge reads this; tests assert it never exceeds granted credit).
func (sub *Subscription) Buffered() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// Credit returns the currently available (unconsumed) credit.
func (sub *Subscription) Credit() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.credit
}

// Granted returns the lifetime credits this subscription accepted.
func (sub *Subscription) Granted() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.granted
}

// Dropped returns the cumulative frames missed while out of credit.
func (sub *Subscription) Dropped() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// offer hands one published frame to the subscription. It never blocks: a
// frame either consumes a credit, is pinned and enters the buffer, or is
// dropped and counted. Called by the producing session's capture, under
// its session lock, while the frame is still the session's newest.
func (sub *Subscription) offer(it pushItem) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.reason != ReasonNone {
		return
	}
	if sub.credit <= 0 {
		sub.dropped++
		sub.sess.mgr.streamDropped.Add(1)
		return
	}
	sub.credit--
	it.ef.Pin()
	sub.queue = append(sub.queue, it)
	sub.queued.Signal()
}

// Grant adds n credits, clamping the outstanding window (available credit
// plus undelivered buffered frames) at wire.MaxCreditWindow. Grants after
// close are ignored.
func (sub *Subscription) Grant(n int) {
	if n <= 0 {
		return
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.reason != ReasonNone {
		return
	}
	sub.credit += n
	if max := wire.MaxCreditWindow - len(sub.queue); sub.credit > max {
		n -= sub.credit - max
		sub.credit = max
	}
	if n > 0 {
		sub.granted += uint64(n)
	}
}

// close ends the subscription: offers stop, and Next observes
// end-of-stream once it has returned the already-accepted frames.
// Idempotent; the first reason wins.
func (sub *Subscription) close(reason CloseReason) {
	sub.mu.Lock()
	if sub.reason != ReasonNone {
		sub.mu.Unlock()
		return
	}
	sub.reason = reason
	sub.queued.Signal()
	sub.mu.Unlock()

	sub.sess.dropSubscription(sub)
	sub.sess.mgr.removeSubscription(sub)
}

// Reason returns why the subscription ended (ReasonNone while open).
func (sub *Subscription) Reason() CloseReason {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.reason
}

// Unsubscribe ends the subscription cleanly on the client's behalf: frames
// already accepted remain readable until the channel drains.
func (sub *Subscription) Unsubscribe() { sub.close(ReasonUnsubscribed) }

// Abort ends the subscription because the subscriber's transport died.
func (sub *Subscription) Abort() { sub.close(ReasonConnClosed) }

// discard aborts the subscription and releases every frame still buffered:
// the teardown path of a writer that will send nothing more.
func (sub *Subscription) discard() {
	sub.Abort()
	for items, _, ok := sub.Next(); ok; items, _, ok = sub.Next() {
		release(items)
	}
}

// Next blocks for the next accepted frame, then opportunistically drains up
// to batch-1 more without blocking — one call builds one FRAME_PUSH. The
// second return is the cumulative dropped count; ok=false means the
// subscription ended and the buffer is fully drained. The batch slice is
// valid until the next call: its storage is reused, so a steady stream
// drains without allocating. Each returned item carries a pin on its frame
// that the caller must release once it has read the frame for the last
// time; until then the frame's bytes stay intact, even after the producing
// session has captured past its history depth.
func (sub *Subscription) Next() (items []pushItem, dropped uint64, ok bool) {
	clear(sub.items) // release the previous batch's frames to the collector
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for len(sub.queue) == 0 && sub.reason == ReasonNone {
		sub.queued.Wait()
	}
	if len(sub.queue) == 0 {
		return nil, sub.dropped, false
	}
	// Take the batch and move the rest to the front: the queue is a
	// batch or less deep while the writer keeps up.
	k := min(len(sub.queue), sub.batch)
	sub.items = append(sub.items[:0], sub.queue[:k]...)
	n := copy(sub.queue, sub.queue[k:])
	clear(sub.queue[n:])
	sub.queue = sub.queue[:n]
	return sub.items, sub.dropped, true
}

// Subscribe attaches a push subscription to this session's frame stream.
// credit is the initial window, batch the frames-per-push bound (both
// validated by the wire layer; batch 0 means 1). It also returns the
// sequence number of the first frame the subscription will receive: the
// attach and that read share one hold of the session lock, so no capture
// can publish between them.
func (s *Session) Subscribe(credit, batch int) (*Subscription, uint64, error) {
	if batch <= 0 {
		batch = 1
	}
	if batch > wire.MaxBatch {
		batch = wire.MaxBatch
	}
	if credit < 0 {
		credit = 0
	}
	if credit > wire.MaxCreditWindow {
		credit = wire.MaxCreditWindow
	}
	sub := &Subscription{
		sess:    s,
		batch:   batch,
		credit:  credit,
		granted: uint64(credit),
	}
	sub.queued.L = &sub.mu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrSessionClosed
	}
	sub.id = s.mgr.addSubscription(sub)
	s.subs = append(s.subs, sub)
	return sub, uint64(s.sys.FrameIndex()), nil
}

// publish hands one captured frame to every attached subscription. Capture
// calls it under the session lock right after a successful capture, so the
// borrowed frame is exactly the one just captured and the subscriber list
// cannot change under it. Nothing is serialized or copied: each
// subscription that accepts the frame queues the live frame itself, pinned
// for that subscription (rpx.System's borrow contract), and its writer
// sends the frame's own bytes and then unpins. A frame the session's
// history evicts while still pinned is left to the GC, so a lagging
// subscriber reads intact bytes; in steady state every pin is released
// long before eviction and the frame is recycled.
func (s *Session) publish(cs rpx.CaptureStats) {
	if len(s.subs) == 0 {
		return
	}
	it := pushItem{seq: uint64(cs.FrameIndex), stats: cs, ef: s.sys.BorrowLastEncoded()}
	for _, sub := range s.subs {
		sub.offer(it)
	}
	s.mgr.streamPublished.Add(int64(len(s.subs)))
}

// dropSubscription detaches a closed subscription from the session.
func (s *Session) dropSubscription(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.subs, sub); i >= 0 {
		s.subs = slices.Delete(s.subs, i, i+1)
	}
}

// Lookup returns the live session with the given id — the SUBSCRIBE
// Target resolution path for cross-connection fan-out.
func (m *Manager) Lookup(id uint64) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// addSubscription registers a subscription and assigns its id.
func (m *Manager) addSubscription(sub *Subscription) uint64 {
	m.streamSubsOpened.Add(1)
	m.subMu.Lock()
	defer m.subMu.Unlock()
	m.nextSubID++
	id := m.nextSubID
	if m.subscriptions == nil {
		m.subscriptions = make(map[uint64]*Subscription)
	}
	m.subscriptions[id] = sub
	return id
}

// removeSubscription unregisters a closed subscription.
func (m *Manager) removeSubscription(sub *Subscription) {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	delete(m.subscriptions, sub.id)
}

// StreamInflight sums accepted-but-undelivered frames across all open
// subscriptions — the rpxd_stream_inflight gauge.
func (m *Manager) StreamInflight() int {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	total := 0
	for _, sub := range m.subscriptions {
		total += sub.Buffered()
	}
	return total
}

// SubscriptionsOpen returns the number of live subscriptions.
func (m *Manager) SubscriptionsOpen() int {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	return len(m.subscriptions)
}

// registerStreamMetrics publishes the streaming series into the registry;
// called from registerMetrics.
func (m *Manager) registerStreamMetrics(reg *obs.Registry) {
	reg.CounterFunc("rpxd_stream_subscriptions_opened_total", "Push subscriptions opened over the process lifetime.",
		func() uint64 { return uint64(m.streamSubsOpened.Load()) })
	reg.CounterFunc("rpxd_stream_frames_published_total", "Frames offered to subscriptions (one per frame per subscriber).",
		func() uint64 { return uint64(m.streamPublished.Load()) })
	reg.CounterFunc("rpxd_stream_frames_pushed_total", "Frames delivered to subscribers in FRAME_PUSH messages.",
		func() uint64 { return uint64(m.streamPushed.Load()) })
	reg.CounterFunc("rpxd_stream_frames_dropped_total", "Frames dropped because a subscription was out of credit.",
		func() uint64 { return uint64(m.streamDropped.Load()) })
	reg.CounterFunc("rpxd_stream_labels_total", "Label workloads applied through in-stream feedback (STREAM_LABELS).",
		func() uint64 { return uint64(m.streamLabels.Load()) })
	reg.GaugeFunc("rpxd_stream_subscriptions_open", "Currently open push subscriptions.",
		func() float64 { return float64(m.SubscriptionsOpen()) })
	reg.GaugeFunc("rpxd_stream_inflight", "Accepted-but-undelivered frames buffered across all subscriptions; bounded by granted credit.",
		func() float64 { return float64(m.StreamInflight()) })
}

// noteFramesPushed records frames actually written to a subscriber.
func (m *Manager) noteFramesPushed(n int) { m.streamPushed.Add(int64(n)) }
