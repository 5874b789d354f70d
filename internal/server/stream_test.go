package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/frame"
)

// TestSubscribeRacingClose: a Subscribe that races its target's Close
// either fails with ErrSessionClosed or attaches before Close seals the
// subscriptions, so the subscription ends with the session. Attaching
// after Close has sealed the others would leave a subscription whose
// writer waits in Next forever and that stays counted as open.
func TestSubscribeRacingClose(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	for round := 0; round < 200; round++ {
		sess, err := m.Open(SessionConfig{W: 8, H: 8, Format: frame.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			sess.Close()
			close(closed)
		}()
		sub, _, err := sess.Subscribe(1, 1)
		if err != nil {
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("round %d: Subscribe = %v, want nil or ErrSessionClosed", round, err)
			}
			<-closed
			continue
		}
		ended := make(chan struct{})
		go func() {
			for _, _, ok := sub.Next(); ok; _, _, ok = sub.Next() {
			}
			close(ended)
		}()
		select {
		case <-ended:
		case <-time.After(time.Second):
			t.Fatalf("round %d: a subscription that raced Close did not end within 1s", round)
		}
		<-closed
		if n := m.SubscriptionsOpen(); n != 0 {
			t.Fatalf("round %d: %d subscriptions still open after Close", round, n)
		}
	}
}

// TestSubscribeSeqMatchesFirstPush: the sequence number Subscribe returns
// — the SUBSCRIBE_ACK's NextSeq — is the one the subscription's first
// pushed frame carries, even while another goroutine captures without
// pause.
func TestSubscribeSeqMatchesFirstPush(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	sess, err := m.Open(SessionConfig{W: 16, H: 16, Format: frame.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		fr := testFrame(16, 16, frame.Gray8, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sess.Capture(fr); err != nil {
				t.Error(err)
				sess.Close() // ends the subscription the test waits on
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	for round := 0; round < 2000; round++ {
		sub, next, err := sess.Subscribe(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		items, _, ok := sub.Next()
		if !ok {
			t.Fatalf("round %d: subscription ended before its first frame", round)
		}
		got := items[0].seq
		release(items)
		sub.Unsubscribe()
		if got != next {
			t.Fatalf("round %d: first pushed frame has seq %d, Subscribe returned %d", round, got, next)
		}
	}
}
