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
		sub, err := sess.Subscribe(1, 1)
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
