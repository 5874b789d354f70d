package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// scriptedHealth is a fake backend admin endpoint whose /healthz answer the
// test flips at will: a JSON health body, a body that is not JSON health,
// or a hard failure (connection refused is simulated by 500). It also
// serves /metrics and counts the requests for it.
type scriptedHealth struct {
	mu          sync.Mutex
	code        int
	body        string
	sessions    int
	metricsHits int
}

func (s *scriptedHealth) set(code int, body string) {
	s.mu.Lock()
	s.code, s.body = code, body
	s.mu.Unlock()
}

func (s *scriptedHealth) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(s.code)
		fmt.Fprint(w, s.body)
	case "/metrics":
		s.metricsHits++
		fmt.Fprintf(w, "# HELP rpxd_sessions_open Currently open sessions.\n# TYPE rpxd_sessions_open gauge\nrpxd_sessions_open %d\n", s.sessions)
	default:
		http.NotFound(w, r)
	}
}

// TestWatcherTransitions walks one backend through the full state machine —
// unknown → healthy → draining → dead → healthy — with deterministic Probe
// calls, checking OnChange fires exactly on the transitions and the JSON
// session count rides along.
func TestWatcherTransitions(t *testing.T) {
	sh := &scriptedHealth{code: 200, body: `{"state":"ok","sessions":3}`}
	ts := httptest.NewServer(sh)
	defer ts.Close()
	admin := ts.Listener.Addr().String()

	var mu sync.Mutex
	var flips []string
	b := Backend{Addr: "198.51.100.1:7621", Admin: admin}
	w := NewWatcher([]Backend{b}, WatcherConfig{
		Strikes: 2,
		OnChange: func(addr string, from, to State) {
			mu.Lock()
			flips = append(flips, fmt.Sprintf("%s:%s->%s", addr, from, to))
			mu.Unlock()
		},
	})

	if st := w.Status(b.Addr); st.State != StateUnknown || st.Sessions != -1 {
		t.Fatalf("pre-probe status = %+v, want unknown/-1", st)
	}

	w.Probe()
	if st := w.Status(b.Addr); st.State != StateHealthy || st.Sessions != 3 {
		t.Fatalf("after healthy probe: %+v, want healthy/3", st)
	}

	sh.set(503, `{"state":"draining","sessions":2}`)
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateDraining || st.Sessions != 2 {
		t.Fatalf("after draining probe: %+v, want draining/2", st)
	}

	// Hard failures: the first strike keeps the last authoritative state,
	// the second kills the backend.
	sh.set(500, "boom")
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateDraining {
		t.Fatalf("after one strike: %v, want draining still", st.State)
	}
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateDead || st.Err == nil {
		t.Fatalf("after two strikes: %+v, want dead with error", st)
	}

	sh.set(200, `{"state":"ok","sessions":0}`)
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateHealthy || st.Sessions != 0 {
		t.Fatalf("after recovery: %+v, want healthy/0", st)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		b.Addr + ":unknown->healthy",
		b.Addr + ":healthy->draining",
		b.Addr + ":draining->dead",
		b.Addr + ":dead->healthy",
	}
	if len(flips) != len(want) {
		t.Fatalf("flips = %v, want %v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("flip %d = %q, want %q", i, flips[i], want[i])
		}
	}
}

// TestWatcherAppliesRoundsInOrder: a probe round that answers late cannot
// overwrite a later round's result. The startup round's "ok" is held back
// while the test's own round reads "draining"; rounds run one at a time, so
// the held answer is applied first and "draining" stands.
func TestWatcherAppliesRoundsInOrder(t *testing.T) {
	firstArrived := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		first := requests == 1
		mu.Unlock()
		if !first {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"state":"draining","sessions":0}`)
			return
		}
		close(firstArrived)
		// Held until the later round has applied, when rounds overlap; when
		// they cannot, the later round waits for this one, so give up after
		// a while.
		select {
		case <-release:
		case <-time.After(200 * time.Millisecond):
		}
		fmt.Fprint(w, `{"state":"ok","sessions":0}`)
	}))
	defer ts.Close()

	b := Backend{Addr: "198.51.100.4:7621", Admin: ts.Listener.Addr().String()}
	w := NewWatcher([]Backend{b}, WatcherConfig{Interval: time.Hour, Timeout: 5 * time.Second})
	w.Start()
	<-firstArrived
	w.Probe()
	close(release)
	w.Stop() // returns once the startup round has applied its result
	if st := w.Status(b.Addr); st.State != StateDraining {
		t.Fatalf("state after a late healthy answer = %v, want draining", st.State)
	}
}

// TestWatcherPlainTextFallback pins that there is no plain-text fallback:
// every backend that speaks the one wire protocol version answers /healthz
// in JSON, so a 200 or 503 whose body is not JSON health is a failed probe,
// and the watcher never asks the backend's /metrics for a weight.
func TestWatcherPlainTextFallback(t *testing.T) {
	sh := &scriptedHealth{sessions: 7}
	ts := httptest.NewServer(sh)
	defer ts.Close()
	b := Backend{Addr: "198.51.100.2:7621", Admin: ts.Listener.Addr().String()}
	w := NewWatcher([]Backend{b}, WatcherConfig{Strikes: 1})

	for _, bare := range []struct {
		code int
		body string
	}{{200, "ok\n"}, {503, "draining\n"}} {
		sh.set(200, `{"state":"ok","sessions":3}`)
		w.Probe()
		if st := w.Status(b.Addr); st.State != StateHealthy {
			t.Fatalf("JSON healthy: %v, want healthy", st.State)
		}
		sh.set(bare.code, bare.body)
		w.Probe()
		if st := w.Status(b.Addr); st.State != StateDead || st.Err == nil || st.Sessions != -1 {
			t.Fatalf("%d %q: %+v, want a failed probe (dead after 1 strike, error, sessions -1)", bare.code, bare.body, st)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.metricsHits != 0 {
		t.Fatalf("watcher requested /metrics %d times, want never", sh.metricsHits)
	}
}

// TestWatcherDialFallback covers admin-less backends: a TCP dial of the
// wire address is the whole probe.
func TestWatcherDialFallback(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler()) // any listener will do
	addr := srv.Listener.Addr().String()
	b := Backend{Addr: addr}
	w := NewWatcher([]Backend{b}, WatcherConfig{Strikes: 1, Timeout: 200 * time.Millisecond})
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateHealthy {
		t.Fatalf("dialable backend: %v, want healthy", st.State)
	}
	if st := w.Status(b.Addr); st.Sessions != -1 {
		t.Fatalf("dial probe reported sessions %d, want -1 (unknown)", st.Sessions)
	}
	srv.Close()
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateDead {
		t.Fatalf("closed backend: %v, want dead after 1 strike", st.State)
	}
}

// TestWatcherStopWithoutStart pins the lifecycle edge cases: Stop before
// Start returns immediately; Start then Stop terminates the loop.
func TestWatcherStopWithoutStart(t *testing.T) {
	w := NewWatcher([]Backend{{Addr: "203.0.113.9:1"}}, WatcherConfig{Timeout: 50 * time.Millisecond})
	done := make(chan struct{})
	go func() { w.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}

	w2 := NewWatcher([]Backend{}, WatcherConfig{Interval: 10 * time.Millisecond})
	w2.Start()
	w2.Stop()
}

// TestWatcherUsesSharedHealthHandler closes the loop with the real
// server.Health handler rpxd serves: the watcher must classify its actual
// 200 and 503 bodies, not a hand-written imitation.
func TestWatcherUsesSharedHealthHandler(t *testing.T) {
	n := 5
	h := server.NewHealth(func() int { return n })
	ts := httptest.NewServer(h)
	defer ts.Close()
	b := Backend{Addr: "198.51.100.3:7621", Admin: ts.Listener.Addr().String()}
	w := NewWatcher([]Backend{b}, WatcherConfig{})

	w.Probe()
	if st := w.Status(b.Addr); st.State != StateHealthy || st.Sessions != 5 {
		t.Fatalf("against real handler: %+v, want healthy/5", st)
	}
	h.SetDraining()
	n = 2
	w.Probe()
	if st := w.Status(b.Addr); st.State != StateDraining || st.Sessions != 2 {
		t.Fatalf("against real draining handler: %+v, want draining/2", st)
	}
}
