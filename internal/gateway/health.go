package gateway

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// State is a backend's health as the watcher sees it.
type State int

const (
	// StateUnknown is the pre-first-probe state: the backend is routed to
	// optimistically (a dial failure just advances to the next candidate).
	StateUnknown State = iota
	// StateHealthy backends accept new and migrated sessions.
	StateHealthy
	// StateDraining backends answered 503 with a "draining" body: cordoned —
	// no new sessions, and existing ones are migrated off in an orderly way
	// before the backend finishes shutting down.
	StateDraining
	// StateDead backends failed Strikes consecutive probes: they take no
	// sessions, and theirs recover onto survivors.
	StateDead
)

// routable reports whether a backend in this state takes new and migrated
// sessions.
func (s State) routable() bool { return s == StateHealthy || s == StateUnknown }

// String returns the state's metrics/log name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Status is one backend's latest probe result.
type Status struct {
	State State
	// Err is the most recent probe error (nil while the backend answers).
	Err error
}

// WatcherConfig tunes the backend health watcher.
type WatcherConfig struct {
	// Interval is the probe period (default 2s).
	Interval time.Duration
	// Timeout bounds one probe (default 1s, capped at Interval).
	Timeout time.Duration
	// Strikes is how many consecutive probe failures mark a backend dead
	// (default 2 — one failure can be a blip; a draining answer is
	// authoritative immediately).
	Strikes int
	// OnChange, when non-nil, fires on every state transition, in the
	// order rounds ran. It runs outside the status lock but inside the
	// round, so it must not call Probe.
	OnChange func(addr string, from, to State)
}

// Watcher polls every backend's /healthz (falling back to a TCP dial probe
// of the wire address when no admin endpoint is configured) and classifies
// each as healthy, draining, or dead. A body that is not JSON health is a
// failed probe.
type Watcher struct {
	backends []Backend
	cfg      WatcherConfig
	client   *http.Client

	// round is held for a whole probe round, so rounds apply their results
	// (and fire OnChange) one after another: a slow answer from an earlier
	// round cannot overwrite a later round's.
	round  sync.Mutex
	mu     sync.Mutex
	status map[string]*probeState

	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool // guarded by mu
}

type probeState struct {
	Status
	strikes int
}

// NewWatcher returns a watcher over the given backends; Start launches it.
func NewWatcher(backends []Backend, cfg WatcherConfig) *Watcher {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Timeout > cfg.Interval {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Strikes <= 0 {
		cfg.Strikes = 2
	}
	w := &Watcher{
		backends: append([]Backend(nil), backends...),
		cfg:      cfg,
		client:   &http.Client{Timeout: cfg.Timeout},
		status:   make(map[string]*probeState, len(backends)),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range backends {
		w.status[b.Addr] = &probeState{}
	}
	return w
}

// Start launches the probe loop (idempotent).
func (w *Watcher) Start() {
	w.once.Do(func() {
		w.mu.Lock()
		w.started = true
		w.mu.Unlock()
		go func() {
			defer close(w.done)
			t := time.NewTicker(w.cfg.Interval)
			defer t.Stop()
			for {
				w.Probe()
				select {
				case <-w.quit:
					return
				case <-t.C:
				}
			}
		}()
	})
}

// Stop ends the probe loop and waits for it to exit. Safe to call even if
// Start never ran.
func (w *Watcher) Stop() {
	select {
	case <-w.quit:
	default:
		close(w.quit)
	}
	w.mu.Lock()
	started := w.started
	w.mu.Unlock()
	if started {
		<-w.done
	}
}

// Status returns the latest probe result for addr (StateUnknown for an
// address the watcher does not track).
func (w *Watcher) Status(addr string) Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ps, ok := w.status[addr]; ok {
		return ps.Status
	}
	return Status{}
}

// Probe runs one synchronous probe round over all backends, firing
// OnChange for every transition. The run loop calls it on each tick; tests
// and operators can call it directly for a deterministic refresh. A round
// waits for any round already running to finish.
func (w *Watcher) Probe() {
	w.round.Lock()
	defer w.round.Unlock()
	type flip struct {
		addr     string
		from, to State
	}
	var (
		flips []flip
		fmu   sync.Mutex
		wg    sync.WaitGroup
	)
	for _, b := range w.backends {
		wg.Add(1)
		go func(b Backend) {
			defer wg.Done()
			st := w.probeOne(b)
			w.mu.Lock()
			ps := w.status[b.Addr]
			from := ps.State
			switch {
			case st.Err == nil:
				// An answer is authoritative: healthy or draining, strikes reset.
				ps.strikes = 0
				ps.Status = st
			default:
				ps.strikes++
				ps.Err = st.Err
				if ps.strikes >= w.cfg.Strikes {
					ps.State = StateDead
				}
			}
			to := ps.State
			w.mu.Unlock()
			if from != to {
				fmu.Lock()
				flips = append(flips, flip{b.Addr, from, to})
				fmu.Unlock()
			}
		}(b)
	}
	wg.Wait()
	if w.cfg.OnChange != nil {
		for _, f := range flips {
			w.cfg.OnChange(f.addr, f.from, f.to)
		}
	}
}

// probeOne performs a single backend probe and classifies the answer.
func (w *Watcher) probeOne(b Backend) Status {
	if b.Admin == "" {
		// No admin endpoint: a TCP dial of the wire address distinguishes
		// alive from dead, nothing more.
		conn, err := net.DialTimeout("tcp", b.Addr, w.cfg.Timeout)
		if err != nil {
			return Status{State: StateDead, Err: err}
		}
		conn.Close()
		return Status{State: StateHealthy}
	}
	resp, err := w.client.Get("http://" + b.Admin + "/healthz")
	if err != nil {
		return Status{State: StateDead, Err: err}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if rerr != nil {
		return Status{State: StateDead, Err: rerr}
	}
	// Every backend that speaks the one wire protocol version answers in
	// JSON health; any other body counts as a probe failure.
	switch resp.StatusCode {
	case http.StatusOK:
		if _, err := server.ParseHealth(body); err == nil {
			return Status{State: StateHealthy}
		}
		return Status{State: StateDead,
			Err: fmt.Errorf("gateway: %s healthz answered 200 with unrecognized body %q", b.Admin, body)}
	case http.StatusServiceUnavailable:
		// 503 with a draining body is the planned-shutdown signal; any
		// other 503 counts as a probe failure (it may be an intermediary).
		if hs, err := server.ParseHealth(body); err == nil && hs.State == server.HealthDraining {
			return Status{State: StateDraining}
		}
		return Status{State: StateDead,
			Err: fmt.Errorf("gateway: %s healthz answered 503 with unrecognized body %q", b.Admin, body)}
	default:
		return Status{State: StateDead,
			Err: fmt.Errorf("gateway: %s healthz answered %d", b.Admin, resp.StatusCode)}
	}
}
