package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
)

// Health states carried in the /healthz body.
const (
	// HealthOK means the process is serving and accepting sessions.
	HealthOK = "ok"
	// HealthDraining means graceful shutdown has begun: existing sessions
	// are being flushed and no new ones should be routed here.
	HealthDraining = "draining"
)

// HealthStatus is the machine-readable /healthz body. The HTTP status code
// (200 serving, 503 draining) keeps dumb probes and load balancers working;
// the JSON body is what lets the rpxgw backend watcher distinguish a
// *draining* backend (cordon it and migrate its sessions in an orderly way)
// from a *dead* one (evict it and recover reactively) — a bare 503 cannot
// tell those apart from, say, a misconfigured proxy in between.
type HealthStatus struct {
	// State is HealthOK or HealthDraining.
	State string `json:"state"`
}

// Health serves /healthz for rpxd, rpxgw and rpxpolicy: 200 with
// {"state":"ok"} while serving, flipping to 503 with {"state":"draining"}
// the moment graceful drain begins. The zero value is serving. Each
// daemon's own counts are on its /metrics.
type Health struct {
	draining atomic.Bool
}

// SetDraining flips the endpoint to 503/draining. It is one-way: a
// draining process never goes back to serving.
func (h *Health) SetDraining() { h.draining.Store(true) }

// Draining reports whether SetDraining has been called.
func (h *Health) Draining() bool { return h.draining.Load() }

// ServeHTTP implements the /healthz handler.
func (h *Health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	st := HealthStatus{State: HealthOK}
	code := http.StatusOK
	if h.Draining() {
		st.State = HealthDraining
		code = http.StatusServiceUnavailable
	}
	b, err := json.Marshal(st)
	if err != nil { // unreachable for this struct; fail loudly anyway
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// ParseHealth decodes a /healthz body into its machine-readable status.
func ParseHealth(b []byte) (HealthStatus, error) {
	var st HealthStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return HealthStatus{}, fmt.Errorf("server: parse healthz body: %w", err)
	}
	switch st.State {
	case HealthOK, HealthDraining:
	default:
		return HealthStatus{}, fmt.Errorf("server: healthz state %q unknown", st.State)
	}
	return st, nil
}
