// Package admin builds the admin HTTP endpoint that rpxd, rpxgw and
// rpxpolicy all serve, so one scrape config covers the fleet. It is a
// package of its own, not part of obs, because it links net/http/pprof,
// whose init registers handlers on http.DefaultServeMux; importing obs (as
// the rpx library does) must not do that.
package admin

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// NewMux assembles the admin endpoint: /metrics (Prometheus text),
// /healthz (health; rpxgw's backend watcher parses rpxd's JSON body),
// /debug/vars (metrics as JSON), /debug/pprof/*, and, when tracer is
// non-nil, /debug/trace (recent frame-path spans).
func NewMux(reg *obs.Registry, health http.Handler, tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/healthz", health)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w)
	})
	if tracer != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			tracer.WriteJSON(w)
		})
	}
	// pprof is routed explicitly onto this mux (the blank import of
	// net/http/pprof only registers on http.DefaultServeMux, which the
	// admin server deliberately does not use).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
