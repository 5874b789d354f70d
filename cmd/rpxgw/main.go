// Command rpxgw is a session gateway in front of an rpxd fleet. Clients
// speak the ordinary rpxd wire protocol to the gateway; each session
// connection is pinned at HELLO time to the routable backend holding the
// fewest of the gateway's sessions (ties go in -backends order), and from
// then on requests and replies are relayed in lockstep without decoding
// frame payloads.
//
// A stream connection (SUBSCRIBE first) names a session by the id its
// client holds, which a migration does not change. The gateway routes it
// only to a session it proxies: it dials the backend that holds the
// session now, rewrites the target to the session's id there, and relays
// the stream over that backend connection of the stream's own. A target
// it does not proxy draws BAD_REQUEST from the gateway itself.
//
// A health watcher polls every backend's /healthz (or TCP-dials backends
// with no admin address): draining and dead backends take no new sessions,
// and their live sessions are migrated onto the survivors by the same rule,
// replaying the client's original HELLO and last SET_LABELS. The client
// session never breaks over a backend loss: idempotent requests caught
// mid-failure are retried on the replacement invisibly, and CAPTURE gets a
// typed UNAVAILABLE error, never a mismatched reply. Streams do not
// migrate: a producer's migration ends its streams with UNAVAILABLE, and a
// reader subscribes again by the same id.
//
// Usage:
//
//	rpxgw -addr :7631 -backends 10.0.0.1:7621@10.0.0.1:9621,10.0.0.2:7621
//
// Each -backends entry is "addr[@admin]"; the admin address enables
// healthz-based cordoning of draining backends, without it the watcher
// falls back to TCP dial probes.
//
// With -admin the gateway serves its own observability endpoint: /metrics
// (rpxgw_* series, Prometheus text), /healthz (200 while serving, 503 once
// drain begins, with the same JSON body rpxd serves), /debug/vars, and
// /debug/pprof/*.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /healthz flips to draining,
// the listener closes, in-flight round trips finish within -drain-timeout,
// and the final routing snapshot is written to stderr as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/admin"
	"repro/internal/server"
)

// testDrainHold, when non-nil (tests only), is waited on after /healthz
// flips to draining and before sessions drain, so tests can observe the 503
// window deterministically.
var testDrainHold <-chan struct{}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr           = flag.String("addr", ":7631", "listen address")
		backendsFlag   = flag.String("backends", "", "comma-separated backend list, each \"addr[@admin]\" (required)")
		adminAddr      = flag.String("admin", "", "admin listen address for /metrics, /healthz, /debug/vars, /debug/pprof (empty = disabled)")
		maxPayload     = flag.Int("max-payload", 0, "per-message payload cap in bytes (0 = 32 MiB)")
		dialTimeout    = flag.Duration("dial-timeout", gateway.DefaultDialTimeout, "backend dial deadline")
		readTimeout    = flag.Duration("read-timeout", 2*time.Minute, "per-read client connection deadline")
		writeTimeout   = flag.Duration("write-timeout", 30*time.Second, "per-write client connection deadline")
		backendTimeout = flag.Duration("backend-timeout", gateway.DefaultBackendTimeout, "backend round-trip deadline")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "backend health probe period")
		healthTimeout  = flag.Duration("health-timeout", time.Second, "single health probe deadline")
		healthStrikes  = flag.Int("health-strikes", 2, "consecutive probe failures before a backend is declared dead")
		drainTime      = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
	)
	flag.Parse()

	backends, err := gateway.ParseBackends(*backendsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpxgw:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var adminLn net.Listener
	if *adminAddr != "" {
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpxgw: admin listen:", err)
			return 1
		}
	}

	if err := run(ctx, *addr, adminLn, gateway.Config{
		Backends:       backends,
		MaxPayload:     *maxPayload,
		DialTimeout:    *dialTimeout,
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		BackendTimeout: *backendTimeout,
		Health: gateway.WatcherConfig{
			Interval: *healthInterval,
			Timeout:  *healthTimeout,
			Strikes:  *healthStrikes,
		},
	}, *drainTime, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpxgw:", err)
		return 1
	}
	return 0
}

// run serves until ctx is cancelled, then drains and flushes the routing
// snapshot to logw. adminLn, when non-nil, is taken over by the admin HTTP
// endpoint.
func run(ctx context.Context, addr string, adminLn net.Listener, gcfg gateway.Config, drainTime time.Duration, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if adminLn != nil {
			adminLn.Close()
		}
		return err
	}
	return serveAndDrain(ctx, ln, adminLn, gcfg, drainTime, logw)
}

// serveAndDrain runs the gateway on an existing listener until ctx is
// cancelled, then performs the graceful shutdown sequence: flip /healthz to
// draining, close the listener, drain sessions, flush the final snapshot,
// and only then stop the admin endpoint.
func serveAndDrain(ctx context.Context, ln, adminLn net.Listener, gcfg gateway.Config, drainTime time.Duration, logw io.Writer) error {
	var reg *obs.Registry
	if adminLn != nil {
		reg = obs.NewRegistry()
		gcfg.Metrics = reg
	}
	g, err := gateway.New(gcfg)
	if err != nil {
		if adminLn != nil {
			adminLn.Close()
		}
		ln.Close()
		return err
	}

	var (
		hstate   *server.Health
		adminSrv *http.Server
	)
	if adminLn != nil {
		hstate = new(server.Health)
		adminSrv = &http.Server{Handler: admin.NewMux(reg, hstate, nil)}
		go adminSrv.Serve(adminLn)
		fmt.Fprintf(logw, "rpxgw: admin listening on %s\n", adminLn.Addr())
	}

	fmt.Fprintf(logw, "rpxgw: listening on %s (%d backends)\n", ln.Addr(), len(gcfg.Backends))

	serveErr := make(chan error, 1)
	go func() { serveErr <- g.Serve(ln) }()

	stopAdmin := func() {
		if adminSrv != nil {
			closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			adminSrv.Shutdown(closeCtx)
			cancel()
		}
	}

	select {
	case err := <-serveErr:
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTime)
		g.Shutdown(shutCtx)
		cancel()
		stopAdmin()
		return err
	case <-ctx.Done():
	}

	if hstate != nil {
		hstate.SetDraining()
	}
	if testDrainHold != nil {
		<-testDrainHold
	}

	fmt.Fprintln(logw, "rpxgw: shutting down, draining sessions")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTime)
	defer cancel()
	shutdownErr := g.Shutdown(drainCtx)
	<-serveErr // Serve returns nil once the listener closes under drain

	if b, err := json.MarshalIndent(g.Snapshot(), "", "  "); err == nil {
		fmt.Fprintf(logw, "rpxgw: final stats\n%s\n", b)
	}
	stopAdmin()
	if shutdownErr != nil {
		return fmt.Errorf("drain incomplete: %w", shutdownErr)
	}
	return nil
}
