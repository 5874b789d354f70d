// Command rpxd serves rhythmic-pixel capture/decode sessions over TCP.
//
// Each client connection negotiates one session (geometry and pixel
// format) via the rpxd wire protocol and then streams frames in and
// reconstructed pixels out. Every session runs its own encoder/decoder
// pipeline behind its own lock, so N clients capture and decode
// concurrently with independent rhythms.
//
// Usage:
//
//	rpxd -addr :7621 -max-sessions 64 -read-timeout 2m
//
// A client that sends nothing for -read-timeout loses its connection and
// its session slot, so abandoned clients cannot pin -max-sessions; every
// message re-arms the deadline, so a subscriber granting credit stays.
//
// A connection may also SUBSCRIBE to another session's frame stream: it
// switches into push mode and receives FRAME_PUSH batches under a credit
// window granted by the subscriber, so a stalled consumer drops frames
// (counted) instead of buffering unboundedly or stalling the producer.
// The rpxd_stream_* metric series on /metrics tracks open subscriptions,
// pushed/dropped frames, and in-flight buffered frames.
//
// With -admin the daemon also serves an observability endpoint on a second
// address: /metrics (Prometheus text), /healthz (200 while serving, 503
// once drain begins), /debug/vars (metrics as JSON), /debug/trace (recent
// frame-path spans), and /debug/pprof/*. The admin endpoint stays up
// through the drain so the last scrape sees final counter values.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, requests
// in progress finish, and the final statistics snapshot is written to
// stderr as JSON.
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

	"repro/internal/obs"
	"repro/internal/obs/admin"
	"repro/internal/server"
)

// testDrainHold, when non-nil (tests only), is waited on after /healthz
// flips to draining and before the connections drain, so tests can observe
// the 503 window deterministically.
var testDrainHold <-chan struct{}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr         = flag.String("addr", ":7621", "listen address")
		adminAddr    = flag.String("admin", "", "admin listen address for /metrics, /healthz, /debug/vars, /debug/trace, /debug/pprof (empty = disabled)")
		traceSpans   = flag.Int("trace-spans", obs.DefaultTraceSpans, "frame-path tracer ring capacity in spans")
		maxSessions  = flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrent sessions")
		readTimeout  = flag.Duration("read-timeout", server.DefaultReadTimeout, "per-read connection deadline")
		writeTimeout = flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-write connection deadline")
		maxPayload   = flag.Int("max-payload", 0, "per-message payload cap in bytes (0 = 32 MiB)")
		drainTime    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var adminLn net.Listener
	if *adminAddr != "" {
		var err error
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpxd: admin listen:", err)
			return 1
		}
	}

	if err := run(ctx, *addr, adminLn, *traceSpans, server.Config{
		MaxSessions: *maxSessions,
	}, server.TCPConfig{
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		MaxPayload:   *maxPayload,
	}, *drainTime, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpxd:", err)
		return 1
	}
	return 0
}

// run serves until ctx is cancelled, then drains and flushes stats to logw.
// adminLn, when non-nil, is taken over by the admin HTTP endpoint.
func run(ctx context.Context, addr string, adminLn net.Listener, traceSpans int, mcfg server.Config, tcfg server.TCPConfig, drainTime time.Duration, logw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if adminLn != nil {
			adminLn.Close()
		}
		return err
	}
	return serveAndDrain(ctx, ln, adminLn, traceSpans, mcfg, tcfg, drainTime, logw)
}

// serveAndDrain runs the server on an existing listener until ctx is
// cancelled, then performs the graceful shutdown sequence: flip /healthz to
// draining, close the listener, drain the connections and close their
// sessions, flush the final stats snapshot, and only then stop the admin
// endpoint.
func serveAndDrain(ctx context.Context, ln, adminLn net.Listener, traceSpans int, mcfg server.Config, tcfg server.TCPConfig, drainTime time.Duration, logw io.Writer) error {
	var (
		hstate   *server.Health
		adminSrv *http.Server
		reg      *obs.Registry
		tracer   *obs.Tracer
	)
	if adminLn != nil {
		if traceSpans <= 0 {
			traceSpans = obs.DefaultTraceSpans
		}
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(traceSpans)
		mcfg.Metrics = reg
		mcfg.Trace = tracer
	}
	mgr := server.NewManager(mcfg)
	if adminLn != nil {
		hstate = server.NewHealth(mgr.SessionsOpen)
		adminSrv = &http.Server{Handler: admin.NewMux(reg, hstate, tracer)}
		go adminSrv.Serve(adminLn)
		fmt.Fprintf(logw, "rpxd: admin listening on %s\n", adminLn.Addr())
	}

	srv := server.NewTCPServer(mgr, tcfg)
	fmt.Fprintf(logw, "rpxd: listening on %s (max sessions %d)\n", ln.Addr(), mcfg.MaxSessions)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stopAdmin := func() {
		if adminSrv != nil {
			closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			adminSrv.Shutdown(closeCtx)
			cancel()
		}
	}

	select {
	case err := <-serveErr:
		srv.Shutdown(context.Background())
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

	fmt.Fprintln(logw, "rpxd: shutting down, draining sessions")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTime)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	<-serveErr // Serve returns nil once the listener closes under drain

	snap := srv.Manager().Snapshot()
	if b, err := json.MarshalIndent(snap, "", "  "); err == nil {
		fmt.Fprintf(logw, "rpxd: final stats\n%s\n", b)
	}
	stopAdmin()
	if shutdownErr != nil {
		return fmt.Errorf("drain incomplete: %w", shutdownErr)
	}
	return nil
}
