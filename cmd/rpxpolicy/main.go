// Command rpxpolicy runs the closed-loop region-policy worker: it
// subscribes to a producing session's frame stream on an rpxd (or through
// an rpxgw), decodes the pushed frames, runs a registry-selected policy
// over the observed scene once per cycle, and pushes the resulting
// region-label workload back to the producer with in-stream label feedback
// (STREAM_LABELS). The producer's capture rhythm is then steered by what the
// policy saw — the deployment shape the paper's §4.3.1 policy/user split
// implies, with the policy in its own process.
//
// Usage:
//
//	rpxpolicy -addr localhost:7621 -target 3 -policy motion-skip -w 640 -h 480 -cl 4
//
// -list-policies prints the registered policies with their descriptions and
// exits; -policy accepts any of those names. With -admin the worker serves
// /metrics (the rpxpolicy_* series), /healthz, /debug/vars, and
// /debug/pprof on a second address.
//
// SIGINT/SIGTERM drain gracefully: the subscription closes cleanly and the
// final loop statistics are written to stderr as JSON.
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
	"repro/internal/policy"
	"repro/internal/policyloop"
	"repro/internal/server"
	"repro/rpx"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr       = flag.String("addr", "localhost:7621", "rpxd or rpxgw address")
		target     = flag.Uint64("target", 0, "producing session id to steer")
		policyName = flag.String("policy", "motion-skip", "region policy (see -list-policies)")
		listPol    = flag.Bool("list-policies", false, "print the registered policies and exit")
		cl         = flag.Int("cl", policyloop.DefaultCycleLength, "cycle length: frames between policy observations")
		width      = flag.Int("w", 0, "target frame width")
		height     = flag.Int("h", 0, "target frame height")
		format     = flag.String("format", "gray8", "target pixel format: gray8, rgb24, yuv444")
		tile       = flag.Int("tile", 0, "motion-grid tile pitch in pixels (0 = default)")
		feats      = flag.Bool("features", false, "run the feature/track frontend (gray8 targets)")
		timeout    = flag.Duration("timeout", 0, "stream read timeout (0 = client default)")
		maxRetries = flag.Int("max-retries", policyloop.DefaultMaxRetries, "consecutive failed re-attach attempts before giving up")
		backoff    = flag.Duration("backoff", policyloop.DefaultBackoff, "base re-attach backoff")
		adminAddr  = flag.String("admin", "", "admin listen address for /metrics, /healthz, /debug/vars, /debug/pprof (empty = disabled)")
	)
	flag.Parse()

	if *listPol {
		listPolicies(os.Stdout)
		return 0
	}
	f, err := parseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpxpolicy:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var adminLn net.Listener
	if *adminAddr != "" {
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpxpolicy: admin listen:", err)
			return 1
		}
	}

	if err := run(ctx, adminLn, policyloop.Config{
		Addr:        *addr,
		Target:      *target,
		Policy:      *policyName,
		CycleLength: *cl,
		W:           *width,
		H:           *height,
		Format:      f,
		Tile:        *tile,
		Features:    *feats,
		Timeout:     *timeout,
		MaxRetries:  *maxRetries,
		Backoff:     *backoff,
	}, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpxpolicy:", err)
		return 1
	}
	return 0
}

// run drives one loop until ctx cancels, serving the admin endpoint (when
// adminLn is non-nil) for its whole lifetime and flushing the final stats
// snapshot to logw.
func run(ctx context.Context, adminLn net.Listener, cfg policyloop.Config, logw io.Writer) error {
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(logw, format+"\n", args...)
	}
	loop, err := policyloop.New(cfg)
	if err != nil {
		return err
	}

	var adminSrv *http.Server
	var hstate *server.Health
	if adminLn != nil {
		hstate = new(server.Health)
		adminSrv = &http.Server{Handler: admin.NewMux(reg, hstate, nil)}
		go adminSrv.Serve(adminLn)
		fmt.Fprintf(logw, "rpxpolicy: admin listening on %s\n", adminLn.Addr())
	}

	fmt.Fprintf(logw, "rpxpolicy: steering session %d on %s (policy %s, CL %d)\n",
		cfg.Target, cfg.Addr, cfg.Policy, cfg.CycleLength)
	runErr := loop.Run(ctx)

	if hstate != nil {
		hstate.SetDraining()
	}
	snap := loop.Stats()
	if b, err := json.MarshalIndent(snap, "", "  "); err == nil {
		fmt.Fprintf(logw, "rpxpolicy: final stats\n%s\n", b)
	}
	if adminSrv != nil {
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		adminSrv.Shutdown(closeCtx)
		cancel()
	}
	return runErr
}

// listPolicies prints the registry, one "name\tdescription" line each.
func listPolicies(w io.Writer) {
	for _, name := range policy.Names() {
		desc, _ := policy.Describe(name)
		fmt.Fprintf(w, "%s\t%s\n", name, desc)
	}
}

// parseFormat maps the -format flag to a pixel format.
func parseFormat(s string) (rpx.Format, error) {
	switch s {
	case "gray8":
		return rpx.Gray8, nil
	case "rgb24":
		return rpx.RGB24, nil
	case "yuv444":
		return rpx.YUV444, nil
	}
	return 0, fmt.Errorf("unknown format %q (want gray8, rgb24, or yuv444)", s)
}
