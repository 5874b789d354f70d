package main

import (
	"context"
	"fmt"
	"strconv"

	"repro/rpx"
	"repro/rpx/client"
)

// workload is one benchmark configuration. Every workload is a closed
// loop with one producer: the next frame is captured only after the
// consumer holds the previous frame's reconstruction.
type workload struct {
	name string
	w, h int
	// gateway routes the producer and the consumer through an rpxgw in
	// front of the rpxd backend.
	gateway bool
	// policy, when set, names the rpxpolicy scenario policy that steers the
	// producer's labels over the stream. Otherwise the benchmark installs
	// its own label schedule (scene.labels) every cl frames.
	policy    string
	cl        int
	fullEvery int
	boxes     int
	rois      int
}

var workloads = []workload{
	// QVGA frames through rpxgw: encoding is cheap, so per-frame wire,
	// gateway relay and push-stream overheads dominate.
	{
		name: "relay-qvga",
		w:    320, h: 240, gateway: true,
		cl: 8, fullEvery: 4, boxes: 3, rois: 16,
	},
	// A 1080p stream steered live by an rpxpolicy worker through in-stream
	// label feedback: fan-out to two subscribers plus label round trips.
	{
		name: "policy-1080p",
		w:    1920, h: 1080, policy: "motion-skip",
		cl: 4, boxes: 4,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Consumer push-stream window: the consumer starts with streamCredit frames
// of credit and returns streamCredit/2 at a time.
const streamCredit = 64

// env is one booted system: the daemons, the producing session, and the
// consumer's push subscription to it.
type env struct {
	daemons    []*daemon // in start order
	admins     []string  // every daemon's admin address, rpxd's first
	producer   *client.Session
	subscriber *client.Session
	stream     *client.Stream
}

// setup boots the workload's daemons and opens its sessions. On error
// everything already started is torn down.
func setup(ctx context.Context, wl workload, binDir string) (*env, error) {
	e := &env{}
	if err := e.boot(ctx, wl, binDir); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) boot(ctx context.Context, wl workload, binDir string) error {
	rpxd, err := e.start(ctx, binDir, "rpxd", "-addr", anyPort, "-max-sessions", "8")
	if err != nil {
		return err
	}
	addr, err := waitListening(ctx, rpxd, "listening")
	if err != nil {
		return err
	}

	dialAddr := addr
	if wl.gateway {
		gw, err := e.start(ctx, binDir, "rpxgw", "-addr", anyPort, "-backends", addr+"@"+e.admins[0])
		if err != nil {
			return err
		}
		if dialAddr, err = waitListening(ctx, gw, "listening"); err != nil {
			return err
		}
	}

	e.producer, err = client.Dial(dialAddr, client.Config{W: wl.w, H: wl.h, Format: rpx.Gray8, Block: true})
	if err != nil {
		return fmt.Errorf("dial producer: %w", err)
	}
	if wl.policy != "" {
		// The policy worker's first push replaces this; until then every
		// frame is captured whole.
		if err := e.producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(wl.w, wl.h)}); err != nil {
			return fmt.Errorf("initial labels: %w", err)
		}
	}
	e.subscriber, err = client.Dial(dialAddr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		return fmt.Errorf("dial consumer: %w", err)
	}
	e.stream, err = e.subscriber.Subscribe(client.SubscribeOptions{
		Target: e.producer.ID(), Credit: streamCredit, Batch: 1,
	})
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}

	if wl.policy != "" {
		// The worker re-attaches after any transport error for as long as the
		// run lasts, so its admin endpoint stays up for the final scrape.
		pol, err := e.start(ctx, binDir, "rpxpolicy",
			"-addr", addr, "-target", strconv.FormatUint(e.producer.ID(), 10),
			"-policy", wl.policy, "-cl", strconv.Itoa(wl.cl),
			"-w", strconv.Itoa(wl.w), "-h", strconv.Itoa(wl.h),
			"-max-retries", "1000")
		if err != nil {
			return err
		}
		// Ready once the worker's subscription sits next to the consumer's.
		if err := waitMetric(ctx, pol, e.admins[0], "rpxd_stream_subscriptions_open", 2); err != nil {
			return err
		}
	}
	return nil
}

// anyPort asks a daemon to listen on a loopback port of the kernel's
// choosing; waitListening reads back which.
const anyPort = "127.0.0.1:0"

// start launches one daemon with an admin endpoint and waits until the
// endpoint is up.
func (e *env) start(ctx context.Context, binDir, name string, args ...string) (*daemon, error) {
	d, err := startDaemon(binDir, name, append(args, "-admin", anyPort)...)
	if err != nil {
		return nil, err
	}
	e.daemons = append(e.daemons, d)
	admin, err := waitListening(ctx, d, "admin listening")
	if err != nil {
		return nil, err
	}
	e.admins = append(e.admins, admin)
	return d, nil
}

// scrapeAll reads every daemon's /metrics into one map; metric names carry
// their daemon's prefix, so nothing collides.
func (e *env) scrapeAll() (map[string]float64, error) {
	all := map[string]float64{}
	for _, admin := range e.admins {
		m, err := scrape(admin)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			all[k] = v
		}
	}
	return all, nil
}

// close ends the sessions and stops the daemons, newest first, waiting for
// every process to exit.
func (e *env) close() {
	for i := len(e.daemons) - 1; i >= 0; i-- {
		if e.daemons[i].name == "rpxpolicy" {
			// Drain the worker while its target session still exists.
			e.daemons[i].stop()
		}
	}
	if e.stream != nil {
		e.stream.Close()
	}
	if e.subscriber != nil {
		e.subscriber.Close()
	}
	if e.producer != nil {
		e.producer.Close()
	}
	for i := len(e.daemons) - 1; i >= 0; i-- {
		e.daemons[i].stop()
	}
}
