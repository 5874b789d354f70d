// Command perfbench measures the rhythmic-pixel frame path end to end: a
// producer captures seeded synthetic frames on rpxd (optionally through
// rpxgw, optionally steered by an rpxpolicy worker), a push subscriber
// receives every encoded frame, and the consumer reconstructs it. Each
// workload is a closed loop with one producer: frame t+1 is captured only
// once the consumer holds frame t's pixels.
//
//	perfbench -bin <dir with rpxd, rpxgw, rpxpolicy> -out <scratch dir> \
//	    -workload relay-qvga -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: whether every
// output checked out, the frames attempted and failed, and the metrics.
// With -trace 0 these are the end-to-end metrics (median over label periods
// of the period's mean frame latency, mean frame latency, and median setup
// time, all scaled to a reference host speed; see speedProbe); with -trace 1 they are the per-layer ones and the per-frame
// spans are written to -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: relay-qvga, policy-1080p")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = report per-layer metrics and write per-frame spans")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the rpxd, rpxgw and rpxpolicy binaries")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the span dump (-trace 1)")
	flag.Parse()
	if cfg.binDir == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
