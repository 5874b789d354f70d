package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child process (rpxd, rpxgw or rpxpolicy) built from the
// checkout.
type daemon struct {
	name string
	cmd  *exec.Cmd
	log  *lockedBuffer
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// lockedBuffer collects a child's output; exec copies into it from its own
// goroutine while a failing run may read it. Each write also signals wrote.
type lockedBuffer struct {
	mu    sync.Mutex
	b     bytes.Buffer
	wrote chan struct{} // capacity 1: one pending signal covers any number of writes
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case l.wrote <- struct{}{}:
	default:
	}
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon launches binDir/name with args. The child is killed if this
// process dies first.
func startDaemon(binDir, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, log: &lockedBuffer{wrote: make(chan struct{}, 1)}, done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(binDir, name), args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// exited reports whether the process has already ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// pause waits between readiness probes until the daemon writes output,
// exits, or a short poll interval passes. The daemons log each step of
// coming up, so a probe right after new output usually succeeds, and the
// benchmark does not poll the CPU the daemon is booting on.
func (d *daemon) pause() {
	t := time.NewTimer(2 * time.Millisecond)
	defer t.Stop()
	select {
	case <-d.log.wrote:
	case <-d.done:
	case <-t.C:
	}
}

// stop asks the daemon to drain with SIGTERM, kills it if it has not exited
// within the grace period, and waits for it either way.
func (d *daemon) stop() {
	if !d.exited() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
}

// waitListening waits until the daemon logs "<name>: <what> on <addr>" and
// returns addr. Every daemon binds its sockets to port 0 and logs the
// address the kernel chose once the socket accepts connections, so no port
// is picked in advance and then lost to another socket before the daemon
// binds it.
func waitListening(ctx context.Context, d *daemon, what string) (string, error) {
	marker := d.name + ": " + what + " on "
	deadline := time.Now().Add(20 * time.Second)
	for {
		log := d.log.String()
		if i := strings.Index(log, marker); i >= 0 {
			// The address ends at a space or the line's end; without either
			// the line is still being written.
			rest := log[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				return rest[:j], nil
			}
		}
		if d.exited() {
			return "", fmt.Errorf("%s exited before %s: %v\n%s", d.name, what, d.err, log)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return "", fmt.Errorf("%s never logged %q\n%s", d.name, marker, log)
		}
		d.pause()
	}
}

// metricsClient scrapes admin endpoints without keeping idle connections
// (and their goroutines) alive between scrapes.
var metricsClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// scrape reads a Prometheus text endpoint. The map holds each series under
// its full key (`name{label="v"}`) and, under the bare name, the sum of
// every series of that metric across its label sets.
func scrape(adminAddr string) (map[string]float64, error) {
	resp, err := metricsClient.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", adminAddr, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest, ok := strings.Cut(line, " ")
		name := series
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			var labels string
			labels, rest, ok = strings.Cut(line[i:], "} ")
			series = name + labels + "}"
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
		if series != name {
			out[series] = v
		}
	}
	return out, sc.Err()
}

// waitMetric polls adminAddr until metric reaches at least want, probing
// again whenever daemon d logs progress.
func waitMetric(ctx context.Context, d *daemon, adminAddr, metric string, want float64) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := scrape(adminAddr)
		if err == nil && m[metric] >= want {
			return nil
		}
		if d.exited() {
			return fmt.Errorf("%s exited while waiting for %s >= %v: %v\n%s", d.name, metric, want, d.err, d.log)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never reached %v (last scrape error: %v)", metric, want, err)
		}
		d.pause()
	}
}
