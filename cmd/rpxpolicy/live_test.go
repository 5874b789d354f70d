package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/rpx"
	"repro/rpx/client"
)

// TestLivePolicyLoop is the CI policy-loop smoke, gated on RPXPOLICY_ADDR
// (an rpxd or rpxgw address) and RPXPOLICY_BIN (a built rpxpolicy binary).
// It opens a producer session, execs the real worker binary against it, and
// streams a synthetic moving-box scene while asserting the three things the
// closed loop promises:
//
//  1. the worker's labels actually steer the producer — the captured pixel
//     fraction changes across at least two policy cycles;
//  2. the decoded output stays byte-consistent with the oracle — a local
//     decoder fed the producer's encoded stream (via a side subscription)
//     reconstructs exactly what the server serves as Decoded(), across
//     every label change the worker makes;
//  3. the worker's admin endpoint reports >= 2 completed cycles, and
//     SIGTERM drains it cleanly with a final stats flush.
func TestLivePolicyLoop(t *testing.T) {
	addr := os.Getenv("RPXPOLICY_ADDR")
	bin := os.Getenv("RPXPOLICY_BIN")
	if addr == "" || bin == "" {
		t.Skip("RPXPOLICY_ADDR / RPXPOLICY_BIN not set; live policy-loop smoke runs only under scripts/ci.sh")
	}

	const w, h = 64, 48
	producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
		t.Fatal(err)
	}

	// Side subscription: the oracle's view of the encoded stream.
	watcher, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	st, err := watcher.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: 512, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The real worker binary, steering the producer through the same server.
	var workerLog lockedBuffer
	worker := exec.Command(bin,
		"-addr", addr,
		"-target", fmt.Sprint(producer.ID()),
		"-policy", "motion-skip",
		"-cl", "2",
		"-w", fmt.Sprint(w), "-h", fmt.Sprint(h),
		"-admin", "127.0.0.1:0",
	)
	stderr, err := worker.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	defer func() {
		worker.Process.Kill()
		worker.Wait()
	}()
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			workerLog.append(sc.Text() + "\n")
		}
	}()
	adminAddr := ""
	for deadline := time.Now().Add(10 * time.Second); adminAddr == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("worker admin endpoint never came up; log:\n%s", workerLog.String())
		}
		for _, line := range strings.Split(workerLog.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "rpxpolicy: admin listening on "); ok {
				adminAddr = rest
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stream the moving-box scene until the worker has demonstrably steered
	// the capture rhythm at least twice, byte-checking every frame.
	oracle := core.NewDecoder(w, h, rpx.Gray8)
	fr := rpx.NewFrame(w, h, rpx.Gray8)
	fractions := map[string]bool{}
	nextSeq := uint64(0)
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; len(fractions) < 3; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("labels never changed across 2 cycles: saw fractions %v; worker log:\n%s",
				fractions, workerLog.String())
		}
		for p := range fr.Pix {
			fr.Pix[p] = 24
		}
		bx, by := (i*4)%(w-16), (i*2)%(h-16)
		for y := by; y < by+16; y++ {
			for x := bx; x < bx+16; x++ {
				fr.Pix[y*w+x] = 232
			}
		}
		cs, err := producer.Capture(fr)
		if err != nil {
			t.Fatal(err)
		}
		fractions[fmt.Sprintf("%.4f", cs.PixelFraction)] = true
		serverDec, err := producer.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		// Drain the side subscription up to this frame and replay it through
		// the local decoder: the oracle must agree with the server's decode
		// byte-for-byte, whatever labels the worker just installed.
		for {
			sf, err := st.Recv()
			if err != nil {
				t.Fatalf("oracle stream: %v", err)
			}
			if sf.Seq != nextSeq {
				t.Fatalf("oracle stream dropped frames: seq %d, want %d (raise credit)", sf.Seq, nextSeq)
			}
			nextSeq++
			if nextSeq%64 == 0 {
				if err := st.Grant(64); err != nil {
					t.Fatalf("oracle credit grant: %v", err)
				}
			}
			ef, err := sf.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Push(ef); err != nil {
				t.Fatal(err)
			}
			if sf.Seq == uint64(cs.FrameIndex) {
				break
			}
		}
		oracleDec, err := oracle.DecodeFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !oracleDec.Equal(serverDec) {
			t.Fatalf("frame %d: server decode differs from the oracle decoder (fraction %.4f)",
				cs.FrameIndex, cs.PixelFraction)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The worker's own accounting: >= 2 completed cycles on /metrics.
	cycles := scrapeCounter(t, adminAddr, "rpxpolicy_cycles_total")
	if cycles < 2 {
		t.Fatalf("worker reports %v cycles, want >= 2; log:\n%s", cycles, workerLog.String())
	}
	if pushed := scrapeCounter(t, adminAddr, "rpxpolicy_labels_pushed_total"); pushed < 2 {
		t.Fatalf("worker reports %v pushed workloads, want >= 2", pushed)
	}

	// Graceful drain on SIGTERM with a final stats flush.
	if err := worker.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- worker.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit: %v; log:\n%s", err, workerLog.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("worker did not drain on SIGTERM; log:\n%s", workerLog.String())
	}
	if !strings.Contains(workerLog.String(), "final stats") {
		t.Fatalf("no final stats flush; log:\n%s", workerLog.String())
	}

	if err := st.Close(); err != nil {
		t.Fatalf("oracle stream close: %v", err)
	}
}

// scrapeCounter fetches one counter value from a Prometheus /metrics page.
func scrapeCounter(t *testing.T, adminAddr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics lacks %s:\n%s", name, body)
	return 0
}

// lockedBuffer is a strings.Builder safe for the reader goroutine and the
// polling test body.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) append(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.WriteString(s)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
