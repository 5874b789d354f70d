package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/rpx"
	"repro/rpx/client"
)

// Streaming delivery: frames/sec getting one sensor pipeline's encoded
// frames into N consumers' hands, push versus request/reply. Not a paper
// artifact — the paper's system is a single sensor pipeline — but it
// prices the fan-out mechanism the scale-out reproduction adds.
// Request/reply has no cross-session read, so request/reply fan-out means
// every consumer runs its own capture + GET_ENCODED pipeline: N consumers
// cost N encodes and 2N round trips per frame. Push fan-out captures and
// encodes once and pushes the shared bytes down N credit-windowed streams.

// StreamRow is one consumer-count measurement.
type StreamRow struct {
	// Sessions is the number of consumer sessions receiving the frames.
	Sessions int `json:"sessions"`
	// RPCFPS is delivered frames/sec with each consumer running its own
	// capture + LastEncoded pull pipeline (the only request/reply fan-out).
	RPCFPS float64 `json:"rpc_fps"`
	// PushFPS is delivered frames/sec with one producer capturing and
	// every consumer on a SUBSCRIBE stream.
	PushFPS float64 `json:"push_fps"`
	// SpeedupX is PushFPS/RPCFPS; above 1 means push wins.
	SpeedupX float64 `json:"speedup_x"`
}

// streamGeometry matches the gateway bench: frames small enough that the
// wire hop, not the encoder, dominates.
const (
	streamW = 160
	streamH = 120
)

// StreamDelivery measures pull-versus-push frame delivery over one
// in-process rpxd backend.
func StreamDelivery(s Scale) ([]StreamRow, error) {
	counts := []int{1, 8}
	frames := 12
	if s == Full {
		counts = []int{1, 8, 64}
		frames = 40
	}

	addrs, stop, err := startGatewayBenchBackends(1)
	if err != nil {
		return nil, err
	}
	defer stop()
	addr := addrs[0]

	rows := make([]StreamRow, 0, len(counts))
	for _, n := range counts {
		rpcFPS, err := streamRunRPC(addr, n, frames)
		if err != nil {
			return nil, fmt.Errorf("experiments: rpc run %d sessions: %w", n, err)
		}
		pushFPS, err := streamRunPush(addr, n, frames)
		if err != nil {
			return nil, fmt.Errorf("experiments: push run %d sessions: %w", n, err)
		}
		rows = append(rows, StreamRow{
			Sessions: n,
			RPCFPS:   rpcFPS,
			PushFPS:  pushFPS,
			SpeedupX: pushFPS / rpcFPS,
		})
	}
	return rows, nil
}

// streamDial opens a producer session with a full-frame label installed.
func streamDial(addr string) (*client.Session, error) {
	sess, err := client.Dial(addr, client.Config{
		W: streamW, H: streamH, Format: rpx.Gray8, Block: true,
	})
	if err != nil {
		return nil, err
	}
	if err := sess.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(streamW, streamH)}); err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}

// streamRunRPC times n consumer sessions each running the full
// request/reply fan-out pipeline: capture every frame and pull its encoded
// bytes via LastEncoded (request/reply has no cross-session read, so each
// consumer repeats the capture).
func streamRunRPC(addr string, sessions, frames int) (fps float64, err error) {
	open := make([]*client.Session, 0, sessions)
	defer func() {
		for _, s := range open {
			s.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		sess, derr := streamDial(addr)
		if derr != nil {
			return 0, derr
		}
		open = append(open, sess)
	}

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
	)
	fail := func(e error) {
		mu.Lock()
		if err == nil {
			err = e
		}
		mu.Unlock()
	}
	for si, sess := range open {
		wg.Add(1)
		go func(si int, sess *client.Session) {
			defer wg.Done()
			fr := rpx.NewFrame(streamW, streamH, rpx.Gray8)
			<-start
			for i := 0; i < frames; i++ {
				for p := range fr.Pix {
					fr.Pix[p] = byte(si*37 + i*11 + p)
				}
				if _, cerr := sess.Capture(fr); cerr != nil {
					fail(fmt.Errorf("session %d capture %d: %w", si, i, cerr))
					return
				}
				ef, gerr := sess.LastEncoded()
				if gerr != nil {
					fail(fmt.Errorf("session %d pull %d: %w", si, i, gerr))
					return
				}
				if ef.FrameIndex != i {
					fail(fmt.Errorf("session %d pull %d returned frame %d", si, i, ef.FrameIndex))
					return
				}
			}
		}(si, sess)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	return float64(sessions*frames) / elapsed, nil
}

// streamRunPush times one producer fanning out to n subscribers over push
// streams; the clock stops when every subscriber holds all frames.
func streamRunPush(addr string, sessions, frames int) (fps float64, err error) {
	producer, err := streamDial(addr)
	if err != nil {
		return 0, err
	}
	defer producer.Close()
	subscribers := make([]*client.Session, 0, sessions)
	streams := make([]*client.Stream, 0, sessions)
	defer func() {
		for _, s := range subscribers {
			s.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		sub, derr := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
		if derr != nil {
			return 0, derr
		}
		subscribers = append(subscribers, sub)
		st, serr := sub.Subscribe(client.SubscribeOptions{
			Target: producer.ID(), Credit: wire.MaxCreditWindow, Batch: 8,
		})
		if serr != nil {
			return 0, serr
		}
		streams = append(streams, st)
	}

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
	)
	fail := func(e error) {
		mu.Lock()
		if err == nil {
			err = e
		}
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr := rpx.NewFrame(streamW, streamH, rpx.Gray8)
		<-start
		for i := 0; i < frames; i++ {
			for p := range fr.Pix {
				fr.Pix[p] = byte(i*11 + p)
			}
			if _, cerr := producer.Capture(fr); cerr != nil {
				fail(fmt.Errorf("producer capture %d: %w", i, cerr))
				return
			}
		}
	}()
	for si, st := range streams {
		wg.Add(1)
		go func(si int, st *client.Stream) {
			defer wg.Done()
			<-start
			for i := 0; i < frames; i++ {
				f, rerr := st.Recv()
				if rerr != nil {
					fail(fmt.Errorf("subscriber %d recv %d: %w", si, i, rerr))
					return
				}
				if f.Seq != uint64(i) || f.Dropped != 0 {
					fail(fmt.Errorf("subscriber %d frame %d: seq %d dropped %d", si, i, f.Seq, f.Dropped))
					return
				}
			}
		}(si, st)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	return float64(sessions*frames) / elapsed, nil
}

// StreamReport renders the delivery table.
func StreamReport(rows []StreamRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Frame fan-out: %dx%d Gray8, one pipeline's encoded frames to N consumers\n", streamW, streamH)
	fmt.Fprintf(&b, "%10s %14s %14s %10s\n", "consumers", "pull f/s", "push f/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %14.0f %14.0f %9.2fx\n", r.Sessions, r.RPCFPS, r.PushFPS, r.SpeedupX)
	}
	return b.String()
}

// StreamCSV writes the delivery rows as CSV.
func StreamCSV(w io.Writer, rows []StreamRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"sessions", "rpc_fps", "push_fps", "speedup_x"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			fmt.Sprintf("%d", r.Sessions),
			fmt.Sprintf("%.1f", r.RPCFPS),
			fmt.Sprintf("%.1f", r.PushFPS),
			fmt.Sprintf("%.3f", r.SpeedupX),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StreamJSON writes the delivery rows as the BENCH_stream.json document.
func StreamJSON(w io.Writer, rows []StreamRow) error {
	doc := struct {
		Experiment string      `json:"experiment"`
		Workload   string      `json:"workload"`
		Rows       []StreamRow `json:"rows"`
	}{
		Experiment: "stream_push_vs_rpc",
		Workload:   fmt.Sprintf("%dx%d gray8 capture, full-frame labels, batch 8", streamW, streamH),
		Rows:       rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
