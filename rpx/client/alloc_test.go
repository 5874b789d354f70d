package client_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/server"
	"repro/rpx"
	"repro/rpx/client"
)

// TestAllocsStreamRecv pins the subscriber's receive path: Recv reads each
// FRAME_PUSH into the stream's one reused buffer and decodes its records
// into reused slices, so a steady-state Recv allocates the same number of
// objects whatever the frame size. rpxd runs in this process, so the count
// includes its push writer's share; every frame is captured and published
// before measuring, which keeps the producer's work out of it.
func TestAllocsStreamRecv(t *testing.T) {
	const warm, runs = 3, 8
	allocs := func(w, h int) float64 {
		addr := startServer(t, server.Config{}, server.TCPConfig{})
		producer, err := client.Dial(addr, client.Config{W: w, H: h, Format: rpx.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		defer producer.Close()
		sub, err := client.Dial(addr, client.Config{W: 8, H: 8, Format: rpx.Gray8})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		// Full-frame captures keep every pushed frame the same size.
		if err := producer.SetRegionLabels([]rpx.RegionLabel{rpx.FullFrame(w, h)}); err != nil {
			t.Fatal(err)
		}
		frames := warm + runs + 1 // AllocsPerRun calls once more to warm up
		st, err := sub.Subscribe(client.SubscribeOptions{Target: producer.ID(), Credit: frames, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		fr := rpx.NewFrame(w, h, rpx.Gray8)
		for i := 0; i < frames; i++ {
			fillFrame(fr, 2, i)
			if _, err := producer.Capture(fr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ {
			if _, err := st.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		// The collector's own bookkeeping can add an object now and then.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(runs, func() {
			if _, err := st.Recv(); err != nil {
				t.Fatal(err)
			}
		})
	}
	qvga, fhd := allocs(320, 240), allocs(1920, 1080)
	if qvga != fhd {
		t.Errorf("Recv allocates %v objects per 320x240 frame and %v per 1920x1080 frame, want the same", qvga, fhd)
	}
	t.Logf("Recv allocates %v objects per frame", fhd)
}
