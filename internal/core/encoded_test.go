package core

import (
	"math"
	"math/rand"
	"testing"
)

// Regression: the payload-length bound used to be `payloadLen > w*h*bpp`,
// whose product overflows a 32-bit int at the maximum geometry (2^15 *
// 2^15 * 4 == 2^32 wraps to 0) — and a hostile length of 0x80000000
// arrives negative through the uint32->int conversion, so `negative > 0`
// let it through to allocation. payloadLenOK is generic so this test pins
// the 32-bit arithmetic on any host.
func TestPayloadLenCheckOverflow32Bit(t *testing.T) {
	var w, h, bpp int32 = MaxFrameDim, MaxFrameDim, 4
	hostile := int32(math.MinInt32) // int32(uint32(0x80000000))

	// Demonstrate the old check's failure mode: the product wraps to 0 and
	// the comparison accepts the hostile length.
	if product := w * h * bpp; product != 0 {
		t.Fatalf("expected w*h*bpp to wrap to 0 in int32, got %d", product)
	}
	if oldCheckRejects := hostile > w*h*bpp; oldCheckRejects {
		t.Fatal("multiply-form check unexpectedly rejected the hostile length; regression premise broken")
	}

	// The divide-form must reject it.
	if payloadLenOK(hostile, w, h, bpp) {
		t.Fatal("payloadLenOK accepted a negative (wrapped) payload length")
	}
	// And still accept the true maximum payload, which only fits in 64 bits.
	if !payloadLenOK[int64](1<<32, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK rejected the exact maximum payload")
	}
	if payloadLenOK[int64](1<<32+1, MaxFrameDim, MaxFrameDim, 4) {
		t.Fatal("payloadLenOK accepted one byte over the maximum")
	}
}

// TestPayloadLenCheckMatchesReference checks divide-form equivalence with
// the overflow-free 64-bit comparison across randomized geometries.
func TestPayloadLenCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		w := int64(1 + rng.Intn(MaxFrameDim))
		h := int64(1 + rng.Intn(MaxFrameDim))
		bpp := int64(1 + rng.Intn(4))
		var pl int64
		switch rng.Intn(4) {
		case 0:
			pl = rng.Int63n(1 << 33)
		case 1:
			pl = w*h*bpp + int64(rng.Intn(5)) - 2 // boundary neighborhood
		case 2:
			pl = int64(int32(rng.Uint32())) // includes negatives
		case 3:
			pl = rng.Int63n(w*h*bpp + 1)
		}
		want := pl >= 0 && pl <= w*h*bpp
		if got := payloadLenOK(pl, w, h, bpp); got != want {
			t.Fatalf("payloadLenOK(%d, %d, %d, %d) = %v, want %v", pl, w, h, bpp, got, want)
		}
	}
}
