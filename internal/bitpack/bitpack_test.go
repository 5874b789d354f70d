package bitpack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeString(t *testing.T) {
	cases := map[Code]string{CodeN: "N", CodeSt: "St", CodeSk: "Sk", CodeR: "R", Code(7): "Code(7)"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Code(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestCodeValid(t *testing.T) {
	for c := Code(0); c <= 3; c++ {
		if !c.Valid() {
			t.Errorf("Code(%d).Valid() = false, want true", c)
		}
	}
	if Code(4).Valid() {
		t.Error("Code(4).Valid() = true, want false")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	const n = 257 // deliberately not a multiple of 4
	m := NewMask2(n)
	codes := []Code{CodeN, CodeSt, CodeSk, CodeR}
	for i := 0; i < n; i++ {
		m.Set(i, codes[(i*7)%4])
	}
	for i := 0; i < n; i++ {
		if got, want := m.Get(i), codes[(i*7)%4]; got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSetDoesNotClobberNeighbors(t *testing.T) {
	m := NewMask2(8)
	m.Fill(0, 8, CodeR)
	m.Set(3, CodeN)
	for i := 0; i < 8; i++ {
		want := CodeR
		if i == 3 {
			want = CodeN
		}
		if got := m.Get(i); got != want {
			t.Errorf("Get(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestNewMask2Zeroed(t *testing.T) {
	m := NewMask2(100)
	for i := 0; i < 100; i++ {
		if m.Get(i) != CodeN {
			t.Fatalf("element %d not CodeN after NewMask2", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMask2(4)
	for name, fn := range map[string]func(){
		"Get(-1)":     func() { m.Get(-1) },
		"Get(4)":      func() { m.Get(4) },
		"Set(4)":      func() { m.Set(4, CodeR) },
		"SetInvalid":  func() { m.Set(0, Code(5)) },
		"CountR(5)":   func() { m.CountR(5) },
		"Fill(-1,2)":  func() { m.Fill(-1, 2, CodeR) },
		"Fill(3,2)":   func() { m.Fill(3, 2, CodeR) },
		"NegativeLen": func() { NewMask2(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFromBytes(t *testing.T) {
	if _, err := FromBytes(make([]byte, 1), 5); err == nil {
		t.Error("FromBytes with short buffer: want error, got nil")
	}
	buf := []byte{0xFF, 0x03} // 4 R codes, then 1 R code
	m, err := FromBytes(buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CountR(6); got != 5 {
		t.Errorf("CountR(6) = %d, want 5", got)
	}
}

// Regression: FromBytes must clear the unused high-order fields of the
// final byte. Before the fix a deserialized mask re-serialized to different
// bytes than an encoder-built one, breaking the differential suite's
// byte-identity oracle.
func TestFromBytesCanonicalizesPadding(t *testing.T) {
	buf := []byte{0xFF, 0xFF} // n=6: top field of byte 1 is padding
	m, err := FromBytes(buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewMask2(6)
	ref.Fill(0, 6, CodeR)
	if !m.Equal(ref) {
		t.Fatal("mask with dirty padding not Equal to clean all-R mask")
	}
	if !bytes.Equal(m.Bytes(), ref.Bytes()) {
		t.Fatalf("Bytes() not canonical: got %x, want %x", m.Bytes(), ref.Bytes())
	}
}

// Regression: FromBytes must trim oversized buffers to exactly ceil(n/4)
// bytes so SizeBytes/MetadataBytes do not over-report and Bytes() round
// trips do not grow.
func TestFromBytesTrimsExcess(t *testing.T) {
	buf := []byte{0x1B, 0x03, 0xAA, 0xBB, 0xCC} // n=6 needs 2 bytes
	m, err := FromBytes(buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SizeBytes(); got != 2 {
		t.Fatalf("SizeBytes = %d, want 2", got)
	}
	if got := m.Bytes(); len(got) != 2 {
		t.Fatalf("Bytes() = %d bytes, want 2", len(got))
	}
	m2, err := FromBytes(m.Bytes(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Equal(m) || m2.SizeBytes() != 2 {
		t.Fatal("Bytes() round trip changed the mask")
	}
}

func TestCountRMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		m := NewMask2(n)
		for i := 0; i < n; i++ {
			m.Set(i, Code(rng.Intn(4)))
		}
		for hi := 0; hi <= n; hi++ {
			naive := 0
			for i := 0; i < hi; i++ {
				if m.Get(i) == CodeR {
					naive++
				}
			}
			if got := m.CountR(hi); got != naive {
				t.Fatalf("trial %d: CountR(%d) = %d, want %d", trial, hi, got, naive)
			}
		}
	}
}

func TestCountRRange(t *testing.T) {
	m := NewMask2(20)
	m.Fill(5, 15, CodeR)
	if got := m.CountRRange(0, 20); got != 10 {
		t.Errorf("CountRRange(0,20) = %d, want 10", got)
	}
	if got := m.CountRRange(5, 15); got != 10 {
		t.Errorf("CountRRange(5,15) = %d, want 10", got)
	}
	if got := m.CountRRange(7, 7); got != 0 {
		t.Errorf("CountRRange(7,7) = %d, want 0", got)
	}
}

// Property: CountRRange equals the prefix-count difference for all ranges.
func TestCountRRangeMatchesPrefixDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		m := NewMask2(n)
		for i := 0; i < n; i++ {
			m.Set(i, Code(rng.Intn(4)))
		}
		for k := 0; k < 60; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			if got, want := m.CountRRange(lo, hi), m.CountR(hi)-m.CountR(lo); got != want {
				t.Fatalf("CountRRange(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}

func TestFillAndHistogram(t *testing.T) {
	m := NewMask2(103)
	m.Fill(1, 50, CodeSt)
	m.Fill(50, 100, CodeR)
	h := m.Histogram()
	if h[CodeN] != 4 || h[CodeSt] != 49 || h[CodeSk] != 0 || h[CodeR] != 50 {
		t.Errorf("Histogram = %v, want [4 49 0 50]", h)
	}
}

// TestWriteRowMatchesSet writes a mask row by row, rows of every width
// against every byte alignment, and checks it equals the same codes stored
// one Set at a time: partial bytes shared by two rows keep both rows'
// fields.
func TestWriteRowMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for w := 1; w <= 13; w++ {
		const h = 9
		got, want := NewMask2(w*h), NewMask2(w*h)
		for y := 0; y < h; y++ {
			row := make([]Code, w)
			for x := range row {
				row[x] = Code(rng.Intn(4))
				want.Set(y*w+x, row[x])
			}
			got.WriteRow(y*w, row)
		}
		if !got.Equal(want) {
			t.Fatalf("width %d: WriteRow mask % x, Set mask % x", w, got.Bytes(), want.Bytes())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("WriteRow past the end did not panic")
		}
	}()
	NewMask2(5).WriteRow(3, make([]Code, 3))
}

func TestReset(t *testing.T) {
	m := NewMask2(10)
	m.Fill(0, 10, CodeR)
	m.Reset()
	if h := m.Histogram(); h[CodeN] != 10 {
		t.Errorf("after Reset, histogram = %v, want all N", h)
	}
}

func TestCloneEqual(t *testing.T) {
	m := NewMask2(33)
	m.Fill(3, 30, CodeSk)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(4, CodeR)
	if m.Equal(c) {
		t.Fatal("mutated clone still equal to original")
	}
	if m.Equal(NewMask2(32)) {
		t.Fatal("masks of different length reported equal")
	}
}

func TestSizeBytes(t *testing.T) {
	// 2 bits per pixel = 1/4 byte per pixel: a 1920x1080 mask is ~518 KB,
	// matching the paper's "500 KB for a 1080p frame" metadata estimate.
	m := NewMask2(1920 * 1080)
	if got := m.SizeBytes(); got != 1920*1080/4 {
		t.Errorf("SizeBytes = %d, want %d", got, 1920*1080/4)
	}
}

func TestCursorSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	m := NewMask2(n)
	for i := 0; i < n; i++ {
		m.Set(i, Code(rng.Intn(4)))
	}
	cur := NewCursor(m)
	for i := 0; i < n; i++ {
		if got, want := cur.RBefore(), m.CountR(i); got != want {
			t.Fatalf("at %d: RBefore = %d, want %d", i, got, want)
		}
		if got, want := cur.Next(), m.Get(i); got != want {
			t.Fatalf("at %d: Next = %v, want %v", i, got, want)
		}
	}
	if !cur.Done() {
		t.Error("cursor not Done after consuming all elements")
	}
}

func TestCursorSeek(t *testing.T) {
	m := NewMask2(100)
	m.Fill(0, 100, CodeR)
	cur := NewCursor(m)
	cur.Seek(40)
	if cur.RBefore() != 40 {
		t.Errorf("after Seek(40): RBefore = %d, want 40", cur.RBefore())
	}
	cur.Seek(10) // backward
	if cur.RBefore() != 10 {
		t.Errorf("after Seek(10): RBefore = %d, want 10", cur.RBefore())
	}
	cur.Seek(10) // no-op
	if cur.Pos() != 10 {
		t.Errorf("Pos = %d, want 10", cur.Pos())
	}
}

// Property: CountR is monotone non-decreasing and bounded by the prefix length.
func TestCountRMonotoneProperty(t *testing.T) {
	f := func(raw []byte, hiSeed uint16) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw) * 4
		m, err := FromBytes(raw, n)
		if err != nil {
			return false
		}
		hi := int(hiSeed) % n
		a, b := m.CountR(hi), m.CountR(n)
		return a >= 0 && a <= hi && b >= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fill(lo,hi,R) then CountRRange(lo,hi) == hi-lo.
func TestFillCountProperty(t *testing.T) {
	f := func(nSeed, loSeed, hiSeed uint16) bool {
		n := int(nSeed)%1000 + 1
		lo := int(loSeed) % (n + 1)
		hi := int(hiSeed) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		m := NewMask2(n)
		m.Fill(lo, hi, CodeR)
		return m.CountRRange(lo, hi) == hi-lo && m.CountR(n) == hi-lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCountR1080pRow(b *testing.B) {
	m := NewMask2(1920)
	m.Fill(300, 1500, CodeR)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.CountR(1900)
	}
}

func BenchmarkCursorFullRow(b *testing.B) {
	m := NewMask2(1920)
	m.Fill(300, 1500, CodeR)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := NewCursor(m)
		for !cur.Done() {
			cur.Next()
		}
	}
}
