package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_latency_seconds", "latency", L("op", "enc"))

	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)

	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("Gather returned %d samples, want 3", len(samples))
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if v := byName["test_ops_total"].Value; v != 5 {
		t.Errorf("counter = %v, want 5", v)
	}
	if v := byName["test_depth"].Value; v != 5 {
		t.Errorf("gauge = %v, want 5", v)
	}
	hs := byName["test_latency_seconds"].Hist
	if hs.Count != 2 {
		t.Errorf("histogram count = %d, want 2", hs.Count)
	}
	if got := byName["test_latency_seconds"].Labels; len(got) != 1 || got[0] != L("op", "enc") {
		t.Errorf("histogram labels = %v", got)
	}
}

func TestFuncMetricsReadAtScrape(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterFunc("test_fn_total", "fn", func() uint64 { return n })
	r.GaugeFunc("test_fn_gauge", "fn", func() float64 { return float64(n) * 2 })
	n = 21
	byName := map[string]float64{}
	for _, s := range r.Gather() {
		byName[s.Name] = s.Value
	}
	if byName["test_fn_total"] != 21 || byName["test_fn_gauge"] != 42 {
		t.Errorf("func metrics = %v, want 21 and 42", byName)
	}
}

func TestCollectDynamicSeries(t *testing.T) {
	r := NewRegistry()
	live := []string{"1", "2"}
	r.Collect(func(emit func(Sample)) {
		for _, id := range live {
			emit(Sample{Name: "test_session_depth", Help: "d", Kind: KindGauge,
				Labels: []Label{L("session", id)}, Value: 3})
		}
	})
	if got := len(r.Gather()); got != 2 {
		t.Fatalf("collector emitted %d samples, want 2", got)
	}
	live = live[:1] // the session went away: the series disappears
	if got := len(r.Gather()); got != 1 {
		t.Fatalf("collector emitted %d samples after eviction, want 1", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_a_total", "a")
	mustPanic("duplicate series", func() { r.Counter("test_a_total", "a") })
	mustPanic("conflicting kind", func() { r.Gauge("test_a_total", "a") })
	mustPanic("bad name", func() { r.Counter("0bad", "x") })
	mustPanic("bad name chars", func() { r.Counter("has space", "x") })
	// Same family, different labels: allowed.
	r.Counter("test_b_total", "b", L("op", "x"))
	r.Counter("test_b_total", "b", L("op", "y"))
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_frames_total", "Frames captured.")
	c.Add(3)
	h := r.Histogram("test_lat_seconds", "Latency.", L("op", "capture"))
	h.Observe(1 * time.Microsecond) // bucket 0: le = 1e-06
	h.Observe(3 * time.Microsecond) // bucket 2: le = 4e-06

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# HELP test_frames_total Frames captured.",
		"# TYPE test_frames_total counter",
		"test_frames_total 3",
		"# TYPE test_lat_seconds histogram",
		`test_lat_seconds_bucket{op="capture",le="1e-06"} 1`,
		`test_lat_seconds_bucket{op="capture",le="4e-06"} 2`,
		`test_lat_seconds_bucket{op="capture",le="+Inf"} 2`,
		`test_lat_seconds_count{op="capture"} 2`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The family header must appear exactly once even with multiple series.
	r2 := NewRegistry()
	r2.Counter("test_multi_total", "m", L("op", "a")).Inc()
	r2.Counter("test_multi_total", "m", L("op", "b")).Inc()
	b.Reset()
	if err := r2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "# TYPE test_multi_total counter"); got != 1 {
		t.Errorf("TYPE header appears %d times, want 1:\n%s", got, b.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_c_total", "c", L("op", "x")).Add(9)
	r.Histogram("test_h_seconds", "h").Observe(2 * time.Microsecond)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Kind   string            `json:"kind"`
		Labels map[string]string `json:"labels"`
		Value  *float64          `json:"value"`
		Hist   *struct {
			Count uint64 `json:"count"`
		} `json:"hist"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	c, ok := doc[`test_c_total{op="x"}`]
	if !ok || c.Value == nil || *c.Value != 9 || c.Labels["op"] != "x" {
		t.Errorf("counter entry wrong: %+v (doc %v)", c, doc)
	}
	h, ok := doc["test_h_seconds"]
	if !ok || h.Hist == nil || h.Hist.Count != 1 {
		t.Errorf("histogram entry wrong: %+v", h)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_esc_total", "e", L("path", "a\"b\\c\nd")).Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

// TestHotPathAllocs pins the acceptance criterion that the registry hot
// path — counter add, gauge set, histogram observe, tracer record — is
// allocation-free per op.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hot_total", "h")
	g := r.Gauge("test_hot_depth", "h")
	h := r.Histogram("test_hot_seconds", "h", L("op", "capture"))
	tr := NewTracer(64)
	span := Span{Session: 1, Frame: 2, Op: SpanEncode, Start: 100, Dur: 5, Bytes: 64}

	if n := testing.AllocsPerRun(200, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.Set(11) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Observe(17 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { tr.Record(span) }); n != 0 {
		t.Errorf("Tracer.Record allocates %v per op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(1024)
	span := Span{Session: 3, Frame: 7, Op: SpanDecode, Start: 1, Dur: 2, Bytes: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		span.Frame = i
		tr.Record(span)
	}
}
