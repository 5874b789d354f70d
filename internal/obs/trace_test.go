package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Span{Frame: i, Op: SpanEncode})
	}
	if tr.Total() != 6 {
		t.Errorf("Total = %d, want 6", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Frame != i+2 { // oldest retained is frame 2
			t.Errorf("spans[%d].Frame = %d, want %d", i, s.Frame, i+2)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Frame: 0, Op: SpanCommit})
	tr.Record(Span{Frame: 0, Op: SpanEncode, Bytes: 128})
	spans := tr.Snapshot()
	if len(spans) != 2 || spans[0].Op != SpanCommit || spans[1].Bytes != 128 {
		t.Errorf("snapshot = %+v", spans)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Session: 9, Frame: 1, Op: SpanDecode, Start: 10, Dur: 20, Bytes: 30})
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total    uint64 `json:"total"`
		Capacity int    `json:"capacity"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal(b.Bytes(), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if dump.Total != 1 || dump.Capacity != 4 || len(dump.Spans) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	if s := dump.Spans[0]; s.Session != 9 || s.Op != SpanDecode || s.Bytes != 30 {
		t.Errorf("span = %+v", s)
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Frame: 1})
	tr.Reset()
	if tr.Total() != 0 || len(tr.Snapshot()) != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Session: uint64(g), Frame: i, Op: SpanPush})
				if i%10 == 0 {
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 400 {
		t.Errorf("Total = %d, want 400", tr.Total())
	}
}
