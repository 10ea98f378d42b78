package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTracerRing(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Record(Span{Trace: TraceID(i + 1), Stage: "ingest"})
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	// Oldest first: the ring keeps the last 16 of 40.
	if spans[0].Trace != TraceID(25) || spans[15].Trace != TraceID(40) {
		t.Fatalf("ring order wrong: first=%v last=%v", spans[0].Trace, spans[15].Trace)
	}
	if got := tr.Count(); got != 40 {
		t.Fatalf("Count = %d, want 40", got)
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer(16)
	id := tr.NewTrace()
	if id == 0 {
		t.Fatal("NewTrace returned zero id")
	}
	s := tr.StartSpan(id, "cluster").AttrInt("events", 12).Attr("cache", "miss")
	time.Sleep(time.Millisecond)
	s.End()
	s.End() // idempotent
	got := tr.Spans()
	if len(got) != 1 || got[0].Trace != id {
		t.Fatalf("trace has %d spans, want 1", len(got))
	}
	sp := got[0]
	if sp.Stage != "cluster" || sp.Duration <= 0 {
		t.Fatalf("span = %+v", sp)
	}
	if len(sp.Attrs) != 2 || sp.Attrs[0].Value != "12" || sp.Attrs[1].Value != "miss" {
		t.Fatalf("attrs = %v", sp.Attrs)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.StartSpan(1, "x").Attr("a", "b").End() // nil tracer: no-op
	real := NewTracer(16)
	real.StartSpan(0, "x").End() // zero trace id: no-op
	if n := len(real.Spans()); n != 0 {
		t.Fatalf("no-op spans were recorded: %d", n)
	}
}

func TestTraceIDString(t *testing.T) {
	id := TraceID(0xabc)
	if got := id.String(); got != "0000000000000abc" {
		t.Fatalf("String = %q", got)
	}
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("round trip = %v, %v", back, err)
	}
	if _, err := ParseTraceID("nope"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(64)
	a, b := tr.NewTrace(), tr.NewTrace()
	tr.StartSpan(a, "ingest").AttrInt("events", 5).End()
	tr.StartSpan(a, "cluster").End()
	tr.StartSpan(b, "ingest").End()
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	var all []map[string]any
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 3 {
		t.Fatalf("got %d spans, want 3", len(all))
	}

	resp, err = srv.Client().Get(srv.URL + "?trace=" + a.String())
	if err != nil {
		t.Fatal(err)
	}
	var filtered []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(filtered) != 2 {
		t.Fatalf("filtered got %d spans, want 2", len(filtered))
	}
	for _, sp := range filtered {
		if sp["trace"] != a.String() {
			t.Fatalf("span from wrong trace: %v", sp)
		}
	}
	if filtered[0]["stage"] != "ingest" || filtered[1]["stage"] != "cluster" {
		t.Fatalf("stage order: %v", filtered)
	}

	resp, err = srv.Client().Get(srv.URL + "?trace=zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad trace id returned %d, want 400", resp.StatusCode)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := tr.NewTrace()
				tr.StartSpan(id, "ingest").AttrInt("i", int64(i)).End()
				if i%50 == 0 {
					tr.Spans()
				}
			}
		}()
	}
	wg.Wait()
	if got := tr.Count(); got != 4000 {
		t.Fatalf("Count = %d, want 4000", got)
	}
	if n := len(tr.Spans()); n != 128 {
		t.Fatalf("ring holds %d, want 128", n)
	}
}
