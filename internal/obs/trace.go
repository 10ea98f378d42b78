package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one traced unit of work — for seerd, one request
// entering the gateway or one batch of strace events from ingestion
// through correlation to the plan built over them. Zero means "no
// trace".
type TraceID uint64

// String renders the id as fixed-width hex, the form logs and the
// /debug/traces query parameter use.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID parses the hex form back into an id. A 32-digit W3C
// trace id (the wire form) is accepted by taking its low 64 bits.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) > 16 {
		s = s[len(s)-16:]
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %v", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within a trace; children reference their
// parent span's id across process boundaries. Zero means "no span".
type SpanID uint64

// String renders the id as fixed-width hex, the traceparent wire form.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// SpanContext is the propagated portion of a span: the trace it
// belongs to and the span's own id, which child spans on either side
// of an HTTP hop record as their parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// TraceparentHeader carries trace context across process boundaries in
// the W3C trace-context form "00-<32 hex trace>-<16 hex span>-01".
// Trace and span ids are 64-bit here, so the trace id is zero-padded
// to 32 hex digits on the wire and the low 64 bits are taken back on
// extraction.
const TraceparentHeader = "traceparent"

// Inject writes sc into h as a traceparent header; an invalid context
// writes nothing.
func Inject(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceparentHeader,
		fmt.Sprintf("00-%032x-%016x-01", uint64(sc.Trace), uint64(sc.Span)))
}

// Extract parses the traceparent header from h; ok reports whether a
// usable context was found.
func Extract(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// ParseTraceparent parses one traceparent value. Unknown versions are
// tolerated (the fields we need sit in the same positions); a zero
// trace id or malformed field rejects the whole header.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(v, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || parts[0] == "ff" ||
		len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	tr, err := strconv.ParseUint(parts[1][16:], 16, 64)
	if err != nil || tr == 0 {
		return SpanContext{}, false
	}
	sp, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	return SpanContext{Trace: TraceID(tr), Span: SpanID(sp)}, true
}

// spanCtxKey keys the SpanContext carried by a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc, for handing trace context
// through call chains that already take a context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context carried by ctx, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Attr is one span attribute (an event count, a cache disposition).
// Values are strings from small sets or rendered numbers — never file
// paths or other unbounded user data.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed stage of a trace. Parent is the id of the span
// that caused this one (zero for roots), possibly recorded by a tracer
// in another process.
type Span struct {
	Trace    TraceID
	ID       SpanID
	Parent   SpanID
	Stage    string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Tracer hands out trace ids and keeps the most recent completed spans
// in a fixed ring buffer, cheap enough to leave on in production and
// inspectable at /debug/traces. All methods are safe for concurrent
// use.
type Tracer struct {
	next     atomic.Uint64
	nextSpan atomic.Uint64
	disabled atomic.Bool

	mu    sync.Mutex
	ring  []Span
	pos   int
	count uint64 // total spans ever recorded
	// pinned refcounts traces exempt from ring eviction (exemplar-
	// referenced traces); bounded by the number of exemplar slots.
	pinned map[TraceID]int
}

// NewTracer returns a tracer remembering the last capacity spans
// (minimum 16). Trace and span ids start from random bases so ids
// minted by different processes (a seerd and its replication master) land in
// disjoint ranges and a propagated id never collides with a local one.
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	t := &Tracer{
		ring:   make([]Span, 0, capacity),
		pinned: make(map[TraceID]int),
	}
	t.next.Store(rand.Uint64())
	t.nextSpan.Store(rand.Uint64())
	return t
}

// NewTrace allocates a fresh trace id (monotonic within the process,
// never zero).
func (t *Tracer) NewTrace() TraceID {
	for {
		if id := TraceID(t.next.Add(1)); id != 0 {
			return id
		}
	}
}

// newSpanID allocates a fresh span id (never zero).
func (t *Tracer) newSpanID() SpanID {
	for {
		if id := SpanID(t.nextSpan.Add(1)); id != 0 {
			return id
		}
	}
}

// SetEnabled turns span recording on or off (on by default). While
// disabled, StartSpan and friends return nil — already a no-op at
// every call site — so the disabled hot path pays one atomic load.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.disabled.Store(!on)
	}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled.Load() }

// Pin exempts a trace's spans from ring eviction (refcounted), so a
// trace referenced by a histogram exemplar stays reconstructable even
// while hotter traces churn the ring. Unpin releases one reference.
func (t *Tracer) Pin(id TraceID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.pinned[id]++
	t.mu.Unlock()
}

// Unpin releases one Pin reference on a trace.
func (t *Tracer) Unpin(id TraceID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if n := t.pinned[id]; n > 1 {
		t.pinned[id] = n - 1
	} else {
		delete(t.pinned, id)
	}
	t.mu.Unlock()
}

// Record stores a completed span in the ring. When full it evicts the
// oldest span of a non-pinned trace, shifting any older pinned spans
// up one slot so ring order stays oldest-first; if every buffered span
// is pinned it falls back to blind eviction rather than dropping the
// new span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	n := len(t.ring)
	evict := 0
	if len(t.pinned) > 0 {
		evict = -1
		for i := 0; i < n; i++ {
			if t.pinned[t.ring[(t.pos+i)%n].Trace] == 0 {
				evict = i
				break
			}
		}
		if evict < 0 {
			evict = 0 // everything pinned: blind eviction
		}
	}
	for i := evict; i > 0; i-- {
		t.ring[(t.pos+i)%n] = t.ring[(t.pos+i-1)%n]
	}
	t.ring[t.pos] = s
	t.pos = (t.pos + 1) % n
}

// Count returns the total number of spans ever recorded (including
// those already evicted from the ring).
func (t *Tracer) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.pos:]...)
	out = append(out, t.ring[:t.pos]...)
	return out
}

// ActiveSpan is an in-progress span; End records it.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	ended atomic.Bool
}

// StartSpan begins a root-less span of the given trace and stage. A
// nil or disabled Tracer, or a zero id, returns a no-op nil span, so
// call sites need no guards.
func (t *Tracer) StartSpan(id TraceID, stage string) *ActiveSpan {
	if t == nil || id == 0 || t.disabled.Load() {
		return nil
	}
	return &ActiveSpan{t: t, span: Span{
		Trace: id, ID: t.newSpanID(), Stage: stage, Start: time.Now()}}
}

// StartChild begins a span of sc's trace parented under sc's span —
// the receiving half of cross-process propagation, and the in-process
// way to nest work under an enclosing span.
func (t *Tracer) StartChild(sc SpanContext, stage string) *ActiveSpan {
	sp := t.StartSpan(sc.Trace, stage)
	if sp != nil {
		sp.span.Parent = sc.Span
	}
	return sp
}

// StartRoot allocates a fresh trace and begins its root span — the
// edge of a distributed trace (gateway request, ingestion batch).
func (t *Tracer) StartRoot(stage string) *ActiveSpan {
	if t == nil || t.disabled.Load() {
		return nil
	}
	return t.StartSpan(t.NewTrace(), stage)
}

// Context returns the span's propagation context (inject it into an
// outbound request, or parent a child under it); zero on a nil span.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.span.Trace, Span: s.span.ID}
}

// Attr adds one attribute; it returns the span for chaining.
func (s *ActiveSpan) Attr(key, value string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
	return s
}

// AttrInt adds one integer attribute.
func (s *ActiveSpan) AttrInt(key string, value int64) *ActiveSpan {
	return s.Attr(key, strconv.FormatInt(value, 10))
}

// End completes the span and records it; safe to call on a nil span and
// idempotent on double End.
func (s *ActiveSpan) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.span.Duration = time.Since(s.span.Start)
	s.t.Record(s.span)
}

// spanJSON is the /debug/traces wire form of one span.
type spanJSON struct {
	Trace      string  `json:"trace"`
	Span       string  `json:"span,omitempty"`
	Parent     string  `json:"parent,omitempty"`
	Stage      string  `json:"stage"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// Handler serves the ring buffer as JSON: spans oldest first.
// ?trace=<hex id> filters to one trace; ?limit=<n> bounds the span
// count (default all buffered).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Spans()
		if q := req.URL.Query().Get("trace"); q != "" {
			id, err := ParseTraceID(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			kept := spans[:0]
			for _, s := range spans {
				if s.Trace == id {
					kept = append(kept, s)
				}
			}
			spans = kept
		}
		if q := req.URL.Query().Get("limit"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(spansJSON(spans))
	})
}

// spansJSON converts spans to the /debug/traces wire form.
func spansJSON(spans []Span) []spanJSON {
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{
			Trace:      s.Trace.String(),
			Stage:      s.Stage,
			Start:      s.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(s.Duration) / float64(time.Millisecond),
			Attrs:      s.Attrs,
		}
		if s.ID != 0 {
			out[i].Span = s.ID.String()
		}
		if s.Parent != 0 {
			out[i].Parent = s.Parent.String()
		}
	}
	return out
}

// WriteJSON dumps the buffered spans (oldest first) in the
// /debug/traces wire form — the flight recorder's trace source.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spansJSON(t.Spans()))
}
