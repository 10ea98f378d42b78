package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/obs"
)

// scrapeMetrics fetches base/metrics and parses the exposition into a
// key → value map (keys carry labels, e.g. `x_total{stage="tailer"}`).
func scrapeMetrics(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	code, _, body := httpGet(t, client, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	}
	vals, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, body)
	}
	return vals
}

// TestTraceFollowsBatchToPlan pins the end-to-end tracing contract: a
// trace id assigned at strace ingestion is retrievable at /debug/traces
// after the plan is built, with ingest, feed, and plan spans joined
// under that id. The gateway roots every request in its own span, so a
// /plan joins the batch's trace by carrying it as traceparent. It also
// smoke-checks that the /metrics exposition on the main listener
// carries the core series the README documents.
func TestTraceFollowsBatchToPlan(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	defer func() { followPoll = oldPoll }()

	dir := t.TempDir()
	path := dir + "/seer.strace"
	appendLine(t, path, "seed line before follow\n")

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.Rumor = true
	h := newTestHost(t, hostConfig{rt: rt})
	defer runTestHost(t, h)()
	base := "http://" + h.addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// One ingestion batch: the tailer hands the lines it read up to an
	// EOF pause to slot 0 as one batch, whose ingest span carries the
	// trace id. (The seed line's batch parses to no events.)
	for i := 0; i < 5; i++ {
		appendLine(t, path, chaosLine(i))
	}
	waitEvents(t, h, 3)
	var tid obs.TraceID
	waitFor(t, "ingestion batch trace id", func() bool {
		for _, sp := range h.tracer.Spans() {
			if sp.Stage == "ingest" && slices.Contains(sp.Attrs, obs.Attr{Key: "source", Value: "local"}) &&
				!slices.Contains(sp.Attrs, obs.Attr{Key: "events", Value: "0"}) {
				tid = sp.Trace
				return true
			}
		}
		return false
	})

	req, err := http.NewRequest("GET", base+"/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	obs.Inject(req.Header, obs.SpanContext{Trace: tid, Span: 1})
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/plan: code=%d", resp.StatusCode)
	}

	// The trace id from ingestion must now resolve at /debug/traces to
	// the full pipeline: ingest (tailer) → feed (correlator) → plan.
	var spans []struct {
		Trace string `json:"trace"`
		Stage string `json:"stage"`
	}
	waitFor(t, "ingest+feed+plan spans under one trace", func() bool {
		_, _, body := httpGet(t, client, base+"/debug/traces?trace="+tid.String())
		if err := json.Unmarshal([]byte(body), &spans); err != nil {
			return false
		}
		stages := map[string]bool{}
		for _, s := range spans {
			if s.Trace != tid.String() {
				t.Fatalf("span of trace %s in filtered response for %s", s.Trace, tid)
			}
			stages[s.Stage] = true
		}
		return stages["ingest"] && stages["feed"] && stages["plan"]
	})

	// Core series present on the main listener (the acceptance check
	// `curl /metrics` automates in CI).
	vals := scrapeMetrics(t, client, base)
	for _, name := range []string{
		"seer_events_ingested_total",
		"seer_cluster_duration_seconds_count",
		"seer_hoard_misses_total",
		"seer_queue_depth",
		"seer_plans_built_total",
		"seer_rumor_files", // replication series via -rumor
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	if got := vals["seer_events_ingested_total"]; got < 3 {
		t.Errorf("seer_events_ingested_total = %v, want >= 3", got)
	}
	var stageSeries int
	for k := range vals {
		if strings.HasPrefix(k, "seer_stage_restarts_total{") {
			stageSeries++
		}
	}
	if stageSeries == 0 {
		t.Error("/metrics has no seer_stage_restarts_total series")
	}
}
