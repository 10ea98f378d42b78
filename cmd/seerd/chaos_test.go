package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
	"github.com/fmg/seer/internal/trace"
)

// chaosLine renders one valid strace openat line with a unique path so
// every append is a distinct learnable event.
func chaosLine(i int) string {
	return fmt.Sprintf(`100  12:00:%02d.%06d openat(AT_FDCWD, "/home/u/proj/f%03d.c", O_RDONLY) = 3`+"\n",
		i/60%60, i%1_000_000, i%500)
}

// appendLine appends s to path.
func appendLine(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// httpGet fetches url, returning status, headers, and body.
func httpGet(t *testing.T, client *http.Client, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, string(body)
}

// healthReport fetches and decodes /healthz.
func healthReport(t *testing.T, client *http.Client, base string) (int, supervise.Report) {
	t.Helper()
	code, _, body := httpGet(t, client, base+"/healthz")
	var rep supervise.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /healthz JSON: %v\n%s", err, body)
	}
	return code, rep
}

// waitHealth polls /healthz until the aggregate state matches.
func waitHealth(t *testing.T, client *http.Client, base, want string) supervise.Report {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var rep supervise.Report
	for time.Now().Before(deadline) {
		_, rep = healthReport(t, client, base)
		if rep.State == want {
			return rep
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health never reached %s; last report: %+v", want, rep)
	return rep
}

// stageState returns the named stage's state from a report.
func stageState(rep supervise.Report, name string) string {
	for _, st := range rep.Stages {
		if st.Name == name {
			return st.State
		}
	}
	return "missing"
}

// probeState returns the named probe's state from a report.
func probeState(rep supervise.Report, name string) string {
	for _, pr := range rep.Probes {
		if pr.Name == name {
			return pr.State
		}
	}
	return "missing"
}

// restarts is every stage restart in h: the process stages plus each
// shard's own tree (folded across drains).
func restarts(h *host) uint64 {
	n := h.sup.Restarts()
	for _, info := range h.mgr.Report() {
		n += info.Restarts
	}
	return n
}

// TestChaosPipeline runs a real supervised seerd while faults are
// injected — feeder panics, tailer panics up to a tripped breaker, a
// stalled tail read, corrupt trace lines, failing checkpoints, and a
// wedged clustering — asserting the daemon answers /plan throughout,
// health transitions track the injected faults (healthy → degraded →
// healthy), recovery lands within the backoff budget, and ≥10 induced
// stage restarts leak no goroutines.
func TestChaosPipeline(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	defer func() { followPoll = oldPoll }()

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	appendLine(t, path, "bootstrap noise before follow\n")

	tailPanic := fault.NewPanicAfter(0) // disarmed
	feedPanic := fault.NewPanicAfter(0)
	var sink fault.Sink
	var stall atomic.Pointer[fault.StallReader]

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.DB = filepath.Join(dir, "seer.db")
	rt.Daemon.QueueCap = 128
	rt.Daemon.QueueBlockMS = 5
	rt.Daemon.GatewayTimeoutMS = 300 // the plan deadline
	h := newTestHost(t, hostConfig{
		rt:              rt,
		checkpointEvery: 20 * time.Millisecond,
		supervisor: supervise.Config{
			Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.1},
			BreakAfter: 6,
			Window:     time.Minute,
			ResetAfter: 50 * time.Millisecond,
		},
	})
	h.wrapTail = func(r io.Reader) io.Reader {
		sr := fault.NewStallReader(&fault.PanicReader{R: r, After: tailPanic})
		stall.Store(sr)
		return sr
	}
	s0 := h.slot0()
	s0.SetFeedHook(func(trace.Event) { feedPanic.Hit() })
	s0.SetSaveWrapper(sink.Do)
	stop := runTestHost(t, h)
	defer stop()

	base := "http://" + h.addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// ---- Phase 0: baseline. Feed a few events, get a fresh plan. ----
	next := 0
	feedN := func(n int) {
		for i := 0; i < n; i++ {
			appendLine(t, path, chaosLine(next))
			next++
		}
	}
	feedN(5)
	waitEvents(t, h, 3)
	if code, hdr, body := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" || body == "" {
		t.Fatalf("baseline /plan: code=%d stale=%q body=%q", code, hdr.Get(shard.StaleHeader), body)
	}
	waitHealth(t, client, base, "healthy")
	client.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baselineGoroutines := runtime.NumGoroutine()

	// ---- Phase 1: feeder panics. Each armed panic kills the feeder
	// mid-event; the supervisor restarts it and ingestion resumes. ----
	for i := 0; i < 5; i++ {
		before := restarts(h)
		feedPanic.Arm(1)
		feedN(1)
		waitFor(t, "feeder restart", func() bool { return restarts(h) > before })
		if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
			t.Fatalf("/plan during feeder chaos: code=%d", code)
		}
	}
	feedPanic.Arm(0)
	feedN(2)
	// 5 baseline + 5 chaos lines (each armed panic loses exactly one
	// in-flight event) + 2 after disarming = at least 7 learned.
	waitEvents(t, h, 7)
	waitHealth(t, client, base, "healthy")

	// ---- Phase 2: corrupt trace lines. Garbage must be skipped, and
	// valid lines behind it still learned. ----
	appendLine(t, path, "!!corrupt!! \x00\x01 not strace at all\n")
	appendLine(t, path, strings.Repeat("z", 2048)+"\n")
	wantEvents := s0.Events
	beforeCorrupt := wantEvents()
	feedN(2)
	waitFor(t, "valid lines after corruption", func() bool { return wantEvents() > beforeCorrupt })

	// ---- Phase 3: stalled tail. A hung read must not stop /plan or
	// health from answering. ----
	if sr := stall.Load(); sr != nil {
		sr.Stall()
		for i := 0; i < 3; i++ {
			if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
				t.Fatalf("/plan during stall: code=%d", code)
			}
		}
		if code, _ := healthReport(t, client, base); code != 200 {
			t.Fatal("/healthz failed during tail stall")
		}
		sr.Release()
	}

	// ---- Phase 4: checkpoint failures. The sink breaks; consecutive
	// failures degrade health via the checkpoint probe; healing it
	// recovers. /plan serves fresh plans the whole time. ----
	sink.Break()
	rep := waitHealth(t, client, base, "degraded")
	if got := probeState(s0.Report(), "checkpoint"); got != "degraded" {
		t.Fatalf("checkpoint probe = %s during sink break; report %+v", got, rep)
	}
	if code, hdr, _ := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" {
		t.Fatalf("/plan during checkpoint faults: code=%d stale=%q", code, hdr.Get(shard.StaleHeader))
	}
	sink.Heal()
	waitHealth(t, client, base, "healthy")

	// ---- Phase 5: tailer panic loop to a tripped breaker. Failures
	// within the window trip the circuit; the stage reports broken and
	// health degrades instead of crash-looping; after ResetAfter with
	// the fault cleared, the stage recovers. ----
	tailPanic.Arm(1)
	armKeeper := make(chan struct{})
	keeperDone := make(chan struct{})
	go func() {
		// Keep re-arming so every restarted tailer panics immediately,
		// until the breaker trips.
		defer close(keeperDone)
		for {
			select {
			case <-armKeeper:
				return
			case <-time.After(time.Millisecond):
				tailPanic.Arm(1)
			}
		}
	}()
	rep = func() supervise.Report {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			_, r := healthReport(t, client, base)
			if stageState(r, "tailer") == "broken" {
				return r
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("tailer breaker never tripped")
		return supervise.Report{}
	}()
	close(armKeeper)
	<-keeperDone // the keeper must be gone before disarming sticks
	tailPanic.Arm(0)
	if rep.State != "degraded" {
		t.Fatalf("health with broken tailer = %s, want degraded", rep.State)
	}
	if code, _, _ := httpGet(t, client, base+"/plan"); code != 200 {
		t.Fatal("/plan refused while tailer broken")
	}
	// Recovery within the backoff budget: ResetAfter (50ms) + one clean
	// run; give it the 10s waitHealth budget at most.
	waitHealth(t, client, base, "healthy")
	beforeRecov := wantEvents()
	feedN(2)
	waitFor(t, "tailing after breaker recovery", func() bool { return wantEvents() > beforeRecov })

	// ---- Phase 6: wedged clustering. Something holds the correlator
	// lock past the plan deadline; /plan falls back to the last-good
	// plan, marked stale, and repeated failures degrade the plan
	// probe. Releasing the wedge restores fresh plans. ----
	release := s0.Hold()
	for i := 0; i < shard.PlanDegradedAfter; i++ {
		code, hdr, body := httpGet(t, client, base+"/plan")
		if code != 200 || hdr.Get(shard.StaleHeader) != "true" || body == "" {
			t.Fatalf("wedged /plan: code=%d stale=%q len=%d", code, hdr.Get(shard.StaleHeader), len(body))
		}
	}
	waitHealth(t, client, base, "degraded")
	if got := probeState(s0.Report(), "plan"); got != "degraded" {
		t.Fatalf("plan probe = %s while wedged", got)
	}
	release()
	if code, hdr, _ := httpGet(t, client, base+"/plan"); code != 200 || hdr.Get(shard.StaleHeader) != "" {
		t.Fatalf("post-wedge /plan: code=%d stale=%q", code, hdr.Get(shard.StaleHeader))
	}
	waitHealth(t, client, base, "healthy")

	// ---- Invariants: enough induced restarts, and no goroutine leak
	// across them. ----
	if got := restarts(h); got < 10 {
		t.Errorf("induced restarts = %d, want >= 10", got)
	}

	// ---- Scrape after chaos: the registry must still render valid
	// Prometheus text, and its func-backed series must agree exactly
	// with the supervisors' and the queue's own state. ----
	vals := scrapeMetrics(t, client, base)
	var restartSum float64
	for k, v := range vals {
		if strings.HasPrefix(k, "seer_stage_restarts_total{") || strings.HasPrefix(k, "seer_shard_restarts_total{") {
			restartSum += v
		}
	}
	if want := float64(restarts(h)); restartSum != want {
		t.Errorf("sum of seer_stage_restarts_total and seer_shard_restarts_total = %v, supervisors say %v", restartSum, want)
	}
	if _, _, drops := s0.QueueStats(); vals["seer_queue_shed_total"] != float64(drops) {
		t.Errorf("seer_queue_shed_total = %v, queue says %v", vals["seer_queue_shed_total"], drops)
	}
	if got, want := vals["seer_events_ingested_total"], float64(wantEvents()); got != want {
		t.Errorf("seer_events_ingested_total = %v, correlator says %v", got, want)
	}
	if got := vals["seer_stale_plans_served_total"]; got < float64(shard.PlanDegradedAfter) {
		t.Errorf("seer_stale_plans_served_total = %v, want >= %d (wedged phase)", got, shard.PlanDegradedAfter)
	}
	if got := vals["seer_health_state"]; got != 0 {
		t.Errorf("seer_health_state = %v after recovery, want 0 (healthy)", got)
	}
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	slack := 8 // http keep-alives and timer goroutines come and go
	for runtime.NumGoroutine() > baselineGoroutines+slack && time.Now().Before(leakDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baselineGoroutines+slack {
		t.Errorf("goroutines grew %d -> %d across %d restarts", baselineGoroutines, now, restarts(h))
	}
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestUnavailableRefusesPlans pins the 503 policy: only Unavailable
// (a broken critical stage) refuses /plan; Degraded keeps serving.
func TestUnavailableRefusesPlans(t *testing.T) {
	// The main listener's port is taken, so the critical http stage
	// fails until its breaker trips.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	rt := testRuntime("-")
	rt.Daemon.Listen = taken.Addr().String()
	h := newTestHost(t, hostConfig{rt: rt, supervisor: supervise.Config{
		Backoff:    supervise.Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond},
		BreakAfter: 2,
		Window:     time.Minute,
	}})
	defer h.mgr.Close()
	seed(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); h.sup.Wait() }()
	h.sup.Start(ctx)
	waitFor(t, "unavailable", func() bool { return h.sup.Health() == supervise.Unavailable })

	mux := h.mainMux()
	for _, path := range []string{"/plan", "/hoard", "/clusters"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s while unavailable: code=%d, want 503", path, rr.Code)
		}
	}
}
