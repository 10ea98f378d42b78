package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/supervise"
)

// The SLO acceptance chain, end to end on a real sharded host: an
// upstream failure burns the rumor-sync error budget, the fast-window
// burn rate crosses the page threshold, the slo health probe degrades
// the daemon — on both listeners' /healthz — and the breach hook
// auto-captures a flight bundle with spans and profiles in it, all
// without a single sleep-based window (the monitor is ticked directly).
func TestSLOBreachDegradesHealthAndCapturesFlight(t *testing.T) {
	dir := t.TempDir()
	rt := config.DefaultRuntime()
	rt.Daemon.Shards = 2
	rt.Daemon.Listen = "127.0.0.1:0"
	rt.Daemon.ShardDir = filepath.Join(dir, "shards")
	// A port nothing listens on: every sync round trip fails fast.
	rt.Daemon.RumorURL = "http://127.0.0.1:1/rumor"
	rt.Daemon.FlightDir = filepath.Join(dir, "flight")

	h := newTestHost(t, hostConfig{rt: rt})
	defer h.mgr.Close()
	if h.flight == nil {
		t.Fatal("flight recorder not built despite -flight-dir")
	}
	h.flight.CPUProfile = 50 * time.Millisecond // keep the capture fast

	// Baseline sample, then burn: every sync errors, so 100% of the
	// rumor-sync events are bad — far over any sane threshold.
	h.slo.Tick()
	for i := 0; i < 5; i++ {
		if err := h.rumor.Fetch(simfs.FileID(i + 1)); err == nil {
			t.Fatal("Fetch against a dead master unexpectedly succeeded")
		}
	}
	h.slo.Tick()

	br := h.slo.Breached()
	if len(br) != 1 || br[0] != "rumor-sync" {
		t.Fatalf("Breached() = %v, want [rumor-sync]", br)
	}
	fast, _ := h.slo.Windows()
	if burn := h.slo.Burn("rumor-sync", fast); burn < h.slo.Threshold() {
		t.Fatalf("fast burn %.1f under threshold %.1f after total failure",
			burn, h.slo.Threshold())
	}

	// The burn is a live series on the pipeline's registry.
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `seer_slo_burn_rate{slo="rumor-sync",window="fast"}`) {
		t.Fatalf("seer_slo_burn_rate{slo=rumor-sync} missing from /metrics:\n%s", buf.String())
	}

	// The slo probe flips aggregate health to degraded, naming the
	// objective in the health document.
	if h := h.sup.Health(); h != supervise.Degraded {
		t.Fatalf("health = %v after breach, want degraded", h)
	}
	found := false
	for _, p := range h.sup.Report().Probes {
		if p.Name == "slo" && strings.Contains(p.Detail, "rumor-sync") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo probe naming rumor-sync in %+v", h.sup.Report().Probes)
	}
	for name, mux := range map[string]*http.ServeMux{"main": h.mainMux(), "debug": h.debugMux()} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		var rep supervise.Report
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil || rep.State != "degraded" {
			t.Fatalf("%s listener /healthz = %q (err %v), want degraded:\n%s", name, rep.State, err, rr.Body)
		}
	}

	// The breach auto-captured a flight bundle: reason names the SLO,
	// and the bundle carries spans, metrics, config, shard states, the
	// goroutine dump, and the CPU profile.
	bundle := h.flight.Last()
	if bundle == "" {
		t.Fatal("no flight bundle captured on breach")
	}
	reason, err := os.ReadFile(filepath.Join(bundle, "reason.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "slo-breach:rumor-sync") {
		t.Fatalf("bundle reason %q does not name the breached SLO", reason)
	}
	for _, name := range []string{
		"traces.json", "metrics.prom", "config.txt", "shards.json",
		"goroutines.txt", "cpu.pprof",
	} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", name)
		}
	}

	// A second breach inside the debounce window must not capture again.
	if dir, err := h.flight.TryCapture("again"); err != nil || dir != "" {
		t.Fatalf("TryCapture inside MinInterval = (%q, %v), want debounced no-op", dir, err)
	}
}

// A plan served from the stale cache is a bad event for the plan and
// hoard objectives even though the client got a 200: the fresh path
// missed its deadline.
func TestStaleServesBurnPlanBudget(t *testing.T) {
	rt := testRuntime("-")
	h := newTestHost(t, hostConfig{rt: rt})
	defer h.mgr.Close()
	seed(t, h)
	mux := h.mainMux()
	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	if rr := get("/plan"); rr.Code != http.StatusOK {
		t.Fatalf("priming /plan: %d", rr.Code)
	}
	h.slo.Tick()
	release := h.slot0().Hold()
	for i := 0; i < 5; i++ {
		if rr := get("/plan?timeout_ms=20"); rr.Code != http.StatusOK || rr.Header().Get(shard.StaleHeader) != "true" {
			t.Fatalf("wedged /plan: %d stale=%q", rr.Code, rr.Header().Get(shard.StaleHeader))
		}
	}
	release()
	h.slo.Tick()
	if br := h.slo.Breached(); len(br) == 0 || br[0] != "plan" {
		t.Fatalf("Breached() = %v after stale serves, want plan first", br)
	}
}
