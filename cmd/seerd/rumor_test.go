package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/supervise"
)

// A seerd started with -rumor serves the replication-master protocol on
// its main mux: a RemoteRumor pointed at the daemon must be able to
// run the full hoard workflow — create, fetch, write-through push, and
// a reconnect reconciliation — against it.
func TestPipelineServesRumorEndpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.Rumor = true
	p := newTestHost(t, hostConfig{rt: rt})
	runTestHost(t, p)

	rr := replic.NewRemoteRumor("http://"+p.addr()+"/rumor", nil)
	if p.master.Create(7) != 1 {
		t.Fatal("master create")
	}
	if err := rr.Fetch(7); err != nil {
		t.Fatalf("fetch through seerd: %v", err)
	}
	rr.WriteLocal(7)
	if v, ok := p.master.Version(7); !ok || v != 2 {
		t.Errorf("write-through version = %d/%v, want 2", v, ok)
	}
	rr.SetConnected(false)
	rr.WriteLocal(7)
	rr.WriteLocal(9) // disconnected creation
	if rep := rr.SetConnected(true); rep.Propagated != 2 {
		t.Errorf("reconcile report = %+v, want 2 propagated", rep)
	}
	if v, ok := p.master.Version(9); !ok || v != 1 {
		t.Errorf("disconnected creation version = %d/%v, want 1", v, ok)
	}

	// The hoarding endpoints still answer alongside /rumor/.
	resp, err := http.Get("http://" + p.addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
}

// Without -rumor the endpoints must not exist.
func TestPipelineRumorDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	p := newTestHost(t, hostConfig{rt: rt})
	runTestHost(t, p)
	resp, err := http.Post("http://"+p.addr()+"/rumor/version", "application/x-seer-rumor", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/rumor/version without -rumor = %d, want 404", resp.StatusCode)
	}
}

// -rumor is served under -shards N too: the master mounts once, in the
// process layer every shard count shares.
func TestShardedServesRumorEndpoints(t *testing.T) {
	rt := testRuntime("-")
	rt.Daemon.Shards = 2
	rt.Daemon.ShardDir = t.TempDir()
	rt.Daemon.Rumor = true
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	h := newTestHost(t, hostConfig{rt: rt})
	runTestHost(t, h)
	if h.master.Create(7) != 1 {
		t.Fatal("master create")
	}
	rr := replic.NewRemoteRumor("http://"+h.addr()+"/rumor", nil)
	if err := rr.Fetch(7); err != nil {
		t.Fatalf("fetch through a 2-shard seerd: %v", err)
	}
	resp, err := http.Post("http://"+h.addr()+"/rumor/version", "application/x-seer-rumor", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		t.Errorf("/rumor/version with -shards 2 -rumor = 404, want the master to answer")
	}
}

// The replication master is `seerd -shards 1 -rumor`: /rumor/ sheds past
// admit-rumor-inflight with 429 + the configured Retry-After, /healthz
// reads degraded with the admission probe naming rumor and recovers
// once the shed window passes, a hot reload raises the limit, a listen
// edit is rejected without moving the generation, and /debug/config
// (GET only) lists admit-rumor-inflight.
func TestRumorAdmissionReloadAndDebugConfig(t *testing.T) {
	oldPoll, oldWindow := confPollEvery, admitShedWindow
	confPollEvery, admitShedWindow = 2*time.Millisecond, 300*time.Millisecond
	// Cleanup, not defer: registered before runTestHost's cleanup, so
	// the globals are restored only after the host has stopped.
	t.Cleanup(func() { confPollEvery, admitShedWindow = oldPoll, oldWindow })

	cfgPath := filepath.Join(t.TempDir(), "seerd.conf")
	rt := testRuntime("-")
	rt.Daemon.Shards = 1
	rt.Daemon.Rumor = true
	rt.Admit.RumorMaxInFlight = 1
	rt.Admit.RetryAfterSec = 2
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	h := newTestHost(t, hostConfig{rt: rt, cfgPath: cfgPath})
	runTestHost(t, h)
	base := "http://" + h.addr()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// /debug/config: GET lists the limit; other methods get 405 + Allow.
	code, _, body := httpGet(t, client, base+"/debug/config")
	var dc debugConfigResponse
	if err := json.Unmarshal([]byte(body), &dc); code != http.StatusOK || err != nil {
		t.Fatalf("/debug/config: code=%d err=%v\n%s", code, err, body)
	}
	if dc.Generation != 1 {
		t.Fatalf("startup generation = %d, want 1", dc.Generation)
	}
	if i := slices.IndexFunc(dc.Settings, func(kv config.KV) bool { return kv.Key == "admit-rumor-inflight" }); i < 0 {
		t.Fatal("admit-rumor-inflight missing from /debug/config")
	} else if v := dc.Settings[i].Value; v != "1" {
		t.Fatalf("admit-rumor-inflight = %q, want 1", v)
	}
	resp, err := client.Post(base+"/debug/config", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("POST /debug/config: code=%d allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Saturate the one admission slot with a request whose body never
	// arrives, so the handler blocks in the read.
	pr, pw := io.Pipe()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := client.Post(base+"/rumor/version", "application/x-seer-rumor", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() { pw.Close(); <-slowDone }()
	waitFor(t, "slow request admitted", func() bool { return h.rumorLim.InFlight() == 1 })

	postVersion := func() (int, string) {
		resp, err := client.Post(base+"/rumor/version", "application/x-seer-rumor", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	if code, ra := postVersion(); code != http.StatusTooManyRequests || ra != "2" {
		t.Fatalf("over-limit /rumor/version: code=%d Retry-After=%q, want 429 and 2", code, ra)
	}

	// The shed shows in health, through the admission probe.
	rep := waitHealth(t, client, base, "degraded")
	i := slices.IndexFunc(rep.Probes, func(p supervise.ProbeStatus) bool { return p.Name == "admission" })
	if i < 0 || rep.Probes[i].State != "degraded" || !strings.Contains(rep.Probes[i].Detail, "rumor") {
		t.Fatalf("admission probe does not name the shedding rumor limiter: %+v", rep.Probes)
	}

	// Hot reload raises the limit: the blocked slot no longer starves
	// new requests.
	if err := os.WriteFile(cfgPath, []byte("admit-rumor-inflight 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reload applied", func() bool { return h.store.Generation() == 2 })
	if code, _ := postVersion(); code == http.StatusTooManyRequests {
		t.Fatal("still shedding after the limit was raised")
	}

	// A listen edit is structural: rejected, generation unchanged.
	if err := os.WriteFile(cfgPath, []byte("admit-rumor-inflight 8\nlisten :9999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejected reload recorded", func() bool { return h.store.LastReload().Err != "" })
	if g := h.store.Generation(); g != 2 {
		t.Fatalf("generation = %d after a rejected reload, want 2", g)
	}
	if st := h.store.LastReload(); st.OK || !strings.Contains(st.Err, "listen") {
		t.Fatalf("rejection %+v does not name the structural knob", st)
	}

	// Once the shed window passes, health recovers.
	waitHealth(t, client, base, "healthy")
}
