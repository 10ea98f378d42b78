package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
)

// admitShedWindow is how long after the last shed the admission probe
// reports degraded (a variable so tests can shorten it).
var admitShedWindow = 15 * time.Second

// confPollEvery is the config-file poll interval (a variable so tests
// can tighten it).
var confPollEvery = time.Second

// applyConfig is the hot-reload path: parse data over the flag-derived
// base runtime (so removing a file line reverts that setting to its
// flag value), validate the result as a whole, refuse structural
// changes, then swap the store and push every hot setting into the live
// components. Shards get it through ApplyRuntime, which reaches only
// shards in the serving state, so a SIGHUP landing mid-drain can
// neither resurrect the draining shard nor retune a closed one (its
// replacement opens with the new runtime instead). A rejected reload
// leaves the active config serving untouched; both outcomes are counted
// and recorded for /debug/config.
func (h *host) applyConfig(data []byte) error {
	next := h.base
	err := func() error {
		if err := config.ApplyFile(&next, bytes.NewReader(data)); err != nil {
			return err
		}
		if err := next.Validate(); err != nil {
			return err
		}
		if diffs := config.StructuralDiff(*h.store.Get(), next); len(diffs) > 0 {
			return fmt.Errorf("structural settings cannot change on a live reload: %s",
				strings.Join(diffs, ", "))
		}
		return nil
	}()
	if err != nil {
		h.store.RecordReload(err)
		h.mReloadRejected.Inc()
		logger.Warn("config reload rejected; active config unchanged",
			"component", "confwatch", "err", err)
		return err
	}
	old := *h.store.Get()
	changed := config.Changed(old, next)
	gen := h.store.Swap(next)
	if lv, lerr := obs.ParseLevel(next.Daemon.LogLevel); lerr == nil {
		logger.SetLevel(lv)
	}
	logger.SetJSON(next.Daemon.LogFormat == "json")
	h.tracer.SetEnabled(next.Daemon.Tracing)
	h.gw.SetPolicy(shard.PolicyFromRuntime(next))
	if h.rumorLim != nil {
		h.rumorLim.SetLimits(rumorLimits(next))
	}
	skipped := h.mgr.ApplyRuntime(next)
	h.store.RecordReload(nil)
	h.mReloadApplied.Inc()
	logger.Info("config reloaded", "component", "confwatch",
		"generation", gen, "changed", strings.Join(changed, " "),
		"shards_skipped", fmt.Sprint(skipped))
	return nil
}

// kickReload forces an immediate config-file check (SIGHUP); a no-op
// without a watched file.
func (h *host) kickReload() {
	if h.watcher != nil {
		h.watcher.Kick()
	}
}

// debugConfigResponse is the /debug/config body.
type debugConfigResponse struct {
	Generation uint64               `json:"generation"`
	ConfigFile string               `json:"config_file,omitempty"`
	Settings   []config.KV          `json:"settings"`
	LastReload *config.ReloadStatus `json:"last_reload,omitempty"`
}

// handleDebugConfig serves the active (redacted) configuration and the
// outcome of the last reload attempt. GET only; other methods get 405
// with Allow, matching the other endpoints.
func (h *host) handleDebugConfig(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed; use GET", http.StatusMethodNotAllowed)
		return
	}
	resp := debugConfigResponse{
		Generation: h.store.Generation(),
		ConfigFile: h.cfgPath,
		Settings:   config.Describe(*h.store.Get()),
	}
	if st := h.store.LastReload(); !st.At.IsZero() {
		resp.LastReload = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
