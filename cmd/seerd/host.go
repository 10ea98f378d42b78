package main

// seerd has one serving path: N fault-isolated user shards
// (internal/shard) behind the consistent-hash gateway. Each shard owns
// a supervised pipeline — bounded queue, correlator with its warm
// cluster cache, admission limiter, snapshot path — so one tenant's
// panic, wedge, or corrupt database never stalls the neighbors. A plain
// seerd (-shards 0) is the one-slot deployment of the same runtime: its
// local strace input feeds slot 0, -db is slot 0's snapshot, and every
// request, with or without ?user=, lands there. The process layer
// around the shards serves /metrics, /debug/config with hot reloads
// (SIGHUP or poll), /debug/traces, /debug/slo, /healthz + /readyz, the
// /shards view and POST /shards/drain, and with -rumor the replication
// master under /rumor/.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/fmg/seer/internal/admit"
	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/obs/slo"
	"github.com/fmg/seer/internal/replic"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
)

// logger is the process logger; main() applies -log-level/-log-format
// to it, and every component derives a tagged child from it.
var logger = obs.NewLogger(nil)

// checkpointEvery is the default shard checkpoint interval.
const checkpointEvery = 5 * time.Minute

// host is the supervised runtime of seerd: the shard manager and
// gateway, plus the process-level stages — HTTP listeners, config
// watcher, SLO monitor and, for a one-shard deployment following a
// local trace, the strace tailer. The shards supervise themselves;
// this tree owns only the process stages.
type host struct {
	mgr *shard.Manager
	gw  *shard.Gateway
	sup *supervise.Supervisor

	reg    *obs.Registry
	tracer *obs.Tracer
	// rumor is the upstream replication client (-rumor-url); master and
	// rumorLim serve the replication master under /rumor/ (-rumor).
	rumor    *replic.RemoteRumor
	master   *replic.Master
	rumorLim *admit.Limiter
	slo      *slo.Monitor
	flight   *obs.FlightRecorder

	store   *config.Store
	base    config.Runtime
	cfgPath string
	watcher *supervise.Watcher

	mReloadApplied  *obs.Counter
	mReloadRejected *obs.Counter

	// follow says the tailer continues slot 0's local input after
	// bootstrap: the file in, handed over up to inOff. wrapTail, when
	// set, decorates the tailer's file reader (the chaos tests'
	// fault-injection point).
	follow   bool
	in       *os.File
	inOff    int64
	wrapTail func(io.Reader) io.Reader

	mu            sync.Mutex
	httpAddr      net.Addr
	debugHTTPAddr net.Addr
}

// hostConfig wires a host.
type hostConfig struct {
	// rt is the active runtime; base is the flag-derived one a reload
	// re-parses the config file over. cfgPath/cfgData are the watched
	// file and its startup contents (cfgPath "" = no watcher stage).
	rt, base config.Runtime
	cfgPath  string
	cfgData  []byte
	// checkpointEvery is the shard snapshot interval (0 = default);
	// supervisor tunes the process and shard supervision trees.
	checkpointEvery time.Duration
	supervisor      supervise.Config
}

// newHost opens the shards (one slot when rt.Daemon.Shards is 0) and
// builds the gateway and process stage tree; start launches the stages.
func newHost(ctx context.Context, hc hostConfig) *host {
	rt := hc.rt
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	tracer.SetEnabled(rt.Daemon.Tracing)
	h := &host{
		reg:     reg,
		tracer:  tracer,
		store:   config.NewStore(rt),
		base:    hc.base,
		cfgPath: hc.cfgPath,
	}
	if rt.Daemon.RumorURL != "" {
		h.rumor = replic.NewRemoteRumor(rt.Daemon.RumorURL, nil).
			InstrumentOn(reg).TraceOn(tracer)
	}
	if hc.checkpointEvery <= 0 {
		hc.checkpointEvery = checkpointEvery
	}
	h.mgr = shard.NewManager(ctx, shard.ManagerConfig{
		Shards:          max(rt.Daemon.Shards, 1),
		Dir:             rt.Daemon.ShardDir,
		DB:              rt.Daemon.DB,
		Runtime:         rt,
		Seed:            1,
		Metrics:         reg,
		Tracer:          tracer,
		Logger:          logger,
		Supervisor:      hc.supervisor,
		CheckpointEvery: hc.checkpointEvery,
		Rumor:           h.rumor,
	})
	h.gw = shard.NewGateway(h.mgr, shard.PolicyFromRuntime(rt))
	if rt.Daemon.Rumor {
		h.master = replic.NewMasterOn(reg)
		h.rumorLim = admit.New("rumor", reg, nil)
		h.rumorLim.SetLimits(rumorLimits(rt))
	}
	h.buildFlight(rt)
	h.buildSLO(rt)

	sc := hc.supervisor
	slog := logger.With("component", "supervise")
	sc.OnEvent = func(e supervise.Event) {
		if e.Err != nil {
			slog.Error("stage failure", "stage", e.Stage, "kind", e.Kind,
				"err", firstLine(e.Err.Error()))
		}
	}
	h.sup = supervise.New(sc)
	var stages []string
	addStage := func(name string, fn supervise.StageFunc, opts ...supervise.StageOption) {
		h.sup.Add(name, fn, opts...)
		stages = append(stages, name)
	}
	addStage("http", h.serverStage(rt.Daemon.Listen, h.mainMux(), &h.httpAddr),
		supervise.Critical())
	if rt.Daemon.DebugAddr != "" {
		addStage("debug", h.serverStage(rt.Daemon.DebugAddr, h.debugMux(), &h.debugHTTPAddr))
	}
	// Validate admits follow only with a strace file, listen and shards 0.
	h.follow = rt.Daemon.Follow
	if h.follow {
		addStage("tailer", h.tailStage)
	}
	if hc.cfgPath != "" {
		h.watcher = supervise.NewWatcher(hc.cfgPath, confPollEvery, h.applyConfig)
		h.watcher.MarkApplied(hc.cfgData)
		addStage("confwatch", h.watcher.Stage())
	}
	addStage("slo", func(ctx context.Context) error {
		h.slo.Run(ctx)
		return nil
	})
	h.addProbes()
	h.registerMetrics(stages)
	return h
}

// rumorLimits is the /rumor/ admission policy of rt.
func rumorLimits(rt config.Runtime) admit.Limits {
	return admit.Limits{
		MaxInFlight: rt.Admit.RumorMaxInFlight,
		MaxLatency:  time.Duration(rt.Admit.MaxLatencyMS) * time.Millisecond,
		RetryAfter:  time.Duration(rt.Admit.RetryAfterSec) * time.Second,
	}
}

// addProbes derives the process health from the shards, the SLO
// monitor, admission shedding, and the ingestion queues.
func (h *host) addProbes() {
	h.sup.AddProbe("shards", func() supervise.Probe {
		detail := make([]string, 0, h.mgr.Len())
		for _, info := range h.mgr.Report() {
			detail = append(detail, fmt.Sprintf("%d:%s/%s", info.Shard, info.State, info.Health))
		}
		return supervise.Probe{State: h.mgr.Health(), Detail: strings.Join(detail, " ")}
	})
	h.sup.AddProbe("slo", func() supervise.Probe {
		if br := h.slo.Breached(); len(br) > 0 {
			return supervise.Probe{State: supervise.Degraded,
				Detail: "error budget burning: " + strings.Join(br, " ")}
		}
		return supervise.Probe{State: supervise.Healthy}
	})
	h.sup.AddProbe("admission", func() supervise.Probe {
		var names []string
		for _, s := range h.mgr.Shards() {
			if l := s.Limiter(); l.ShedRecently(admitShedWindow) {
				names = append(names, l.Name())
			}
		}
		if h.rumorLim != nil && h.rumorLim.ShedRecently(admitShedWindow) {
			names = append(names, h.rumorLim.Name())
		}
		if len(names) > 0 {
			return supervise.Probe{State: supervise.Degraded,
				Detail: "shedding on " + strings.Join(names, ",")}
		}
		return supervise.Probe{State: supervise.Healthy, Detail: "no recent shedding"}
	})
	h.sup.AddProbe("queue", func() supervise.Probe {
		st := supervise.Healthy
		var depth, capacity int
		var drops uint64
		for _, s := range h.mgr.Shards() {
			d, c, dr := s.QueueStats()
			if d*10 >= c*9 {
				st = supervise.Degraded
			}
			depth, capacity, drops = depth+d, capacity+c, drops+dr
		}
		return supervise.Probe{State: st,
			Detail: fmt.Sprintf("depth=%d/%d drops=%d", depth, capacity, drops)}
	})
}

// registerMetrics publishes the process-level series: per-stage
// restarts, config reloads and generation, and the aggregate health.
func (h *host) registerMetrics(stages []string) {
	restarts := h.reg.CounterFuncVec("seer_stage_restarts_total",
		"Process stage restarts performed by the supervisor.", "stage")
	for _, name := range stages {
		name := name
		restarts.Register(func() float64 {
			return float64(h.sup.StageRestarts()[name])
		}, name)
	}
	reloads := h.reg.CounterVec("seer_config_reloads_total",
		"Config hot-reload attempts by result.", "result")
	h.mReloadApplied = reloads.With("applied")
	h.mReloadRejected = reloads.With("rejected")
	h.reg.GaugeFunc("seer_config_generation",
		"Active config generation (1 = the startup configuration).",
		func() float64 { return float64(h.store.Generation()) })
	h.reg.GaugeFunc("seer_health_state",
		"Aggregate process health (0 healthy, 1 degraded, 2 unavailable).",
		func() float64 { return float64(h.sup.Health()) })
}

// SLO shape: the latency above which a request is "bad" for its
// objective, and the promised good fraction. Vars so the chaos suite
// can tighten them without waiting out production windows.
var (
	sloPlanLatency  = 500 * time.Millisecond
	sloRumorLatency = 250 * time.Millisecond
	sloTarget       = 0.99
)

// buildFlight wires the flight recorder (nil when flight-dir is unset):
// bundles carry the span ring, a metrics snapshot, the active config
// generation, and the shard states, plus the goroutine dump and CPU
// profile the recorder itself contributes.
func (h *host) buildFlight(rt config.Runtime) {
	if rt.Daemon.FlightDir == "" {
		return
	}
	fr := obs.NewFlightRecorder(rt.Daemon.FlightDir)
	if rt.Daemon.FlightMinIntervalSec > 0 {
		fr.MinInterval = time.Duration(rt.Daemon.FlightMinIntervalSec) * time.Second
	}
	fr.AddSource("traces.json", h.tracer.WriteJSON)
	fr.AddSource("metrics.prom", h.reg.WritePrometheus)
	fr.AddSource("config.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# generation %d\n", h.store.Generation())
		for _, kv := range config.Describe(*h.store.Get()) {
			fmt.Fprintf(w, "%s %s\n", kv.Key, kv.Value)
		}
		return nil
	})
	fr.AddSource("shards.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(h.mgr.Report())
	})
	h.flight = fr
}

// buildSLO assembles the burn-rate monitor over the gateway's request
// instruments (plus the rumor client's, when configured) and hooks a
// breach to an automatic flight capture. A plan or hoard answered from
// the stale cache is a bad event too: the fresh path failed, so it
// burns budget even though the client got bytes. The stale counter is
// shared across plan and hoard, so a burn on one conservatively shows
// on both.
func (h *host) buildSLO(rt config.Runtime) {
	cfg := slo.Config{
		FastWindow: time.Duration(rt.Daemon.SLOFastWindowSec) * time.Second,
		SlowWindow: time.Duration(rt.Daemon.SLOSlowWindowSec) * time.Second,
		Threshold:  float64(rt.Daemon.SLOBurnThreshold),
	}
	if h.flight != nil {
		cfg.OnBreach = func(name string, fast, slow float64) {
			dir, err := h.flight.TryCapture(fmt.Sprintf(
				"slo-breach:%s fast=%.1f slow=%.1f", name, fast, slow))
			if err == nil && dir != "" {
				logger.Warn("SLO breach; flight bundle captured",
					"slo", name, "burn_fast", fmt.Sprintf("%.1f", fast), "bundle", dir)
			}
		}
	}
	mon := slo.New(cfg)
	// The shards register this counter; asking the registry by name
	// returns the same instance.
	stale := h.reg.Counter("seer_stale_plans_served_total",
		"Plan/hoard responses served from the last-good cache.")
	for _, ep := range []string{"plan", "hoard"} {
		ep := ep
		mon.Add(slo.LatencyObjective(ep, h.gw.RequestHist(ep),
			sloPlanLatency.Seconds(), sloTarget,
			func() uint64 { return h.gw.RouteErrors(ep) + stale.Value() }))
	}
	if h.rumor != nil {
		mon.Add(slo.LatencyObjective("rumor-sync", h.rumor.RTTHist(),
			sloRumorLatency.Seconds(), sloTarget, h.rumor.ErrorCount))
	}
	mon.InstrumentOn(h.reg)
	h.slo = mon
}

// handleDebugSLO serves the burn-rate view seerctl slo renders.
func (h *host) handleDebugSLO(w http.ResponseWriter, req *http.Request) {
	fast, slow := h.slo.Windows()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Threshold     float64               `json:"threshold"`
		FastWindowSec float64               `json:"fast_window_sec"`
		SlowWindowSec float64               `json:"slow_window_sec"`
		Objectives    []slo.ObjectiveStatus `json:"objectives"`
	}{h.slo.Threshold(), fast.Seconds(), slow.Seconds(), h.slo.Status()})
}

// obsEndpoints mounts the observability surface shared by both
// listeners — never behind routing or admission, since an overloaded
// host must stay inspectable.
func (h *host) obsEndpoints(mux *http.ServeMux) {
	mux.Handle("/metrics", h.reg.Handler())
	mux.Handle("/debug/traces", h.tracer.Handler())
	mux.HandleFunc("/debug/config", h.handleDebugConfig)
	mux.HandleFunc("/debug/slo", h.handleDebugSLO)
	if h.flight != nil {
		mux.Handle("/debug/flight", h.flight.Handler())
	}
	mux.HandleFunc("/healthz", h.sup.HealthHandler(false))
	mux.HandleFunc("/readyz", h.sup.HealthHandler(true))
}

// mainMux is the gateway surface, the replication master when -rumor
// is set, and the observability endpoints.
func (h *host) mainMux() *http.ServeMux {
	mux := http.NewServeMux()
	gw := h.gw.Handler()
	mux.Handle("/", gw)
	// Only Unavailable refuses the plan reads; Degraded keeps serving,
	// possibly from the stale cache.
	for _, path := range []string{"/plan", "/hoard", "/clusters"} {
		mux.Handle(path, h.refuseUnavailable(gw))
	}
	if h.master != nil {
		mux.Handle("/rumor/", h.rumorLim.Wrap(replic.TracedMasterHandler("/rumor", h.master, h.tracer)))
	}
	h.obsEndpoints(mux)
	return mux
}

// refuseUnavailable answers 503 while the process is unavailable (a
// critical stage broken, or every shard down) and passes through
// otherwise.
func (h *host) refuseUnavailable(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if h.sup.Health() == supervise.Unavailable {
			http.Error(w, "daemon unavailable", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, req)
	})
}

// debugMux serves pprof, the /shards view, and the same observability
// surface. The pprof handlers are registered explicitly on a private
// mux; nothing is served from the default mux.
func (h *host) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/shards", h.gw.Handler())
	h.obsEndpoints(mux)
	return mux
}

// serverStage returns a stage running an HTTP server on addr: listen,
// serve until ctx ends, then shut down gracefully (draining in-flight
// requests). A listener or serve error restarts the stage under the
// supervisor's backoff instead of killing the process.
func (h *host) serverStage(addr string, mux *http.ServeMux, out *net.Addr) supervise.StageFunc {
	return func(ctx context.Context) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		h.mu.Lock()
		*out = ln.Addr()
		h.mu.Unlock()
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		select {
		case <-ctx.Done():
			shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(shCtx)
			<-errc
			return nil
		case err := <-errc:
			return err
		}
	}
}

// addr returns the bound main listener address ("" before it is up).
func (h *host) addr() string { return h.boundAddr(&h.httpAddr) }

// debugAddr returns the bound debug listener address.
func (h *host) debugAddr() string { return h.boundAddr(&h.debugHTTPAddr) }

func (h *host) boundAddr(a *net.Addr) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if *a == nil {
		return ""
	}
	return (*a).String()
}

// firstLine truncates s at its first newline (panic errors carry full
// stack traces).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
