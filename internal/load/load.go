// Package load is SEER's closed-loop load harness: a pool of simulated
// clients fires Poisson-interarrival /miss, /plan, /hoard, and
// rumor-sync traffic at a live seerd (one-shard or sharded gateway,
// serving /rumor/ with -rumor), ramps the offered rate in steps, and
// records per-step throughput, latency quantiles, and error/shed rates. A
// step whose failure rate stays above a threshold for a tolerance
// window marks the system overloaded and stops the ramp (the
// vhive-loader idiom); the measurements then feed a Universal Scaling
// Law fit (usl.go) that predicts the capacity ceiling, and the summary
// is emitted as benchcmp entries so capacity regressions gate CI like
// allocation regressions do.
//
// "Closed loop" is meant per client: each simulated client draws an
// exponential interarrival gap and then issues its request
// synchronously, so a saturated server slows its own offered load the
// way real clients do — measured throughput degrades gracefully
// instead of queueing without bound inside the harness.
package load

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/fmg/seer/internal/obs"
)

// Mix weights the operation types. Zero-valued mixes get DefaultMix;
// Sync weight is ignored unless Options.Rumor is set.
type Mix struct {
	Plan  int `json:"plan"`
	Hoard int `json:"hoard"`
	Miss  int `json:"miss"`
	Sync  int `json:"sync"`
}

// DefaultMix approximates the daemon's real request shape: misses
// dominate (every cache fault reports one), plans and hoards are
// periodic, sync rides along when a replication master is present.
var DefaultMix = Mix{Plan: 2, Hoard: 1, Miss: 5, Sync: 2}

// Options configures one harness run.
type Options struct {
	// Target is the seerd base URL (single-tenant daemon or sharded
	// gateway — every request carries ?user=, which plain seerd
	// ignores and the gateway routes on).
	Target string
	// Rumor is the replication base URL mounting the /rumor/ wire
	// protocol (seerd -rumor). Empty disables sync traffic.
	Rumor string

	// Clients is the number of concurrent simulated clients.
	Clients int
	// Users is the number of distinct user identities spread over the
	// clients (defaults to Clients). Fewer users than clients models
	// several devices per user hitting the same shard.
	Users int
	// Seed makes the whole run reproducible: interarrival gaps, op
	// choices, and paths all derive from it.
	Seed int64
	// Mix weights the op types.
	Mix Mix

	// StartRPS is the offered load of the first step; StepRPS is added
	// for each further step, up to MaxSteps steps of StepDur each.
	StartRPS float64
	StepRPS  float64
	MaxSteps int
	StepDur  time.Duration

	// FailThreshold is the per-step failure-rate (errors + timeouts;
	// 429 sheds count too — shed capacity is capacity the user did not
	// get) above which the step is overloaded. OverloadTolerance is how
	// many consecutive overloaded steps stop the ramp.
	FailThreshold     float64
	OverloadTolerance int

	// Timeout bounds one request; a request exceeding it is a failure.
	Timeout time.Duration

	// SeedEvents, when > 0, posts that many synthetic strace events per
	// user through POST /events before the ramp so plans have something
	// to chew on. Ignored (with a log line) when the target has no
	// /events endpoint — plain seerd learns from its own strace tail.
	SeedEvents int
	// SyncFiles is the size of the replicated-file id space sync ops
	// draw from (created on the master during setup).
	SyncFiles int

	// Logf, when non-nil, receives one line per step (and setup notes).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Clients <= 0 {
		o.Clients = 64
	}
	if o.Users <= 0 {
		o.Users = o.Clients
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix
	}
	if o.StartRPS <= 0 {
		o.StartRPS = 50
	}
	if o.StepRPS <= 0 {
		o.StepRPS = o.StartRPS
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 8
	}
	if o.StepDur <= 0 {
		o.StepDur = 5 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 0.3 // the vhive loader's overload threshold
	}
	if o.OverloadTolerance <= 0 {
		o.OverloadTolerance = 2
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.SyncFiles <= 0 {
		o.SyncFiles = 64
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// StepResult is one load step's measurements.
type StepResult struct {
	// TargetRPS is the offered rate the step aimed for; OfferedRPS is
	// what the closed-loop clients actually issued (they fall behind a
	// saturated server); Throughput is completed-OK per second.
	TargetRPS  float64 `json:"target_rps"`
	OfferedRPS float64 `json:"offered_rps"`
	Throughput float64 `json:"throughput_rps"`

	Sent int64 `json:"sent"`
	OK   int64 `json:"ok"`
	Shed int64 `json:"shed"` // 429 admission sheds
	Fail int64 `json:"fail"` // transport errors, timeouts, non-200/429

	// Latency quantiles over successful requests.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// MeanLatency is the mean successful-request latency; Concurrency
	// is the Little's-law estimate Throughput × MeanLatency — the N
	// axis of the USL fit.
	MeanLatency time.Duration `json:"mean_latency_ns"`
	Concurrency float64       `json:"concurrency"`

	// FailureRate is (Shed+Fail)/Sent; Overloaded marks it above the
	// run's threshold.
	FailureRate float64 `json:"failure_rate"`
	Overloaded  bool    `json:"overloaded"`
}

// Result is a whole ramp.
type Result struct {
	Steps []StepResult `json:"steps"`
	// PeakRPS is the best measured throughput of any step.
	PeakRPS float64 `json:"peak_rps"`
	// PeakStep indexes the step that delivered PeakRPS.
	PeakStep int `json:"peak_step"`
	// Overloaded reports whether the ramp was stopped by the overload
	// detector (as opposed to running out of steps).
	Overloaded bool `json:"overloaded"`
	// Fit is the USL capacity model over the steps; nil when the ramp
	// produced too few usable points to fit.
	Fit *USL `json:"usl,omitempty"`
}

// latencyBuckets spans 100µs to ~2min exponentially — fine enough that
// interpolated p50/p95/p99 are meaningful at interactive latencies.
func latencyBuckets() []float64 {
	var b []float64
	for v := 100e-6; v < 130; v *= 1.25 {
		b = append(b, v)
	}
	return b
}

// stepAcc accumulates one step's measurements across all clients.
type stepAcc struct {
	sent, ok, shed, fail obs.Counter
	hist                 *obs.Histogram
}

func newStepAcc() *stepAcc {
	return &stepAcc{hist: obs.NewHistogram(latencyBuckets())}
}

// outcome classes for one request.
type class uint8

const (
	classOK class = iota
	classShed
	classFail
)

func (a *stepAcc) record(c class, elapsed time.Duration) {
	a.sent.Inc()
	switch c {
	case classOK:
		a.ok.Inc()
		a.hist.Observe(elapsed.Seconds())
	case classShed:
		a.shed.Inc()
	default:
		a.fail.Inc()
	}
}

func (a *stepAcc) result(target float64, elapsed time.Duration) StepResult {
	secs := elapsed.Seconds()
	sr := StepResult{
		TargetRPS: target,
		Sent:      int64(a.sent.Value()),
		OK:        int64(a.ok.Value()),
		Shed:      int64(a.shed.Value()),
		Fail:      int64(a.fail.Value()),
	}
	if secs > 0 {
		sr.OfferedRPS = float64(sr.Sent) / secs
		sr.Throughput = float64(sr.OK) / secs
	}
	if n := a.hist.Count(); n > 0 {
		sr.P50 = time.Duration(a.hist.Quantile(0.50) * float64(time.Second))
		sr.P95 = time.Duration(a.hist.Quantile(0.95) * float64(time.Second))
		sr.P99 = time.Duration(a.hist.Quantile(0.99) * float64(time.Second))
		sr.MeanLatency = time.Duration(a.hist.Sum() / float64(n) * float64(time.Second))
		sr.Concurrency = sr.Throughput * sr.MeanLatency.Seconds()
	}
	if sr.Sent > 0 {
		sr.FailureRate = float64(sr.Shed+sr.Fail) / float64(sr.Sent)
	}
	return sr
}

// Run executes the ramp: steps of rising offered load until MaxSteps
// or the overload detector trips, then the USL fit over the collected
// (concurrency, throughput) points.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Target == "" {
		return nil, fmt.Errorf("load: no target URL")
	}
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.setup(ctx); err != nil {
		return nil, err
	}

	res := &Result{}
	overloaded := 0
	rate := opts.StartRPS
	for step := 0; step < opts.MaxSteps && ctx.Err() == nil; step++ {
		sr := r.runStep(ctx, rate)
		sr.Overloaded = sr.FailureRate > opts.FailThreshold
		res.Steps = append(res.Steps, sr)
		opts.Logf("step %d: target %.0f rps → offered %.0f, done %.0f ok/s, p50 %v p95 %v p99 %v, shed %d, fail %d (failure rate %.2f%s)",
			step, sr.TargetRPS, sr.OfferedRPS, sr.Throughput, sr.P50.Round(time.Microsecond),
			sr.P95.Round(time.Microsecond), sr.P99.Round(time.Microsecond),
			sr.Shed, sr.Fail, sr.FailureRate, map[bool]string{true: ", OVERLOADED"}[sr.Overloaded])
		if sr.Overloaded {
			// Tolerance before declaring overload (transient spikes —
			// a GC pause, one checkpoint — shouldn't end the ramp).
			if overloaded++; overloaded >= opts.OverloadTolerance {
				res.Overloaded = true
				break
			}
		} else {
			overloaded = 0
		}
		rate += opts.StepRPS
	}
	if ctx.Err() != nil && len(res.Steps) == 0 {
		return nil, ctx.Err()
	}

	for i, s := range res.Steps {
		if s.Throughput > res.PeakRPS {
			res.PeakRPS, res.PeakStep = s.Throughput, i
		}
	}
	var ns, xs []float64
	for _, s := range res.Steps {
		if s.Concurrency > 0 && s.Throughput > 0 {
			ns = append(ns, s.Concurrency)
			xs = append(xs, s.Throughput)
		}
	}
	if fit, ferr := FitUSL(ns, xs); ferr == nil {
		res.Fit = &fit
		opts.Logf("usl fit: %s", fit)
	} else {
		opts.Logf("usl fit skipped: %v", ferr)
	}
	return res, nil
}

// runStep drives all clients at the given aggregate offered rate for
// one StepDur and returns the measurements. In-flight requests at the
// step boundary are allowed to finish (bounded by Options.Timeout) and
// count toward the step that issued them.
func (r *runner) runStep(ctx context.Context, rate float64) StepResult {
	acc := newStepAcc()
	sctx, cancel := context.WithTimeout(ctx, r.opts.StepDur)
	defer cancel()
	perClient := rate / float64(len(r.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(ctx, sctx, perClient, acc)
		}(c)
	}
	wg.Wait()
	return acc.result(rate, time.Since(start))
}

// loop issues requests with exponential interarrival gaps at the
// client's share of the offered rate until the step context ends. The
// step context gates only the *schedule*: a request in flight at the
// boundary finishes (bounded by the client timeout) and counts toward
// the step that issued it — cancelling it would fabricate failures the
// server never caused.
func (c *client) loop(runCtx, stepCtx context.Context, rate float64, acc *stepAcc) {
	if rate <= 0 || math.IsInf(rate, 0) {
		return
	}
	mean := 1 / rate
	for {
		gap := time.Duration(c.rng.Exp(mean) * float64(time.Second))
		if !sleepStep(stepCtx, gap) {
			return
		}
		cl, elapsed := c.fire(runCtx)
		acc.record(cl, elapsed)
	}
}

// sleepStep waits d or until the step ends, reporting whether the full
// gap elapsed.
func sleepStep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// transport returns an http.Client sized so every simulated client can
// hold a keep-alive connection (dialing per request would measure the
// kernel's accept queue, not seerd).
func transport(clients int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        clients * 2,
			MaxIdleConnsPerHost: clients * 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// userName is the routing identity of client i.
func userName(i, users int) string {
	return fmt.Sprintf("load-user-%03d", i%users)
}
