package main

import (
	"context"
	"crypto/sha256"
	"math"
	"sync"
	"time"
)

// readOp is one kind of read request: a path and, when the body is to
// be checked, the digest it must have.
type readOp struct {
	path  string
	hoard bool
	want  [sha256.Size]byte
}

// readMix is the request sequence an open loop cycles through: /plan
// and /hoard at 2:1, one triple per user in turn.
func readMix(users []string, want func(user string, hoard bool) [sha256.Size]byte) []readOp {
	var ops []readOp
	for _, u := range users {
		q := "?user=" + u
		ops = append(ops,
			readOp{"/plan" + q, false, want(u, false)},
			readOp{"/hoard" + q, true, want(u, true)},
			readOp{"/plan" + q, false, want(u, false)})
	}
	return ops
}

// loopResult is what one open-loop phase measured.
type loopResult struct {
	rate float64
	// lat is each successful request's time from its due instant to its
	// last body byte, in ms.
	lat []float64
	// lag is how late each request started against its schedule (a
	// free connection and the generator both have to be ready), in ms,
	// in schedule order.
	lag        []float64
	attempted  int
	failed     int
	mismatched int
	errs       []string
}

// checkEvery sets the fixed sample of bodies an open loop checks: every
// checkEvery-th request.
const checkEvery = 7

// openLoop offers ops at rate for dur over conns: request i is due at
// start + i/rate whatever happened to earlier ones, and waits for a
// free connection when all are busy. A request that fails, is shed,
// comes back stale or times out counts as failed; every checkEvery-th
// body is compared with its reference digest.
func openLoop(ctx context.Context, conns []*conn, ops []readOp, rate float64, dur time.Duration) loopResult {
	n := int(math.Round(rate * dur.Seconds()))
	res := loopResult{rate: rate, attempted: n, lat: make([]float64, 0, n), lag: make([]float64, n)}
	type job struct {
		i   int
		due time.Time
	}
	// The buffer holds the whole phase, so the generator never blocks
	// on busy connections: a backlog shows up as lag, not as a late
	// schedule.
	jobs := make(chan job, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range jobs {
				began := time.Now()
				op := ops[j.i%len(ops)]
				rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				body, err := c.get(rctx, op.path)
				cancel()
				done := time.Now()
				mu.Lock()
				res.lag[j.i] = ms(began.Sub(j.due))
				switch {
				case err != nil:
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				case j.i%checkEvery == 0 && digest(body, op.hoard) != op.want:
					res.failed++
					res.mismatched++
				default:
					res.lat = append(res.lat, ms(done.Sub(j.due)))
				}
				mu.Unlock()
			}
		}(c)
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return res
}

// add pools another round at the same rate into r.
func (r *loopResult) add(o loopResult) {
	r.rate = o.rate
	r.lat = append(r.lat, o.lat...)
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatched += o.mismatched
	r.errs = append(r.errs, o.errs...)
}

// p90 is the 90th percentile of the successful latencies, or ok=false
// when fewer than ten samples lie beyond it.
func (r loopResult) p90() (float64, bool) {
	if float64(len(r.lat))*0.1 < 10 {
		return 0, false
	}
	return quantile(r.lat, 0.9), true
}

// keepsUp reports whether the phase met the ladder's three conditions:
// p90 within limitMS, no failures, and start lag not growing (the last
// quarter's median lag within a millisecond of the first quarter's).
func (r loopResult) keepsUp(limitMS float64) bool {
	if r.failed > 0 || len(r.lat) == 0 {
		return false
	}
	if quantile(r.lat, 0.9) > limitMS {
		return false
	}
	q := len(r.lag) / 4
	if q == 0 {
		return true
	}
	return median(r.lag[len(r.lag)-q:]) <= median(r.lag[:q])+1
}

// ladder finds the highest rate base·1.05^k (k ≤ maxStep) that keeps up,
// by bisection between a step known to keep up (lo, or -1 for none) and
// maxStep+1. Each probe runs for probe; a step fails only when a second
// probe confirms it, so one noisy second cannot cut the search short.
// It returns the rate (0 when no step keeps up) and every probe's
// result.
func ladder(ctx context.Context, conns []*conn, ops []readOp, base float64, lo, maxStep int,
	probe time.Duration, limitMS float64) (float64, []loopResult) {
	rate := func(k int) float64 { return base * math.Pow(1.05, float64(k)) }
	hi := maxStep + 1
	var probes []loopResult
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		// Let the previous probe's backlog drain first.
		time.Sleep(200 * time.Millisecond)
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			r := openLoop(ctx, conns, ops, rate(mid), probe)
			probes = append(probes, r)
			ok = r.keepsUp(limitMS)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, probes
	}
	return rate(lo), probes
}

// stepBelow returns the highest ladder step whose rate is at most r.
func stepBelow(base, r float64) int {
	return int(math.Floor(math.Log(r/base)/math.Log(1.05) + 1e-9))
}
