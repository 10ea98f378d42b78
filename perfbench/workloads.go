package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/workload"
)

// Workload shapes. Every workload runs the same phases, so every
// end-to-end metric is measured on each: set-up (restarts that restore
// the users' end-of-trace snapshots, median), then rounds of ingest with
// a hoard fetch at each disconnection followed by fixed-rate open-loop
// reads, and last a rate ladder.
const (
	// batchLines is the POST /events batch size.
	batchLines = 2000
	// lowRate and highRate are the fixed open-loop read rates (req/s).
	lowRate, highRate = 100.0, 200.0
	// fixedSamples is how many requests each fixed rate is offered,
	// over all rounds.
	// Below a thousand, p90 is the highest of the usual percentiles
	// (50, 90, 99) with ten samples beyond it. A p99 over 1000–2000
	// samples proved fragile on a shared two-core host: one 150 ms stall
	// of the machine delays the 15–30 requests due during it, enough to
	// move a p99 tenfold in one run of five.
	fixedSamples = 900
	// tailLimitMS is the p90 latency limit read_max_rps holds.
	tailLimitMS = 20
	// ladderMaxStep bounds the rate ladder at lowRate·1.05^70 ≈ 3043 req/s.
	ladderMaxStep = 70
	// setups is how many times each run restarts the daemon from the
	// users' snapshots.
	setups = 7
	// rounds is how many rounds a run makes, each with its own users
	// against a fresh daemon. The host's speed drifts in bursts of
	// seconds; a median over rounds sets aside a round a burst slowed.
	rounds = 3
	// scanFiles is how many distinct files each scan-ingest crawler opens.
	scanFiles = 750
)

// spec is one workload's inputs.
type spec struct {
	name string
	// users is how many simulated users post events in each ingest
	// round, each to its own shard. User i of a run (i counts across
	// rounds) replays machine G from seed 64·--seed+i, so runs never
	// share a user.
	users  int
	days   int   // each corpus covers this many of machine G's 132 days
	budget int64 // hoard budget, MB
	// crawlFiles > 0 splices a crawler opening that many distinct files
	// into each trace, at the end of the first 2000-line batch after
	// which the plan holds at least crawlAfter files.
	crawlFiles, crawlAfter int
}

// The workloads spread machine G's volume over eight users per round
// with 17-day traces, each on its own shard: per-user quirks of a seed
// (project sizes, which projects a user favours, long disconnections)
// average out over a run's 24 users, so runs with different seeds
// agree. Eight users still give about 100 disconnections a round.
var specs = map[string]spec{
	"live-ingest": {name: "live-ingest", users: 8, days: 17, budget: 512},
	// The crawler comes early (plans reach 200 files within the first
	// days), so most disconnections see its aftermath and ready_*
	// describe that state, not a mix of before and after.
	"scan-ingest": {name: "scan-ingest", users: 8, days: 17, budget: 512, crawlFiles: scanFiles, crawlAfter: 200},
}

// user is one simulated user: a corpus, the shard slot it routes to, and
// the model that says what the daemon must answer it.
type user struct {
	name   string // routing key
	slot   int
	round  int // the ingest round that posts this user
	corpus *Corpus
	// model is kept for a traced run's layer metrics only.
	model *model
	// cps are the checkpoints: one per disconnection, with the bodies
	// the daemon must serve there and the hoard quality they give.
	cps []checkpoint
	// readExp is what reads must be served: the bodies at the
	// end of the corpus.
	readExp expected
}

type checkpoint struct {
	at       int
	exp      expected
	missFree int64
	unhoard  int
	used     int
}

// run is one benchmark run's shared state.
type run struct {
	spec    spec
	seed    int64
	seconds int
	traced  bool
	seerd   string
	dir     string
	users   []*user
	recs    []*recorder
	// overheadPct is what tracing adds to a replay (traced runs only).
	overheadPct float64

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// notes are diagnostics printed beside the result.
	notes map[string]any
}

func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *run) note(k string, v any) {
	r.mu.Lock()
	r.notes[k] = v
	r.mu.Unlock()
}

// snapDir holds the shard snapshots a round's users leave at the end
// of their traces.
func (r *run) snapDir(round int) string {
	return filepath.Join(r.dir, fmt.Sprintf("snap-%d", round))
}

// roundUsers are the users an ingest round posts.
func (r *run) roundUsers(round int) []*user {
	return r.users[round*r.spec.users : (round+1)*r.spec.users]
}

// prepare generates the corpora and replays each through its model,
// recording the expected bodies and hoard quality at every checkpoint
// and leaving each user's end-of-trace snapshot in its round's
// snapshot directory.
func (r *run) prepare(ctx context.Context) error {
	for k := 0; k < rounds; k++ {
		if err := os.MkdirAll(r.snapDir(k), 0o755); err != nil {
			return err
		}
	}
	prof, _ := workload.ProfileByName("G")
	prof = prof.Light(r.spec.days)
	ring := shard.NewRing(r.spec.users, 0)
	var slots []int
	var names []string
	used := map[int]bool{}
	for i := 0; len(names) < r.spec.users; i++ {
		n := fmt.Sprintf("user%d", i)
		if s := ring.Slot(n); !used[s] {
			used[s] = true
			slots, names = append(slots, s), append(names, n)
		}
	}
	r.users = make([]*user, rounds*r.spec.users)
	errs := make([]error, len(r.users))
	// A traced run replays one user at a time: its spans time calls on
	// a goroutine that shares the two cores only with its shard's
	// feeder, not with every other user's replay.
	par := len(r.users)
	if r.traced {
		par = 1
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := range r.users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			k := i % r.spec.users
			u, err := r.prepareUser(ctx, prof, 64*r.seed+int64(i), names[k], slots[k], i/r.spec.users)
			r.users[i], errs[i] = u, err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *run) prepareUser(ctx context.Context, prof workload.Profile, seed int64, name string, slot, round int) (*user, error) {
	c := genCorpus(prof, seed)
	c.Want = nil
	u := &user{name: name, slot: slot, round: round, corpus: c}
	var rec *recorder
	if r.traced {
		rec = newRecorder(time.Now())
		r.mu.Lock()
		r.recs = append(r.recs, rec)
		r.mu.Unlock()
	}
	m := newModel(ctx, slot, r.spec.budget, r.snapDir(round), rec)
	err := r.replayModel(ctx, u, m)
	if cerr := m.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if r.traced {
		u.model = m
	}
	return u, nil
}

// replayModel feeds the user's corpus to its model in POST-sized
// batches and records what the daemon must serve at each disconnection
// and at the end.
func (r *run) replayModel(ctx context.Context, u *user, m *model) error {
	c := u.corpus
	pos := 0
	marked := r.spec.crawlFiles == 0
	// advance feeds the model up to line to, a batch at a time, and
	// splices the crawler in once the plan is long enough. The crawler
	// comes after the disconnections at its line, so it is fed toward to
	// only when that line falls short of to.
	advance := func(to int) error {
		for pos < to {
			n := min(batchLines, to-pos)
			if err := m.feed(ctx, c.Lines[pos:pos+n]); err != nil {
				return err
			}
			pos += n
			if marked {
				continue
			}
			entries, err := m.planLen(ctx)
			if err != nil {
				return err
			}
			if entries < r.spec.crawlAfter {
				continue
			}
			marked = true
			before := len(c.Lines)
			c.spliceCrawler(pos, r.spec.crawlFiles)
			if pos < to {
				to += len(c.Lines) - before
			}
		}
		return nil
	}
	var (
		lastPlan []byte
		err      error
	)
	for i := 0; i < len(c.Discs); i++ {
		if err := advance(c.Discs[i].At); err != nil {
			return err
		}
		d := c.Discs[i] // read after advance: a splice moves it
		cp := checkpoint{at: d.At, used: len(d.Used)}
		if k := len(u.cps) - 1; k >= 0 && u.cps[k].at == d.At && !r.traced {
			// Nothing happened since the last disconnection: the daemon
			// must answer exactly as it did then.
			cp.exp = u.cps[k].exp
		} else if cp.exp, lastPlan, err = m.expect(ctx); err != nil {
			return err
		}
		cp.missFree, cp.unhoard = quality(lastPlan, d.Used)
		u.cps = append(u.cps, cp)
	}
	if err := advance(len(c.Lines)); err != nil {
		return err
	}
	if !marked {
		// A user whose plan never grows that long meets the crawler at
		// the end of its trace.
		c.spliceCrawler(pos, r.spec.crawlFiles)
		if err := advance(len(c.Lines)); err != nil {
			return err
		}
	}
	if u.readExp, _, err = m.expect(ctx); err != nil {
		return err
	}
	return m.serviceProbe(ctx)
}

// e2e holds the end-to-end measurements of one run.
type e2e struct {
	setup []float64 // seconds
	// Per ingest round: events over seconds, the daemon's CPU time per
	// event (µs), the median ready time (ms) and the daemon's peak RSS
	// (MB) when the round's ingest ends.
	ingestEPS, ingestCPU, readyP50, rss []float64
	// readCPUSec is the daemons' CPU time over the fixed-rate reads.
	readCPUSec float64
	ingestEv   int
	ready      []float64 // ms, every round's
	drain      []float64 // ms: last POST reply → all fed, per checkpoint
	low, high  loopResult
	maxRPS     float64
	probes     []loopResult
	queueShed  float64
	// run sums the daemons' /metrics deltas, read those over the
	// fixed-rate reads.
	run, read metrics
}

// daemonArgs is the seerd command line: one shard per user of a round.
func (r *run) daemonArgs(extra ...string) []string {
	return append([]string{"-shards", fmt.Sprint(r.spec.users), "-budget", fmt.Sprint(r.spec.budget)}, extra...)
}

// measure times the set-ups, then runs the rounds, each against a
// fresh daemon: ingest, then the fixed-rate reads. The rate ladder runs
// on the last round's daemon.
func (r *run) measure(ctx context.Context) (*e2e, error) {
	res := &e2e{run: metrics{}, read: metrics{}}
	for i := 0; i < setups; i++ {
		k := i % rounds
		d, ready, err := startDaemon(r.seerd, r.dir, r.daemonArgs("-shard-dir", r.snapDir(k)))
		r.count(err)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, ready.Seconds())
		if i < rounds {
			err = r.checkRestored(ctx, d, r.roundUsers(k))
		}
		d.stop()
		if err != nil {
			return nil, err
		}
	}

	var (
		d      *daemon
		conns  []*conn
		before metrics
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// finish adds the daemon's /metrics delta over its life to the run's
	// and stops it.
	finish := func() error {
		after, err := conns[0].scrape(ctx)
		res.run.add(delta(before, after))
		conns[0].close()
		conns[1].close()
		d.stop()
		d = nil
		return err
	}
	for k := 0; k < rounds; k++ {
		if d != nil {
			if err := finish(); err != nil {
				return nil, err
			}
		}
		var (
			cold time.Duration
			err  error
		)
		d, cold, err = startDaemon(r.seerd, r.dir, r.daemonArgs())
		r.count(err)
		if err != nil {
			return nil, err
		}
		r.note(fmt.Sprintf("cold_start_s_%d", k), cold.Seconds())
		conns = []*conn{newConn(d.base), newConn(d.base)}
		if before, err = conns[0].scrape(ctx); err != nil {
			return nil, err
		}
		users := r.roundUsers(k)
		if err := r.ingestRound(ctx, d, conns, users, res); err != nil {
			return nil, err
		}
		if err := r.fixedReads(ctx, d, conns, users, res); err != nil {
			return nil, err
		}
	}
	r.ladderPhase(ctx, conns, r.roundUsers(rounds-1), res)
	if err := finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// ingestRound posts users' corpora to the fresh daemon d and records
// the round's ingest rate and CPU time, ready times and peak RSS. Queue
// sheds count as a failed operation.
func (r *run) ingestRound(ctx context.Context, d *daemon, conns []*conn, users []*user, res *e2e) error {
	nready := len(res.ready)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := r.replay(ctx, conns, users, res); err != nil {
		return err
	}
	sec := time.Since(t0).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	events := 0
	for _, u := range users {
		events += len(u.corpus.Lines)
	}
	res.ingestEv += events
	res.ingestEPS = append(res.ingestEPS, float64(events)/sec)
	res.ingestCPU = append(res.ingestCPU, (cpu1-cpu0)*1e6/float64(events))
	res.readyP50 = append(res.readyP50, median(res.ready[nready:]))
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	res.rss = append(res.rss, rss)
	shed, err := shardDrops(ctx, conns[0])
	if err != nil {
		return err
	}
	if shed > 0 {
		r.count(fmt.Errorf("the daemon's shard queues shed %.0f events", shed))
	}
	res.queueShed += shed
	return nil
}

// checkRestored asks a daemon restored from users' snapshots for each
// user's /hoard and /plan: both must be the end-of-trace bodies.
func (r *run) checkRestored(ctx context.Context, d *daemon, users []*user) error {
	c := newConn(d.base)
	defer c.close()
	for _, u := range users {
		for _, hoard := range []bool{true, false} {
			path, want := "/plan?user="+u.name, u.readExp.plan
			if hoard {
				path, want = "/hoard?user="+u.name, u.readExp.hoard
			}
			body, err := c.get(ctx, path)
			if err == nil && digest(body, hoard) != want {
				err = fmt.Errorf("restored daemon: %s differs from the reference", path)
			}
			r.count(err)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// warmUp sends one round of the read mix, unmeasured.
func (r *run) warmUp(ctx context.Context, c *conn, ops []readOp) {
	for _, op := range ops {
		_, err := c.get(ctx, op.path)
		r.count(err)
	}
}

// readOps is the read mix over users at the end of their traces.
func readOps(users []*user) []readOp {
	names := make([]string, len(users))
	byName := map[string]*user{}
	for i, u := range users {
		names[i] = u.name
		byName[u.name] = u
	}
	return readMix(names, func(name string, hoard bool) [sha256.Size]byte {
		if hoard {
			return byName[name].readExp.hoard
		}
		return byName[name].readExp.plan
	})
}

// fixedDur is how long one round offers the read mix at rate: each
// rate's fixedSamples requests are split evenly over the rounds.
func fixedDur(rate float64) time.Duration {
	return time.Duration(fixedSamples / rate / rounds * float64(time.Second))
}

// fixedReads offers users' read mix on the round's daemon at the low
// rate, then at the high one. Spread over the rounds, the fixed-rate
// samples see every user's end state, and a slow spell of the host
// lands on both rates' samples instead of on all of one's.
func (r *run) fixedReads(ctx context.Context, d *daemon, conns []*conn, users []*user, res *e2e) error {
	ops := readOps(users)
	r.warmUp(ctx, conns[0], ops)
	before, err := conns[0].scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	res.low.add(openLoop(ctx, conns, ops, lowRate, fixedDur(lowRate)))
	time.Sleep(100 * time.Millisecond)
	res.high.add(openLoop(ctx, conns, ops, highRate, fixedDur(highRate)))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	after, err := conns[0].scrape(ctx)
	if err != nil {
		return err
	}
	res.read.add(delta(before, after))
	res.readCPUSec += cpu1 - cpu0
	return nil
}

// ladderPhase climbs the rate ladder over users' read mix for what is
// left of the run's seconds after the fixed-rate reads, and adds every
// read's outcome to the run's counts.
func (r *run) ladderPhase(ctx context.Context, conns []*conn, users []*user, res *e2e) {
	ops := readOps(users)
	lo := -1
	if res.high.keepsUp(tailLimitMS) {
		lo = stepBelow(lowRate, highRate)
	} else if res.low.keepsUp(tailLimitMS) {
		lo = 0
	}
	// Bisection over the remaining steps takes at most this many probes,
	// plus one or two that confirm a failure.
	probes := 1
	for span := ladderMaxStep - lo; span > 1; span = (span + 1) / 2 {
		probes++
	}
	rest := time.Duration(r.seconds)*time.Second - rounds*(fixedDur(lowRate)+fixedDur(highRate))
	res.maxRPS, res.probes = ladder(ctx, conns, ops, lowRate, lo, ladderMaxStep,
		rest/time.Duration(probes+2), tailLimitMS)
	for _, lr := range append([]loopResult{res.low, res.high}, res.probes...) {
		r.mu.Lock()
		r.attempted += lr.attempted
		r.failed += lr.failed
		for _, e := range lr.errs {
			if len(r.errs) < 8 {
				r.errs = append(r.errs, e)
			}
		}
		if lr.mismatched > 0 && len(r.errs) < 8 {
			r.errs = append(r.errs, fmt.Sprintf("%d read bodies differ from the reference at %.0f req/s", lr.mismatched, lr.rate))
		}
		r.mu.Unlock()
	}
}

// replay posts the users' corpora. Users share the two connections: each
// connection serves its users in turn, one batch at a time. When a
// batch ends at a disconnection, the user waits at once for the queue
// to drain, then fetches /hoard (timed) and /plan, both checked against
// the reference.
func (r *run) replay(ctx context.Context, conns []*conn, users []*user, res *e2e) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		var mine []*userReplay
		for k := i; k < len(users); k += len(conns) {
			u := users[k]
			mine = append(mine, &userReplay{u: u, q: "?user=" + u.name, cps: u.cps})
		}
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for busy := true; busy && errs[i] == nil; {
				busy = false
				for _, ur := range mine {
					if ur.done() {
						continue
					}
					busy = true
					if errs[i] = r.step(ctx, c, ur, res); errs[i] != nil {
						break
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// userReplay is one user's progress through its corpus.
type userReplay struct {
	u      *user
	q      string
	pos    int
	cps    []checkpoint // the checkpoints still ahead, in order
	posted bool         // a batch was posted since the last checkpoint
	last   time.Time    // reply to the last POST
	// finished is set once the last line is posted and fed.
	finished bool
}

func (ur *userReplay) done() bool { return ur.finished }

// step posts the user's next batch, stopping short at its next
// disconnection, and serves that disconnection when the batch reaches
// it.
func (r *run) step(ctx context.Context, c *conn, ur *userReplay, res *e2e) error {
	lines := ur.u.corpus.Lines
	until := len(lines)
	if len(ur.cps) > 0 {
		until = ur.cps[0].at
	}
	if ur.pos < until {
		// Batches end at the disconnection, so the last one before it is
		// a whole batch whenever the user did that much: ready_* then
		// time the same queued work whatever the disconnection schedule.
		n := (until-ur.pos-1)%batchLines + 1
		body := []byte(strings.Join(lines[ur.pos:ur.pos+n], "\n") + "\n")
		reply, err := c.post(ctx, "/events"+ur.q, body)
		if err == nil {
			var got int
			if _, serr := fmt.Sscanf(string(reply), "ingested %d events", &got); serr != nil || got != n {
				err = fmt.Errorf("user %s: daemon took %d of %d lines: %q", ur.u.name, got, n, firstLine(reply))
			}
		}
		r.count(err)
		if err != nil {
			return err
		}
		ur.last, ur.posted = time.Now(), true
		ur.pos += n
		if ur.pos < until {
			// A connection forwards one batch at a time and waits for it
			// to be fed: a forwarder that let the daemon's queue fill
			// would make every disconnection wait for a full queue,
			// however little the user did since the last one.
			return r.waitFed(ctx, c, ur)
		}
	}
	if len(ur.cps) == 0 {
		// The last lines: make sure they are fed before the reads.
		ur.finished = true
		return r.waitFed(ctx, c, ur)
	}
	cp := ur.cps[0]
	ur.cps = ur.cps[1:]
	start := ur.last
	if !ur.posted {
		start = time.Now()
	}
	ur.posted = false
	if err := r.waitFed(ctx, c, ur); err != nil {
		return err
	}
	drained := time.Since(start)
	hb, err := c.get(ctx, "/hoard"+ur.q)
	ready := time.Since(start)
	if err == nil && digest(hb, true) != cp.exp.hoard {
		err = fmt.Errorf("user %s: /hoard at line %d differs from the reference", ur.u.name, cp.at)
	}
	r.count(err)
	pb, perr := c.get(ctx, "/plan"+ur.q)
	if perr == nil && digest(pb, false) != cp.exp.plan {
		perr = fmt.Errorf("user %s: /plan at line %d differs from the reference", ur.u.name, cp.at)
	}
	r.count(perr)
	if err == nil {
		r.mu.Lock()
		res.ready = append(res.ready, ms(ready))
		res.drain = append(res.drain, ms(drained))
		r.mu.Unlock()
	}
	return nil
}

// waitFed polls /stats until the user's shard has fed every line
// posted. A shard that has not within catchUpTimeout has lost events
// (a shed queue never catches up): that is a failed operation.
func (r *run) waitFed(ctx context.Context, c *conn, ur *userReplay) error {
	deadline := time.Now().Add(catchUpTimeout)
	for {
		got, err := c.statsEvents(ctx, ur.q)
		switch {
		case err != nil:
		case got > ur.pos:
			err = fmt.Errorf("user %s: daemon reports %d events, %d posted", ur.u.name, got, ur.pos)
		case got < ur.pos && time.Now().After(deadline):
			err = fmt.Errorf("user %s: daemon fed %d of %d posted events in %v", ur.u.name, got, ur.pos, catchUpTimeout)
		}
		if err != nil {
			r.count(err)
			return err
		}
		if got == ur.pos {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}
