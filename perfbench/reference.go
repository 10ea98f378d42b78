package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/hoard"
	"github.com/fmg/seer/internal/observer"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/strace"
)

// catchUpTimeout bounds every wait for an in-process shard to feed what
// it was given; a shard that falls that far behind has lost events.
const catchUpTimeout = 30 * time.Second

// model says what the daemon must answer one user. It is an in-process
// shard.Shard with the daemon's slot, seed (1+slot), parameters, budget
// and queue: fed the same batches, its Plan and Hoard render the bodies
// the daemon must serve. Closed, it leaves its snapshot in the run's
// snapshot directory, which the set-up daemons restore.
//
// A traced model also replays every line through lib, the library twin
// of the shard's pipeline, with a span around every call into a layer.
type model struct {
	sh  *shard.Shard
	fed int
	lib *library
	// checkpoint is the open checkpoint span, the parent of plan spans.
	checkpoint int32
	// service holds in-process Shard.Plan/Hoard times (ms) in the read
	// mix at the end of the trace, the state the daemon serves reads from.
	service []float64
}

// library is the shard pipeline's layers called one by one: the
// strace parser, the correlator, and a twin observer over its own file
// table, fed the same events, so its Observe cost is the observation
// part of Feed. Each call gets a span when rec is set.
type library struct {
	parser *strace.Parser
	corr   *core.Correlator
	budget int64
	rec    *recorder
	twin   *observer.Observer
}

func newLibrary(seed, budget int64, rec *recorder) *library {
	rt := config.DefaultRuntime()
	l := &library{
		parser: strace.NewParser(),
		corr:   core.New(core.Options{Seed: seed, Params: &rt.Params}),
		budget: budget,
		rec:    rec,
	}
	if rec != nil {
		l.twin = observer.New(rt.Params, config.DefaultControl(), simfs.New(stats.NewRand(seed)), nil)
	}
	return l
}

// newModel opens the in-process shard for slot, checkpointing into
// snapDir; rec != nil makes it a traced model.
func newModel(ctx context.Context, slot int, budgetMB int64, snapDir string, rec *recorder) *model {
	rt := config.DefaultRuntime()
	seed := 1 + int64(slot)
	m := &model{checkpoint: -1}
	m.sh = shard.Open(ctx, shard.Config{
		ID: slot, Dir: snapDir, Seed: seed, Params: rt.Params, BudgetBytes: budgetMB << 20,
		QueueCap: rt.Daemon.QueueCap, QueueBlock: time.Duration(rt.Daemon.QueueBlockMS) * time.Millisecond,
		CheckpointEvery: time.Hour,
	})
	if rec != nil {
		m.lib = newLibrary(seed, budgetMB<<20, rec)
	}
	return m
}

// close drains the shard, writing its final snapshot.
func (m *model) close() error { return m.sh.Close() }

// feed gives the model one batch, as one POST /events carries it.
func (m *model) feed(ctx context.Context, lines []string) error {
	if l := m.lib; l != nil {
		b := l.rec.begin(spBatch, -1)
		for _, line := range lines {
			l.step(line, b)
		}
		l.rec.end(b)
	}
	// Keep the shard's queue short so it never sheds: the shard feeds on
	// its own goroutine, beside this replay.
	if err := m.catchUp(4096); err != nil {
		return err
	}
	n, err := m.sh.IngestLines(ctx, lines)
	if err == nil && n != len(lines) {
		err = fmt.Errorf("in-process shard took %d of %d lines", n, len(lines))
	}
	m.fed += n
	return err
}

// catchUp waits until the shard has fed all but lag of the events it
// was given.
func (m *model) catchUp(lag int) error {
	deadline := time.Now().Add(catchUpTimeout)
	for int(m.sh.Events())+lag < m.fed {
		if _, _, drops := m.sh.QueueStats(); drops > 0 {
			return fmt.Errorf("in-process shard shed %d events", drops)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process shard fed %d of %d events in %v", m.sh.Events(), m.fed, catchUpTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// step parses and feeds one line, each call in a span under parent;
// the twin observer sees the event too. Untraced (rec nil), it only
// parses and feeds.
func (l *library) step(line string, parent int32) {
	r := l.rec
	if r == nil {
		if ev, ok := l.parser.ParseLine(line); ok {
			l.corr.Feed(ev)
		}
		return
	}
	s := r.begin(spParseLine, parent)
	ev, ok := l.parser.ParseLine(line)
	r.end(s)
	if !ok {
		return
	}
	s = r.begin(spObserve, parent)
	l.twin.Observe(ev)
	r.end(s)
	s = r.begin(spFeed, parent)
	l.corr.Feed(ev)
	r.end(s)
}

// plan is Correlator.PlanContext split into its two public halves, each
// in a span under parent.
func (l *library) plan(parent int32) (*hoard.Plan, error) {
	full0, inc0, _ := l.corr.RebuildStats()
	pending := l.corr.PendingChanges()
	s := l.rec.begin(spClusters, parent)
	res, err := l.corr.ClustersContext(context.Background())
	l.rec.end(s)
	if err != nil {
		return nil, err
	}
	full1, inc1, _ := l.corr.RebuildStats()
	switch {
	case full1 > full0:
		l.rec.spans[s].attr = -1
	case inc1 > inc0:
		l.rec.spans[s].attr = int32(pending) + 1
	}
	s = l.rec.begin(spPlanFrom, parent)
	p := l.corr.PlanFrom(res)
	l.rec.end(s)
	return p, nil
}

// serve times one disconnection's work on the library, in the order a
// disconnecting client causes it: /hoard (plan and Fill), then /plan.
func (l *library) serve(parent int32) error {
	p, err := l.plan(parent)
	if err != nil {
		return err
	}
	s := l.rec.begin(spFill, parent)
	p.Fill(l.budget, l.corr.Params().SkipUnfittingClusters)
	l.rec.end(s)
	_, err = l.plan(parent)
	return err
}

// planLen is how many files the shard's plan holds once it has fed
// everything.
func (m *model) planLen(ctx context.Context) (int, error) {
	if err := m.catchUp(0); err != nil {
		return 0, err
	}
	body, _, err := m.sh.Plan(ctx)
	return bytes.Count(body, []byte{'\n'}), err
}

// digest is what a served body is checked by: its SHA-256, except that
// /hoard lists its files in map order (hoard.Contents.IDs is unordered),
// so a hoard body's file lines are sorted first; its "#" header lines
// keep their place and must match exactly.
func digest(body []byte, hoard bool) [sha256.Size]byte {
	if !hoard {
		return sha256.Sum256(body)
	}
	lines := strings.SplitAfter(string(body), "\n")
	n := 0
	for n < len(lines) && strings.HasPrefix(lines[n], "#") {
		n++
	}
	sort.Strings(lines[n:])
	return sha256.Sum256([]byte(strings.Join(lines, "")))
}

// expected is what the daemon must serve at one point of a replay.
type expected struct {
	plan, hoard [sha256.Size]byte
	// entries is the plan's length and bytes the two bodies' total size.
	entries, bytes int
}

// expect waits for the shard to feed everything, then asks it for both
// bodies in the order a disconnecting client asks for them. It returns
// their digests and the /plan body. A traced model first does the same
// work on the library, then times the shard's calls.
func (m *model) expect(ctx context.Context) (expected, []byte, error) {
	var e expected
	if err := m.catchUp(0); err != nil {
		return e, nil, err
	}
	if l := m.lib; l != nil {
		m.checkpoint = l.rec.begin(spCheckpoint, -1)
		defer func() {
			l.rec.end(m.checkpoint)
			m.checkpoint = -1
		}()
		if err := l.serve(m.checkpoint); err != nil {
			return e, nil, err
		}
	}
	hb, err := m.shardCall(ctx, true)
	if err != nil {
		return e, nil, err
	}
	e.hoard, e.bytes = digest(hb, true), len(hb)
	pb, err := m.shardCall(ctx, false)
	if err != nil {
		return e, nil, err
	}
	e.plan, e.entries, e.bytes = digest(pb, false), bytes.Count(pb, []byte{'\n'}), e.bytes+len(pb)
	return e, pb, nil
}

// shardCall asks the shard for its /hoard or /plan body, in a span when
// traced, and refuses a stale one.
func (m *model) shardCall(ctx context.Context, hoard bool) ([]byte, error) {
	name, call := spShardPlan, m.sh.Plan
	if hoard {
		name, call = spShardHoard, m.sh.Hoard
	}
	s := int32(-1)
	if m.lib != nil {
		s = m.lib.rec.begin(name, m.checkpoint)
	}
	body, stale, err := call(ctx)
	if s >= 0 {
		m.lib.rec.end(s)
	}
	if err == nil && stale {
		err = errors.New("in-process shard served a stale body")
	}
	return body, err
}

// serviceProbe times the shard's Plan and Hoard in the read mix, a few
// rounds, at the current state (the one reads are served from), for a
// traced run.
func (m *model) serviceProbe(ctx context.Context) error {
	if m.lib == nil {
		return nil
	}
	for i := 0; i < 10; i++ {
		for _, hoard := range []bool{false, true, false} {
			t0 := time.Now()
			var err error
			if hoard {
				_, _, err = m.sh.Hoard(ctx)
			} else {
				_, _, err = m.sh.Plan(ctx)
			}
			if err != nil {
				return err
			}
			m.service = append(m.service, ms(time.Since(t0)))
		}
	}
	return nil
}

// quality is the paper §5.2.1 measure of one disconnection against the
// /plan body served when it began: the miss-free hoard size (the
// largest cumulative size among the planned files the disconnection
// uses) and how many of the used files the plan does not hold at all.
func quality(planBody []byte, used []string) (missFree int64, unhoardable int) {
	cum := make(map[string]int64, bytes.Count(planBody, []byte{'\n'}))
	sc := bufio.NewScanner(bytes.NewReader(planBody))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		// "%5d %8s %10d %12d %s": rank, reason, size, cumulative size, path.
		rest := sc.Text()
		var f [4]string
		for i := range f {
			f[i], rest, _ = strings.Cut(strings.TrimLeft(rest, " "), " ")
		}
		c, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil || rest == "" {
			continue
		}
		cum[rest] = c
	}
	for _, path := range used {
		c, ok := cum[path]
		if !ok {
			unhoardable++
			continue
		}
		missFree = max(missFree, c)
	}
	return missFree, unhoardable
}
