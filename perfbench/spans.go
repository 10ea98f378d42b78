package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// Span names: one per layer call the traced run wraps.
const (
	spParseLine  = iota // strace.Parser.ParseLine
	spFeed              // core.Correlator.Feed
	spObserve           // observer.Observer.Observe on the twin observer
	spClusters          // core.Correlator.ClustersContext
	spPlanFrom          // core.Correlator.PlanFrom
	spFill              // hoard.Plan.Fill
	spShardPlan         // shard.Shard.Plan on the in-process shard
	spShardHoard        // shard.Shard.Hoard on the in-process shard
	spBatch             // one 2000-line batch (parent of its line spans)
	spCheckpoint        // one disconnection (parent of its plan spans)
	spNames
)

var spanNames = [spNames]string{
	"strace.Parser.ParseLine", "core.Correlator.Feed", "observer.Observer.Observe",
	"core.Correlator.ClustersContext", "core.Correlator.PlanFrom", "hoard.Plan.Fill",
	"shard.Shard.Plan", "shard.Shard.Hoard", "batch", "checkpoint",
}

// span is one recorded call. Times are nanoseconds since the
// recorder's origin; parent is an index into the same recorder, or -1.
type span struct {
	name       uint8
	parent     int32
	start, end int64
	// attr says what a ClustersContext call did: 0 a cache hit, -1 a
	// full rebuild, n > 0 an incremental patch of n-1 pending changes.
	attr int32
}

// recorder keeps spans in memory for one replay (one goroutine); the
// run writes them all out when it ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, spans: make([]span, 0, 1<<20)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) begin(name int, parent int32) int32 {
	r.spans = append(r.spans, span{name: uint8(name), parent: parent, start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = r.now() }

// layerStats sums the recorded spans by name: count, total self time
// (duration minus the part its children cover; children never overlap
// here) and every span's self time in ms for medians.
type layerStats struct {
	n      [spNames]int
	selfNS [spNames]int64
	selfMS [spNames][]float64
}

func (r *recorder) stats(into *layerStats, keepMS func(name int) bool) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		self := s.end - s.start - child[i]
		into.n[s.name]++
		into.selfNS[s.name] += self
		if keepMS(int(s.name)) {
			into.selfMS[s.name] = append(into.selfMS[s.name], float64(self)/1e6)
		}
	}
}

// writeSpans writes the spans to path as gzipped tab-separated lines:
// replay, id, parent, name, start ns, end ns.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "replay\tid\tparent\tname\tstart_ns\tend_ns")
	for ri, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ri, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
