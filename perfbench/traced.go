package main

import (
	"context"
	"encoding/json"
	"strings"
	"time"
)

// overheadLines is the corpus prefix replayed with and without spans
// to measure what tracing costs the replay.
const overheadLines = 60000

// layerMetrics assembles the per-layer metrics of a traced run from the
// recorded spans, the models' own counters, the daemon's /metrics
// deltas and the client-side queue waits.
func (r *run) layerMetrics(m *e2e) map[string]metric {
	var ls layerStats
	keep := func(name int) bool { return name != spParseLine && name != spFeed && name != spObserve }
	for _, rec := range r.recs {
		rec.stats(&ls, keep)
	}
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	per := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	put("strace.ns_per_line", "ns", per(ls.selfNS[spParseLine], ls.n[spParseLine]))
	put("strace.events_per_line", "events/line", per(int64(ls.n[spFeed]), ls.n[spParseLine]))
	put("observer.ns_per_event", "ns", per(ls.selfNS[spObserve], ls.n[spObserve]))
	put("semdist.ns_per_event", "ns", per(ls.selfNS[spFeed]-ls.selfNS[spObserve], ls.n[spFeed]))

	var tblFiles, fullLists, fsFiles, hits, misses, full, inc, fallbacks, entries, bodyBytes int
	for _, u := range r.users {
		c := u.model.lib.corr
		tbl := c.Table()
		files := tbl.Files()
		tblFiles += len(files)
		for _, id := range files {
			if len(tbl.NeighborEntries(id)) >= c.Params().NeighborTableSize {
				fullLists++
			}
		}
		fsFiles += c.FS().Len()
		h, ms := c.CacheStats()
		hits, misses = hits+int(h), misses+int(ms)
		f, i, fb := c.RebuildStats()
		full, inc, fallbacks = full+int(f), inc+int(i), fallbacks+int(fb)
		entries += u.readExp.entries
		bodyBytes += u.readExp.bytes
	}
	put("semdist.files", "files", float64(tblFiles))
	put("semdist.full_list_pct", "%", pct(fullLists, tblFiles))
	put("simfs.files", "files", float64(fsFiles))
	put("cluster.calls", "count", float64(ls.n[spClusters]))
	put("cluster.cache_hit_pct", "%", pct(hits, hits+misses))
	put("cluster.full", "count", float64(full))
	put("cluster.patch", "count", float64(inc))
	put("cluster.fallbacks", "count", float64(fallbacks))

	var fullMS, patchMS, patchFiles []float64
	var render []float64
	for _, rec := range r.recs {
		var kids []int32
		flush := func() {
			// A checkpoint's children, in order: ClustersContext,
			// PlanFrom and Fill for /hoard, ClustersContext and PlanFrom
			// for /plan, then the shard's Hoard and Plan. The shard call's
			// self time is its duration less the same work measured on
			// the twin correlator.
			if len(kids) != 7 {
				kids = kids[:0]
				return
			}
			d := func(i int) float64 {
				s := rec.spans[kids[i]]
				return float64(s.end-s.start) / 1e6
			}
			render = append(render,
				max(0, d(5)-d(0)-d(1)-d(2)),
				max(0, d(6)-d(3)-d(4)))
			kids = kids[:0]
		}
		for i, s := range rec.spans {
			switch {
			case s.name == spCheckpoint:
				flush()
			case s.parent >= 0 && rec.spans[s.parent].name == spCheckpoint:
				kids = append(kids, int32(i))
			}
			if s.name != spClusters {
				continue
			}
			dur := float64(s.end-s.start) / 1e6
			switch {
			case s.attr < 0:
				fullMS = append(fullMS, dur)
			case s.attr > 0:
				patchMS = append(patchMS, dur)
				patchFiles = append(patchFiles, float64(s.attr-1))
			}
		}
		flush()
	}
	put("cluster.full_ms_p50", "ms", median(fullMS))
	put("cluster.patch_ms_p50", "ms", median(patchMS))
	put("cluster.patch_files_p50", "files", median(patchFiles))
	put("core.planfrom_ms_p50", "ms", median(ls.selfMS[spPlanFrom]))
	put("plan.entries", "entries", float64(entries))
	_, unh := r.quality()
	put("hoard.unhoardable_pct", "%", unh)
	put("hoard.fill_ms_p50", "ms", median(ls.selfMS[spFill]))
	put("render.ms_p50", "ms", median(render))
	put("render.bytes", "bytes", float64(bodyBytes))

	put("queue.lag_ms_p50", "ms", median(m.drain))
	put("queue.lag_ms_p90", "ms", quantile(m.drain, 0.9))
	put("queue.shed", "count", m.queueShed)
	run := m.run
	put("admit.shed", "count", run.sum("seer_admit_shed_total"))

	// Server time over the fixed-rate reads, less the in-process
	// service time of the same requests at the same state, is lock wait,
	// HTTP and the gateway hop.
	srv, reqs := m.read.histP50("seer_gateway_request_seconds", func(labels string) bool {
		return strings.Contains(labels, `endpoint="plan"`) || strings.Contains(labels, `endpoint="hoard"`)
	})
	var service []float64
	for _, u := range r.users {
		service = append(service, u.model.service...)
	}
	put("server.ms_p50", "ms", srv*1000)
	put("service.ms_p50", "ms", median(service))
	put("wait.ms_p50", "ms", max(0, srv*1000-median(service)))
	put("server.requests", "count", reqs)
	put("metrics.cluster_rebuilds_full", "count", run.sum("seer_cluster_rebuilds_total", `kind="full"`))
	put("metrics.cluster_rebuilds_incremental", "count", run.sum("seer_cluster_rebuilds_total", `kind="incremental"`))
	put("metrics.cluster_cache_hits", "count", run.sum("seer_cluster_cache_hits_total"))
	put("metrics.cluster_cache_misses", "count", run.sum("seer_cluster_cache_misses_total"))
	put("metrics.stale_served", "count", run.sum("seer_stale_plans_served_total"))

	put("trace.overhead_pct", "%", r.overheadPct)
	return out
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// tracingOverhead replays a corpus prefix through an untraced and a
// traced library (spans and twin observer, no shard) and returns how much
// longer the traced replay took, in percent. Each side runs three times
// and keeps its fastest.
func (r *run) tracingOverhead() float64 {
	lines := r.users[0].corpus.Lines
	lines = lines[:min(len(lines), overheadLines)]
	timeOne := func(traced bool) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			var rec *recorder
			if traced {
				rec = newRecorder(time.Now())
			}
			l := newLibrary(1, r.spec.budget<<20, rec)
			t0 := time.Now()
			for _, line := range lines {
				l.step(line, -1)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	plain := timeOne(false)
	traced := timeOne(true)
	return 100 * float64(traced-plain) / float64(plain)
}

// shardDrops sums the shards' queue sheds from /shards.
func shardDrops(ctx context.Context, c *conn) (float64, error) {
	body, err := c.get(ctx, "/shards")
	if err != nil {
		return 0, err
	}
	var rep struct {
		Shards []struct {
			Drops uint64 `json:"queue_drops"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range rep.Shards {
		n += s.Drops
	}
	return float64(n), nil
}
