package observer

import (
	"sort"

	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/wire"
)

// Save serializes the observer's durable state: reference counts,
// recency, the frequent/always/excluded sets, program histories, and
// the event counters. Per-process state (open files, pending stats,
// reference streams) is deliberately transient — a daemon restart looks
// like a reboot, after which live processes are re-learned, exactly as
// the paper's system behaved across restarts.
func (o *Observer) Save(w *wire.Writer) {
	w.U64(o.stats.Events)
	w.U64(o.stats.References)
	w.U64(o.totalRefs)

	saveIDMapU64 := func(m map[simfs.FileID]uint64) {
		ids := make([]simfs.FileID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Int(len(ids))
		for _, id := range ids {
			w.U64(uint64(id))
			w.U64(m[id])
		}
	}
	saveIDSet := func(m map[simfs.FileID]bool) {
		ids := make([]simfs.FileID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Int(len(ids))
		for _, id := range ids {
			w.U64(uint64(id))
		}
	}
	saveIDMapU64(o.refCounts)
	saveIDMapU64(o.lastRef)
	saveIDSet(o.frequent)
	saveIDSet(o.always)
	saveIDSet(o.excluded)

	progs := make([]string, 0, len(o.hist))
	for p := range o.hist {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	w.Int(len(progs))
	for _, p := range progs {
		h := o.hist[p]
		w.Str(p)
		w.F64(h.learned)
		w.F64(h.touched)
		w.Int(h.runs)
	}

	dirs := make([]string, 0, len(o.churn))
	for d := range o.churn {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	w.Int(len(dirs))
	for _, d := range dirs {
		c := o.churn[d]
		w.Str(d)
		w.U64(c.creates)
		w.U64(c.deletes)
	}
}

// Load restores state saved with Save into a freshly constructed
// Observer (same params, control and fs as at save time). Each map is
// replaced by one sized from its saved count, capped by the bytes left
// in r.
func (o *Observer) Load(r *wire.Reader) error {
	o.stats.Events = r.U64()
	o.stats.References = r.U64()
	o.totalRefs = r.U64()

	// Size hints: every saved element takes at least a byte per field.
	loadIDMapU64 := func() map[simfs.FileID]uint64 {
		n := r.Int()
		m := make(map[simfs.FileID]uint64, r.SizeHint(n, 2))
		for i := 0; i < n && r.Err() == nil; i++ {
			id := simfs.FileID(r.U64())
			m[id] = r.U64()
		}
		return m
	}
	loadIDSet := func() map[simfs.FileID]bool {
		n := r.Int()
		m := make(map[simfs.FileID]bool, r.SizeHint(n, 1))
		for i := 0; i < n && r.Err() == nil; i++ {
			m[simfs.FileID(r.U64())] = true
		}
		return m
	}
	o.refCounts = loadIDMapU64()
	o.lastRef = loadIDMapU64()
	o.frequent = loadIDSet()
	o.always = loadIDSet()
	o.excluded = loadIDSet()

	n := r.Int()
	o.hist = make(map[string]*progHistory, r.SizeHint(n, 4))
	for i := 0; i < n && r.Err() == nil; i++ {
		p := r.Str()
		h := &progHistory{
			learned: r.F64(),
			touched: r.F64(),
			runs:    r.Int(),
		}
		o.hist[p] = h
	}

	nd := r.Int()
	o.churn = make(map[string]*dirChurn, r.SizeHint(nd, 3))
	for i := 0; i < nd && r.Err() == nil; i++ {
		d := r.Str()
		o.churn[d] = &dirChurn{creates: r.U64(), deletes: r.U64()}
	}
	return r.Err()
}
