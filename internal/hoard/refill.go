package hoard

import "github.com/fmg/seer/internal/simfs"

// Refiller implements automated periodic hoard filling (paper §2: the
// requirement to announce disconnections "can be eliminated by
// automated periodic hoard filling if desired").
//
// Naive refilling thrashes: cluster priorities shuffle as activity
// moves, and a strict refill would evict files fetched minutes ago only
// to re-fetch them at the next shift. The Refiller therefore applies
// dwell damping: a file fetched within the last MinDwell fills cannot
// be evicted, at the cost of transiently exceeding the budget by the
// protected bytes.
type Refiller struct {
	// Budget is the hoard size in bytes.
	Budget int64
	// WholeClusters selects cluster-atomic filling (paper §2).
	WholeClusters bool
	// MinDwell is the number of fills a newly fetched file is protected
	// from eviction. 0 disables damping.
	MinDwell int

	fills     int
	fetchedAt map[simfs.FileID]int
	current   map[simfs.FileID]*simfs.File
}

// NewRefiller returns a Refiller with the given budget.
func NewRefiller(budget int64, wholeClusters bool, minDwell int) *Refiller {
	return &Refiller{
		Budget:        budget,
		WholeClusters: wholeClusters,
		MinDwell:      minDwell,
		fetchedAt:     make(map[simfs.FileID]int),
		current:       make(map[simfs.FileID]*simfs.File),
	}
}

// Has reports whether the file is currently hoarded.
func (r *Refiller) Has(id simfs.FileID) bool {
	_, ok := r.current[id]
	return ok
}

// UsedBytes returns the bytes currently hoarded (may transiently exceed
// the budget by protected files).
func (r *Refiller) UsedBytes() int64 {
	var used int64
	for _, f := range r.current {
		used += f.Size
	}
	return used
}

// Len returns the number of hoarded files.
func (r *Refiller) Len() int { return len(r.current) }

// Refill recomputes hoard contents from the plan and returns the
// transport instructions. Files fetched within MinDwell previous fills
// are retained even when the new plan would evict them.
func (r *Refiller) Refill(plan *Plan) (fetch, evict []simfs.FileID) {
	r.fills++
	next := plan.Fill(r.Budget, r.WholeClusters)
	for _, id := range next.IDs() {
		if _, ok := r.current[id]; !ok {
			fetch = append(fetch, id)
			r.fetchedAt[id] = r.fills
		}
	}
	for id, f := range r.current {
		if next.Has(id) {
			continue
		}
		if f.Exists && r.fills-r.fetchedAt[id] < r.MinDwell {
			continue // dwell protection: too fresh to evict
		}
		evict = append(evict, id)
	}
	// Apply.
	for _, id := range evict {
		delete(r.current, id)
		delete(r.fetchedAt, id)
	}
	for _, e := range plan.Entries {
		if next.Has(e.File.ID) {
			r.current[e.File.ID] = e.File
		}
	}
	return fetch, evict
}
