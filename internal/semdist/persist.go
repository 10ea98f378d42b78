package semdist

import (
	"fmt"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// Save serializes the relationship tables.
func (t *Table) Save(w *wire.Writer) {
	w.U64(t.opens)
	files := t.Files()
	w.Int(len(files))
	for _, id := range files {
		e := t.entryOf(id)
		t.cleanForgotten(e)
		w.U64(uint64(id))
		w.Int(len(e.neighbors))
		for i := range e.neighbors {
			nb := &e.neighbors[i]
			w.U64(uint64(nb.ID))
			w.F64(nb.sumLog)
			w.I64(nb.count)
			w.U64(nb.lastUpdate)
		}
	}
	w.Int(len(t.deleteQueue))
	for _, id := range t.deleteQueue {
		w.U64(uint64(id))
	}
	w.Int(len(t.forgotten))
	for id := range t.forgotten {
		w.U64(uint64(id))
	}
}

const (
	// minEntryBytes and minNeighborBytes are the least a saved entry
	// header (id, count) and a saved neighbor take: one byte per field.
	minEntryBytes    = 2
	minNeighborBytes = 4
	// slabNeighbors is how many neighbors one restore slab holds.
	slabNeighbors = 4096
)

// LoadTable reconstructs a table saved with Save. The tables are sized
// from the saved file count, and the neighbor lists cut from shared
// slabs, each capped by the bytes left in r.
func LoadTable(r *wire.Reader, p config.Params, rng *stats.Rand) (*Table, error) {
	t := NewTable(p, rng)
	t.opens = r.U64()
	nf := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nf < 0 {
		return nil, fmt.Errorf("semdist: negative file count %d", nf)
	}
	hint := r.SizeHint(nf, minEntryBytes)
	t.idx = make(map[simfs.FileID]int32, hint)
	t.entries = make([]entry, 0, hint)
	t.pending = make([]simfs.FileID, 0, hint)
	t.pendingSeen = make(map[simfs.FileID]bool, hint)
	var slab []Neighbor
	for i := 0; i < nf; i++ {
		id := simfs.FileID(r.U64())
		nn := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nn < 0 || nn > 1<<20 {
			return nil, fmt.Errorf("semdist: implausible neighbor count %d", nn)
		}
		ei := t.addEntry(id)
		if cap(slab)-len(slab) < nn {
			slab = make([]Neighbor, 0, r.SizeHint(max(nn, slabNeighbors), minNeighborBytes))
		}
		// The list's capacity ends where it does, so a later insert
		// reallocates it instead of writing over the next list.
		end := len(slab) + min(nn, cap(slab)-len(slab))
		neighbors := slab[len(slab):len(slab):end]
		slab = slab[:end]
		for j := 0; j < nn && r.Err() == nil; j++ {
			neighbors = append(neighbors, Neighbor{
				ID:         simfs.FileID(r.U64()),
				sumLog:     r.F64(),
				count:      r.I64(),
				lastUpdate: r.U64(),
			})
		}
		t.entries[ei].neighbors = neighbors
	}
	nq := r.Int()
	for i := 0; i < nq && r.Err() == nil; i++ {
		id := simfs.FileID(r.U64())
		t.deleteQueue = append(t.deleteQueue, id)
		t.marked[id] = true
	}
	nforg := r.Int()
	for i := 0; i < nforg && r.Err() == nil; i++ {
		t.forgotten[simfs.FileID(r.U64())] = true
	}
	return t, r.Err()
}
