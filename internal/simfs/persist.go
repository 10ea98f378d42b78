package simfs

import (
	"fmt"
	"sort"

	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// Save serializes the file table.
func (fs *FS) Save(w *wire.Writer) {
	ids := make([]FileID, 0, len(fs.byID))
	for id := range fs.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U64(uint64(fs.nextID))
	w.Int(len(ids))
	for _, id := range ids {
		f := fs.byID[id]
		w.U64(uint64(f.ID))
		w.Str(f.Path)
		w.U64(uint64(f.Kind))
		w.I64(f.Size)
		w.Bool(f.Exists)
		w.U64(f.CreatedSeq)
	}
}

// minFileBytes is the least a saved File takes: one byte per field.
const minFileBytes = 6

// LoadFS reconstructs a file table saved with Save. rng seeds future
// unknown-size draws. The tables are sized from the saved file count,
// capped by the bytes left in r, and the Files come from one slab.
func LoadFS(r *wire.Reader, rng *stats.Rand) (*FS, error) {
	fs := New(rng)
	fs.nextID = FileID(r.U64())
	n := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n < 0 {
		return nil, fmt.Errorf("simfs: negative file count %d", n)
	}
	hint := r.SizeHint(n, minFileBytes)
	fs.byID = make(map[FileID]*File, hint)
	fs.byPath = make(map[string]*File, hint)
	slab := make([]File, hint)
	for i := 0; i < n; i++ {
		var f *File
		if i < len(slab) {
			f = &slab[i]
		} else {
			f = new(File)
		}
		*f = File{
			ID:         FileID(r.U64()),
			Path:       r.Str(),
			Kind:       Kind(r.U64()),
			Size:       r.I64(),
			Exists:     r.Bool(),
			CreatedSeq: r.U64(),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		fs.byID[f.ID] = f
		// Pathname entries: deleted files displaced by renames may have
		// lost their path slot; latest writer wins (IDs are saved in
		// increasing order so the live file, interned later, wins ties).
		if cur := fs.byPath[f.Path]; cur == nil || !cur.Exists {
			fs.byPath[f.Path] = f
		}
		if f.Exists && f.Kind == Regular {
			fs.totalBytes += f.Size
		}
	}
	return fs, r.Err()
}
