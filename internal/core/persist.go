package core

import (
	"fmt"
	"io"
	"slices"

	"github.com/fmg/seer/internal/cluster"
	"github.com/fmg/seer/internal/semdist"
	"github.com/fmg/seer/internal/simfs"
	"github.com/fmg/seer/internal/stats"
	"github.com/fmg/seer/internal/wire"
)

// The database snapshot format. The paper left the on-disk database as
// a straightforward future optimization (§5.3); this is that feature:
// a daemon can checkpoint months of learned relationships and restore
// them at the next start.
//
// Version 1 was a bare concatenation of sections; a single flipped bit
// could misparse silently and a truncated file produced confusing
// errors. Version 2 wraps every section in a CRC32-C frame with a
// length header (wire.Frame), so corruption is detected at the section
// that suffered it. Version 1 snapshots remain readable.
const (
	dbMagic    = "SEERDB"
	dbVersion1 = 1
	dbVersion2 = 2
)

// CorruptError reports a structurally invalid value inside a snapshot —
// bytes that decode but cannot describe a correlator (negative counts,
// for example). Framing catches flipped bits; CorruptError catches
// well-formed nonsense.
type CorruptError struct {
	// Section names the snapshot section holding the bad value.
	Section string
	// Detail describes the invalid value.
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("core: corrupt snapshot: %s: %s", e.Section, e.Detail)
}

// Save checkpoints the correlator's durable state: the file table, the
// semantic-distance tables, and the observer's counters and histories.
// Per-process transient state is not saved (a restart behaves like a
// reboot). Investigator relations are saved so a restored daemon keeps
// its external evidence. The snapshot is written in the framed v2
// format.
func (c *Correlator) Save(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Str(dbMagic)
	w.U64(dbVersion2)
	w.Frame("meta", func(w *wire.Writer) {
		w.U64(c.events.Load())
	})
	w.Frame("fs", func(w *wire.Writer) {
		c.fs.Save(w)
	})
	w.Frame("tbl", func(w *wire.Writer) {
		c.tbl.Save(w)
	})
	w.Frame("obs", func(w *wire.Writer) {
		c.obs.Save(w)
	})
	w.Frame("rel", func(w *wire.Writer) {
		w.Int(len(c.extraPairs))
		for _, p := range c.extraPairs {
			w.U64(uint64(p.From))
			w.U64(uint64(p.To))
			w.F64(p.Shared)
		}
	})
	w.Frame("forced", func(w *wire.Writer) {
		forced := c.ForcedFiles()
		w.Int(len(forced))
		for _, id := range forced {
			w.U64(uint64(id))
		}
	})
	return w.Flush()
}

// saveV1 writes the legacy unframed v1 snapshot. Production code always
// writes v2; this writer is kept so tests (and the fuzz corpus) can
// prove that databases produced by earlier releases still load.
func (c *Correlator) saveV1(out io.Writer) error {
	w := wire.NewWriter(out)
	w.Str(dbMagic)
	w.U64(dbVersion1)
	w.U64(c.events.Load())
	c.fs.Save(w)
	c.tbl.Save(w)
	c.obs.Save(w)
	w.Int(len(c.extraPairs))
	for _, p := range c.extraPairs {
		w.U64(uint64(p.From))
		w.U64(uint64(p.To))
		w.F64(p.Shared)
	}
	forced := c.ForcedFiles()
	w.Int(len(forced))
	for _, id := range forced {
		w.U64(uint64(id))
	}
	return w.Flush()
}

// Load restores a correlator from data, a snapshot written by Save. The
// options supply the parameter set, control file and directory sizer,
// which are configuration rather than state. Both the current framed v2
// format and the legacy v1 format are accepted, and both are decoded in
// place: no section is copied out of data, and every table is sized
// from its count, capped by the bytes left to decode it from. Load
// never panics: arbitrary input yields an error (framing violations,
// checksum mismatches, or CorruptError for decodable nonsense).
func Load(data []byte, opts Options) (*Correlator, error) {
	r := wire.NewBytesReader(data)
	if magic := r.Str(); magic != dbMagic {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: not a SEER database (magic %q)", magic)
	}
	v := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	switch v {
	case dbVersion1:
		return loadV1(r, opts)
	case dbVersion2:
		return loadV2(r, opts)
	}
	return nil, fmt.Errorf("core: unsupported database version %d", v)
}

// loadV1 reads the legacy unframed section sequence.
func loadV1(r *wire.Reader, opts Options) (*Correlator, error) {
	events := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	seed := opts.Seed
	fs, err := simfs.LoadFS(r, stats.NewRand(seed))
	if err != nil {
		return nil, fmt.Errorf("core: load file table: %w", err)
	}
	opts.FS = fs
	c := New(opts)
	c.events.Store(events)
	tbl, err := semdist.LoadTable(r, c.p, stats.NewRand(seed+1))
	if err != nil {
		return nil, fmt.Errorf("core: load distance table: %w", err)
	}
	c.tbl = tbl
	if err := c.obs.Load(r); err != nil {
		return nil, fmt.Errorf("core: load observer: %w", err)
	}
	if err := c.loadRelations(r); err != nil {
		return nil, err
	}
	if err := c.loadForced(r); err != nil {
		return nil, err
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return c, nil
}

// loadV2 reads the framed section sequence, verifying each section's
// checksum before decoding it.
func loadV2(r *wire.Reader, opts Options) (*Correlator, error) {
	var events uint64
	if err := r.Frame("meta", func(sr *wire.Reader) error {
		events = sr.U64()
		return sr.Err()
	}); err != nil {
		return nil, fmt.Errorf("core: load meta: %w", err)
	}
	seed := opts.Seed
	var fs *simfs.FS
	if err := r.Frame("fs", func(sr *wire.Reader) error {
		var err error
		fs, err = simfs.LoadFS(sr, stats.NewRand(seed))
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: load file table: %w", err)
	}
	opts.FS = fs
	c := New(opts)
	c.events.Store(events)
	if err := r.Frame("tbl", func(sr *wire.Reader) error {
		tbl, err := semdist.LoadTable(sr, c.p, stats.NewRand(seed+1))
		if err == nil {
			c.tbl = tbl
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("core: load distance table: %w", err)
	}
	if err := r.Frame("obs", func(sr *wire.Reader) error {
		return c.obs.Load(sr)
	}); err != nil {
		return nil, fmt.Errorf("core: load observer: %w", err)
	}
	if err := r.Frame("rel", c.loadRelations); err != nil {
		return nil, err
	}
	if err := r.Frame("forced", c.loadForced); err != nil {
		return nil, err
	}
	return c, nil
}

// loadRelations decodes the investigator-relation section.
func (c *Correlator) loadRelations(r *wire.Reader) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 {
		return &CorruptError{Section: "rel", Detail: fmt.Sprintf("negative relation count %d", n)}
	}
	c.extraPairs = slices.Grow(c.extraPairs, r.SizeHint(n, 3)) // a byte per field at least
	for i := 0; i < n && r.Err() == nil; i++ {
		c.extraPairs = append(c.extraPairs, cluster.Pair{
			From:   simfs.FileID(r.U64()),
			To:     simfs.FileID(r.U64()),
			Shared: r.F64(),
		})
	}
	return r.Err()
}

// loadForced decodes the forced-file section.
func (c *Correlator) loadForced(r *wire.Reader) error {
	nf := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nf < 0 {
		return &CorruptError{Section: "forced", Detail: fmt.Sprintf("negative forced-file count %d", nf)}
	}
	c.forced = make(map[simfs.FileID]bool, r.SizeHint(nf, 1)) // a byte per id at least
	for i := 0; i < nf && r.Err() == nil; i++ {
		c.forced[simfs.FileID(r.U64())] = true
	}
	return r.Err()
}
