package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/strace"
)

// followPoll is how long the tailer waits at EOF before polling again
// (a variable so tests can tighten the loop).
var followPoll = time.Second

// batchLines bounds one batch of local input handed to slot 0: one
// ingest span and one hold of the shard's parser lock.
const batchLines = 1024

// bootstrap makes the cold pass over slot 0's local input r, then waits
// until the feeder has folded it in, so the first answer served or
// printed covers the whole trace. Under -follow, tailStage continues on
// r (the followed file) after the last line handed over, and an
// unterminated last line is left to it; otherwise that line is parsed
// at EOF. A cancelled ctx stops the read promptly (returning
// ctx.Err()); whatever was handed over by then stays queued for the
// final checkpoint.
func (h *host) bootstrap(ctx context.Context, r io.Reader) (int64, error) {
	s := h.mgr.Shard(0)
	want := s.Events()
	lines := strace.NewSplitter(r)
	lines.Final = !h.follow
	var off int64
	n, err := h.pump(ctx, lines, 0, &off)
	if f, ok := r.(*os.File); ok && h.follow {
		h.in, h.inOff = f, off
	}
	want += uint64(n)
	for s.Events() < want && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// tailStage follows the local trace file for appended lines. It starts
// after the last line handed over, so a restart after a panic resumes
// there, and an unterminated last line waits for its newline. It
// survives the file being truncated or rotated: the new file is read
// from its start. It closes the file and returns when ctx is
// cancelled; errors and panics bubble to the supervisor, which
// restarts the stage with backoff.
func (h *host) tailStage(ctx context.Context) error {
	path := h.store.Get().Daemon.Strace
	if h.in == nil && !h.reopen(path) {
		return fmt.Errorf("follow: cannot open %s", path)
	}
	for {
		base, err := h.in.Seek(h.inOff, io.SeekStart)
		if err != nil {
			return fmt.Errorf("follow: %w", err)
		}
		var r io.Reader = h.in
		if h.wrapTail != nil {
			r = h.wrapTail(r)
		}
		lines := strace.NewSplitter(r)
		for reopened := false; !reopened; reopened = h.reopenIfReplaced(path) {
			if _, err := h.pump(ctx, lines, base, &h.inOff); err != io.EOF && ctx.Err() == nil {
				return fmt.Errorf("follow: %w", err)
			}
			select {
			case <-ctx.Done():
				h.in.Close()
				return nil
			case <-time.After(followPoll):
			}
		}
	}
}

// reopenIfReplaced reopens path when the followed file was rotated (a
// new inode) or truncated below the read offset, and reports whether
// it did.
func (h *host) reopenIfReplaced(path string) bool {
	st, err := os.Stat(path)
	cur, ferr := h.in.Stat()
	pos, _ := h.in.Seek(0, io.SeekCurrent)
	if err != nil || ferr != nil || os.SameFile(st, cur) && st.Size() >= pos {
		return false
	}
	logger.With("component", "tailer").Warn("trace file rotated or truncated; reopening from start", "path", path)
	return h.reopen(path)
}

// reopen makes path, read from its start, the followed file, and
// reports whether it could open it.
func (h *host) reopen(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		logger.With("component", "tailer").Error("cannot open trace file", "path", path, "err", err)
		return false
	}
	if h.in != nil {
		h.in.Close()
	}
	h.in, h.inOff = f, 0
	return true
}

// pump hands the lines to slot 0 in batches of at most batchLines until
// the input's current end (io.EOF), the end of ctx, or a read error,
// and returns how many events were enqueued. After each batch *off is
// base plus the bytes of the lines handed over. It rides out a drain of
// the slot: a batch the draining shard refused goes to the replacement
// once it serves.
func (h *host) pump(ctx context.Context, lines *strace.Splitter, base int64, off *int64) (n int64, err error) {
	batch := make([]string, 0, batchLines)
	for err == nil {
		var line string
		if line, err = lines.Next(); err == nil {
			if batch = append(batch, line); len(batch) < batchLines {
				continue
			}
		}
		for len(batch) > 0 {
			k, berr := h.mgr.Shard(0).Backfill(ctx, batch)
			if k == 0 && shard.IsTransient(berr) && ctx.Err() == nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			n, batch = n+int64(k), batch[:0]
		}
		*off = base + lines.Offset()
		if err == nil {
			err = ctx.Err()
		}
	}
	return n, err
}
