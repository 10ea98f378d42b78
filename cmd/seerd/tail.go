package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
)

// maxLineLen bounds a single strace line. Longer lines (a pathological
// argument list, a corrupt trace) are skipped with a warning; a
// bufio.Scanner would instead stop the whole stream with ErrTooLong.
const maxLineLen = 1 << 20

// followPoll is how long the tailer waits at EOF before polling again
// (a variable so tests can tighten the loop).
var followPoll = time.Second

// feedLines delivers each newline-terminated line of r (and a trailing
// unterminated line at EOF) to fn with the newline stripped. Lines
// longer than maxLine are skipped with a warning instead of aborting
// the stream. A cancelled ctx stops the read promptly (checked every
// few lines) and returns ctx.Err(), so SIGINT during a large cold
// bootstrap does not have to run to EOF before it is noticed.
func feedLines(ctx context.Context, r io.Reader, maxLine int, fn func(string)) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var partial []byte
	skipping := false
	done := ctx.Done()
	lines := 0
	for {
		if lines%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		lines++
		chunk, err := br.ReadString('\n')
		if skipping {
			if err == nil {
				// The oversized line finally ended; resume normally.
				skipping = false
			}
		} else {
			partial = append(partial, chunk...)
			complete := err == nil
			if len(partial) > maxLine {
				logger.Warn("skipping oversized line", "bytes", len(partial))
				partial = partial[:0]
				skipping = !complete
			} else if complete {
				fn(strings.TrimSuffix(string(partial), "\n"))
				partial = partial[:0]
			}
		}
		if err != nil {
			if err == io.EOF {
				if !skipping && len(partial) > 0 {
					fn(string(partial))
				}
				return nil
			}
			return err
		}
	}
}

// bootstrap replays the existing trace from in into slot 0 as one traced
// cold load, then waits until the feeder has folded all of it in, so
// the first answer served or printed covers the whole trace. Events go
// through the shard's queue without shedding. A cancelled ctx stops
// the read promptly (returning ctx.Err()); whatever was read by then
// stays queued for the final checkpoint.
func (h *host) bootstrap(ctx context.Context, in io.Reader) (int64, error) {
	s := h.mgr.Shard(0)
	want := s.Events()
	tid := h.tracer.NewTrace()
	sp := h.tracer.StartSpan(tid, "ingest").Attr("source", "bootstrap")
	bctx := batchContext(ctx, tid, sp)
	parser := strace.NewParser()
	var n int64
	err := feedLines(ctx, in, maxLineLen, func(line string) {
		if ev, ok := parser.ParseLine(line); ok {
			if k, _ := s.Backfill(bctx, ev); k == 1 {
				n++
			}
		}
	})
	sp.AttrInt("events", n).End()
	want += uint64(n)
	for s.Events() < want && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	return n, err
}

// batchContext carries one ingestion batch's span context, so the
// shard's feed spans join the batch's trace under its ingest span
// (the trace id alone when span recording is off).
func batchContext(ctx context.Context, tid obs.TraceID, sp *obs.ActiveSpan) context.Context {
	sc := sp.Context()
	sc.Trace = tid
	return obs.ContextWithSpan(ctx, sc)
}

// enqueue hands one tailed event to slot 0, riding out a drain of the
// slot: the replacement shard takes the event once it serves.
func (h *host) enqueue(ctx context.Context, ev trace.Event) {
	for {
		_, err := h.mgr.Shard(0).Enqueue(ctx, ev)
		if !shard.IsTransient(err) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// tailStage tails the strace file for appended lines, parses them, and
// enqueues the resulting events on slot 0's bounded queue — it never
// touches the correlator (or its lock), so a wedged clustering cannot
// stall the tail loop. It survives the file being truncated or rotated
// (size shrank or inode changed): the new file is reopened from the
// start instead of polling a dead offset forever. It returns when ctx
// is cancelled; errors and panics bubble to the supervisor, which
// restarts the stage with backoff (each fresh start seeks to the
// current end of the file).
func (h *host) tailStage(ctx context.Context) error {
	tlog := logger.With("component", "tailer")
	path := h.store.Get().Daemon.Strace
	parser := strace.NewParser()
	var (
		f        *os.File
		br       *bufio.Reader
		offset   int64
		partial  []byte
		skipping bool
	)
	// One ingestion batch — everything read between two EOF pauses —
	// shares a trace id. The "ingest" span opens on the batch's first
	// parsed event and closes at the EOF pause.
	var (
		tid    obs.TraceID
		sp     *obs.ActiveSpan
		bctx   context.Context
		batchN int64
	)
	endBatch := func() {
		if bctx == nil {
			return
		}
		sp.AttrInt("events", batchN).End()
		tlog.Debug("ingestion batch complete", "trace", tid.String(), "events", batchN)
		sp, bctx, batchN = nil, nil, 0
	}
	defer endBatch()
	open := func(seekEnd bool) error {
		nf, err := os.Open(path)
		if err != nil {
			return err
		}
		var off int64
		if seekEnd {
			if off, err = nf.Seek(0, io.SeekEnd); err != nil {
				nf.Close()
				return err
			}
		}
		if f != nil {
			f.Close()
		}
		var r io.Reader = nf
		if h.wrapTail != nil {
			r = h.wrapTail(nf)
		}
		f, br, offset = nf, bufio.NewReaderSize(r, 64*1024), off
		partial, skipping = nil, false
		parser = strace.NewParser()
		return nil
	}
	if err := open(true); err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	defer func() { f.Close() }()
	for {
		chunk, err := br.ReadString('\n')
		offset += int64(len(chunk))
		if err == nil {
			if skipping {
				skipping = false
			} else {
				partial = append(partial, chunk...)
				if len(partial) > maxLineLen {
					tlog.Warn("skipping oversized line", "bytes", len(partial))
				} else if ev, ok := parser.ParseLine(strings.TrimSuffix(string(partial), "\n")); ok {
					if bctx == nil {
						tid = h.tracer.NewTrace()
						sp = h.tracer.StartSpan(tid, "ingest").Attr("source", "follow")
						bctx = batchContext(ctx, tid, sp)
					}
					batchN++
					h.enqueue(bctx, ev)
				}
				partial = partial[:0]
			}
		} else {
			// At EOF: stash the partial line, wait for growth, and watch
			// for the file shrinking or being replaced underneath us.
			if !skipping {
				partial = append(partial, chunk...)
				if len(partial) > maxLineLen {
					tlog.Warn("skipping oversized line", "bytes", len(partial))
					partial = partial[:0]
					skipping = true
				}
			}
			endBatch()
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(followPoll):
			}
			if st, serr := os.Stat(path); serr == nil {
				cur, ferr := f.Stat()
				rotated := ferr == nil && !os.SameFile(st, cur)
				truncated := !rotated && st.Size() < offset
				if rotated || truncated {
					why := "rotated"
					if truncated {
						why = "truncated"
					}
					tlog.Warn("trace file replaced; reopening from start", "path", path, "why", why)
					if oerr := open(false); oerr != nil {
						tlog.Error("reopen failed", "path", path, "err", oerr)
					}
				}
			}
		}
	}
}
