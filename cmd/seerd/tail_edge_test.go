package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
)

// TestFollowFailureMatrix interleaves the two tail-loop disruptions
// (truncation and rotation) with checkpoint-sink failures: the pipeline
// must keep ingesting through both, health must degrade while the sink
// is broken and recover after it heals, and the database on disk must
// still be loadable at the end.
func TestFollowFailureMatrix(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	defer func() { followPoll = oldPoll }()

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	db := filepath.Join(dir, "seer.db")
	if err := os.WriteFile(path, []byte("pre-follow noise\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.DB = db
	h := newTestHost(t, hostConfig{rt: rt, checkpointEvery: 15 * time.Millisecond})
	var sink fault.Sink
	h.slot0().SetSaveWrapper(sink.Do)
	stop := runTestHost(t, h)
	defer stop()

	// Healthy append baseline.
	appendLine(t, path, chaosLine(0))
	waitEvents(t, h, 1)

	// Case 1: truncation while checkpoints fail. The tailer reopens from
	// the start; the broken sink degrades health but stops nothing.
	sink.Break()
	if err := os.WriteFile(path, []byte(chaosLine(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 2)
	waitFor(t, "degraded during sink break (truncation)", func() bool {
		return h.sup.Health() == supervise.Degraded
	})
	sink.Heal()
	waitFor(t, "healthy after heal (truncation)", func() bool {
		return h.sup.Health() == supervise.Healthy
	})

	// Case 2: rotation while checkpoints fail.
	sink.Break()
	tmp := filepath.Join(dir, "rotated.strace")
	if err := os.WriteFile(tmp, []byte(chaosLine(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 3)
	waitFor(t, "degraded during sink break (rotation)", func() bool {
		return h.sup.Health() == supervise.Degraded
	})
	sink.Heal()
	waitFor(t, "healthy after heal (rotation)", func() bool {
		return h.sup.Health() == supervise.Healthy
	})

	// Case 3: rotation immediately followed by truncation, sink healthy —
	// plain disruption interleaving, nothing may be lost after reopen.
	tmp2 := filepath.Join(dir, "rotated2.strace")
	if err := os.WriteFile(tmp2, []byte(chaosLine(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp2, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 4)
	// The truncated replacement must be strictly shorter than what the
	// tailer already consumed, or the size check cannot see it shrink.
	short := `100  12:00:09.000009 openat(AT_FDCWD, "/h/x.c", O_RDONLY) = 3` + "\n"
	if len(short) >= len(chaosLine(3)) {
		t.Fatalf("test bug: truncation line (%d bytes) not shorter than rotated line (%d)", len(short), len(chaosLine(3)))
	}
	if err := os.WriteFile(path, []byte(short), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 5)

	total := h.slot0().Events()
	stop() // the final checkpoint
	r := shard.RestoreSnapshot(db, core.Options{Seed: 1}, obs.NewLogger(nil))
	if r.Events() != total {
		t.Fatalf("restored %d events after failure matrix, want %d", r.Events(), total)
	}
}
