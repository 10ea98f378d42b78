package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/core"
	"github.com/fmg/seer/internal/obs"
	"github.com/fmg/seer/internal/shard"
	"github.com/fmg/seer/internal/supervise"
)

// testSupervisorConfig is a backoff policy tight enough for tests.
func testSupervisorConfig() supervise.Config {
	return supervise.Config{
		Backoff:    supervise.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.1},
		BreakAfter: 50,
		Window:     time.Minute,
	}
}

// testRuntime is a plain (one-shard) seerd runtime reading stracePath
// and listening on a loopback port.
func testRuntime(stracePath string) config.Runtime {
	rt := config.DefaultRuntime()
	rt.Daemon.Strace = stracePath
	rt.Daemon.Listen = "127.0.0.1:0"
	return rt
}

// newTestHost opens a host for hc (base defaults to rt, the supervisor
// to testSupervisorConfig) without starting its process stages.
func newTestHost(t *testing.T, hc hostConfig) *host {
	t.Helper()
	if hc.supervisor.Window == 0 {
		hc.supervisor = testSupervisorConfig()
	}
	if hc.base.Daemon.LogLevel == "" {
		hc.base = hc.rt
	}
	return newHost(context.Background(), hc)
}

// runTestHost starts h's process stages and waits for its main
// listener. The returned stop (also run at cleanup; idempotent) ends
// the stages and drains the shards to their final checkpoints. Tests
// that restore package globals must defer stop so it runs first.
func runTestHost(t *testing.T, h *host) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	h.sup.Start(ctx)
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			done := make(chan struct{})
			go func() { h.sup.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("host stages did not stop within 10s")
			}
			if err := h.mgr.Close(); err != nil {
				t.Errorf("closing shards: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	deadline := time.Now().Add(5 * time.Second)
	for h.addr() == "" && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.addr() == "" {
		t.Fatal("host listener never came up")
	}
	return stop
}

// slot0 returns the one shard of a plain seerd.
func (h *host) slot0() *shard.Shard { return h.mgr.Shard(0) }

// waitEvents polls until slot 0 has fed at least n events.
func waitEvents(t *testing.T, h *host, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.slot0().Events() >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("slot 0 never reached %d events (at %d)", n, h.slot0().Events())
}

// seedLines is a small strace history: six open/close pairs over two
// files.
const seedLines = `9  10:00:00.000001 openat(AT_FDCWD, "/home/u/a.c", O_RDONLY) = 3
9  10:00:00.000002 close(3) = 0
9  10:00:00.000003 openat(AT_FDCWD, "/home/u/b.h", O_RDONLY) = 3
9  10:00:00.000004 close(3) = 0
9  10:00:00.000005 openat(AT_FDCWD, "/home/u/a.c", O_RDONLY) = 3
9  10:00:00.000006 close(3) = 0
9  10:00:00.000007 openat(AT_FDCWD, "/home/u/b.h", O_RDONLY) = 3
9  10:00:00.000008 close(3) = 0
9  10:00:00.000009 openat(AT_FDCWD, "/home/u/a.c", O_RDONLY) = 3
9  10:00:00.000010 close(3) = 0
9  10:00:00.000011 openat(AT_FDCWD, "/home/u/b.h", O_RDONLY) = 3
9  10:00:00.000012 close(3) = 0
`

// seed bootstraps h's slot 0 from seedLines (12 events).
func seed(t *testing.T, h *host) {
	t.Helper()
	if n, err := h.bootstrap(context.Background(), strings.NewReader(seedLines)); err != nil || n != 12 {
		t.Fatalf("bootstrap: %d events, err %v", n, err)
	}
}

// The -db file is slot 0's snapshot: every close checkpoints it with
// the previous one rotated to .bak, and a restart climbs the recovery
// ladder — intact primary, then the backup, then a fresh database.
func TestSnapshotRotationAndRecoveryLadder(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "seer.db")
	rt := testRuntime("-")
	rt.Daemon.DB = db
	open := func() *host { return newTestHost(t, hostConfig{rt: rt}) }

	// First checkpoint: primary only.
	h := open()
	seed(t, h)
	want := h.slot0().Events()
	if err := h.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(db + ".bak"); !os.IsNotExist(err) {
		t.Fatal("backup exists after first checkpoint")
	}
	// Second checkpoint rotates the first to .bak.
	h = open()
	if got := h.slot0().Events(); got != want {
		t.Fatalf("restored %d events, want %d", got, want)
	}
	if err := h.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(db + ".bak"); err != nil {
		t.Fatal("no backup after second checkpoint")
	}

	// Corrupt primary: the ladder falls back to the backup.
	data, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(db, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	restored := func() uint64 {
		h := open()
		defer h.mgr.Close()
		return h.slot0().Events()
	}
	if got := restored(); got != want {
		t.Fatalf("backup recovery lost events: %d, want %d", got, want)
	}

	// Corrupt both: a fresh database, not a crash.
	if err := os.WriteFile(db, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(db+".bak", corrupt[:len(corrupt)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := restored(); got != 0 {
		t.Fatalf("fresh database has %d events", got)
	}
}

// A plain seerd's final checkpoint round-trips through its -db file,
// leaving no temp file behind, and the golden trace's recorded
// database restores through -db the same way.
func TestSaveDBThenRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "seer.db")
	rt := testRuntime("-")
	rt.Daemon.DB = db
	h := newTestHost(t, hostConfig{rt: rt})
	seed(t, h)
	want := h.slot0().Events()
	if err := h.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if r := shard.RestoreSnapshot(db, core.Options{Seed: 1}, obs.NewLogger(nil)); r.Events() != want {
		t.Fatalf("restored %d events, want %d", r.Events(), want)
	}
	if _, err := os.Stat(db + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}

	old, err := os.ReadFile(filepath.Join("testdata", "golden", "seer.db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(db, old, 0o644); err != nil {
		t.Fatal(err)
	}
	h = newTestHost(t, hostConfig{rt: rt})
	defer h.mgr.Close()
	if got := h.slot0().Events(); got != 27 {
		t.Fatalf("database from the golden trace restored %d events, want 27", got)
	}
}

func TestFollowPipelineSurvivesTruncationAndRotation(t *testing.T) {
	oldPoll := followPoll
	followPoll = 10 * time.Millisecond
	defer func() { followPoll = oldPoll }()

	dir := t.TempDir()
	path := filepath.Join(dir, "seer.strace")
	line1 := `100  12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3` + "\n"
	line2 := `100  12:00:02.000001 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 4` + "\n"
	line3 := `100  12:00:03.000001 openat(AT_FDCWD, "/etc/group", O_RDONLY) = 5` + "\n"
	if err := os.WriteFile(path, []byte("ignored: started before follow\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rt := testRuntime(path)
	rt.Daemon.Follow = true
	h := newTestHost(t, hostConfig{rt: rt})
	stop := runTestHost(t, h)

	// Appended lines are consumed.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitEvents(t, h, 1)

	// Truncation: the file is rewritten shorter. The tailer must reopen
	// from the start and consume the fresh contents.
	if err := os.WriteFile(path, []byte(line2), 0o644); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 2)

	// Rotation: the file is replaced via rename (new inode).
	tmp := filepath.Join(dir, "rotated.strace")
	if err := os.WriteFile(tmp, []byte(line3), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, h, 3)

	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("host did not stop on context cancellation")
	}
}
