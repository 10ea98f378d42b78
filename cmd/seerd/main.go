// Command seerd is the SEER daemon for real systems: it consumes strace
// output (from a file or stdin), maintains the correlator state, and
// serves hoarding decisions over HTTP.
//
// Capture activity with:
//
//	strace -f -tt -e trace=open,openat,creat,close,stat,lstat,access,\
//	execve,fork,vfork,clone,unlink,unlinkat,rename,renameat,mkdir,\
//	chdir,getdents64,exit_group -o /tmp/seer.strace -p <shell pid>
//
// then run:
//
//	seerd -strace /tmp/seer.strace -listen :7077 -budget 512
//
// Endpoints: /plan (inclusion order), /hoard (chosen files at the
// budget), /clusters, /stats, /miss?path=... (POST; record a hoard
// miss and force the file's project into future plans, §4.4), POST
// /events (more strace lines), /shards, and /healthz + /readyz (JSON
// health detail). Without -listen, seerd prints the hoard list once and
// exits. With -debug-addr, a second listener serves net/http/pprof
// profiles and the same observability endpoints. With -rumor, the
// CheapRumor replication master is mounted under /rumor/, so laptops
// can reconcile against the seerd host directly via replic.RemoteRumor;
// `seerd -shards 1 -rumor -listen :7078` runs a standalone master.
//
// One serving path: seerd always runs fault-isolated user shards behind
// a consistent-hash gateway (internal/shard). -shards N hosts N of
// them, fed per user through POST /events?user=. A plain seerd
// (-shards 0, the default) is the one-shard deployment of the same
// runtime: the local strace input feeds slot 0, and ?user= is optional.
//
// Supervision: every stage — strace tailer, each shard's feeder and
// checkpointer, HTTP listeners — runs under a supervisor that captures
// panics and restarts the stage with exponential backoff and jitter; a
// stage that keeps failing trips a circuit breaker and flips health
// (healthy → degraded → unavailable) instead of crash-looping. Strace
// lines reach a shard's bounded queue through its own parser: POST
// /events sheds the oldest on overflow, the local trace waits (the file
// is its own buffer), and /plan and /hoard fall back to the last-good
// plan (X-Seer-Stale: true) when a fresh one cannot be built before the
// deadline.
//
// Durability: with -db (one shard) or -shard-dir, each shard's database
// is restored at startup through a recovery ladder (snapshot, then its
// .bak rotation, then a fresh database — corruption is logged, never
// fatal), checkpointed atomically with fsync while serving, and
// checkpointed a final time on SIGINT/SIGTERM after a graceful HTTP
// shutdown.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/fmg/seer/internal/config"
	"github.com/fmg/seer/internal/obs"
)

func main() {
	// Every tunable is one knob in internal/config's declarative table;
	// RegisterFlags turns it into the historical flags, and the same
	// names work as `key value` lines in the -config file.
	rt := config.DefaultRuntime()
	config.RegisterFlags(flag.CommandLine, &rt)
	cfgPath := flag.String("config", "",
		"runtime config file: flag-style `key value` lines plus `param Name Value`; "+
			"watched for live reloads while serving")
	flag.Parse()

	// base is what the flags alone produced: reloads re-parse the file
	// over it, so removing a file line reverts that setting to its flag
	// (or default) value.
	base := rt
	var cfgData []byte
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			logger.Warn("config file missing; starting from flags",
				"path", *cfgPath)
		case err != nil:
			fmt.Fprintf(os.Stderr, "seerd: %v\n", err)
			os.Exit(2)
		default:
			if err := config.ApplyFile(&rt, bytes.NewReader(data)); err != nil {
				fmt.Fprintf(os.Stderr, "seerd: %s: %v\n", *cfgPath, err)
				os.Exit(2)
			}
			cfgData = data
		}
	}
	if err := rt.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "seerd: %v\n", err)
		os.Exit(2)
	}

	lv, _ := obs.ParseLevel(rt.Daemon.LogLevel) // Validate vetted it
	logger.SetLevel(lv)
	logger.SetJSON(rt.Daemon.LogFormat == "json")

	os.Exit(run(rt, base, *cfgPath, cfgData))
}

// run opens the shards, feeds a one-shard deployment its local trace,
// and then either prints the hoard once (no -listen) or serves until a
// signal. It returns the process exit code.
func run(rt, base config.Runtime, cfgPath string, cfgData []byte) int {
	if rt.Daemon.ShardDir != "" {
		if err := os.MkdirAll(rt.Daemon.ShardDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "seerd: shard-dir: %v\n", err)
			return 1
		}
	}
	var in io.Reader = os.Stdin
	if rt.Daemon.Shards == 0 && rt.Daemon.Strace != "-" {
		f, err := os.Open(rt.Daemon.Strace)
		if err != nil {
			logger.Error("cannot open strace file", "path", rt.Daemon.Strace, "err", err)
			return 1
		}
		defer f.Close()
		in = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := newHost(ctx, hostConfig{rt: rt, base: base, cfgPath: cfgPath, cfgData: cfgData})

	if rt.Daemon.Shards == 0 {
		// Bootstrap: one cold pass over the existing trace, which the
		// tailer continues under -follow. A signal during a large read
		// stops it promptly; whatever was learned up to that point is
		// still checkpointed before a clean exit.
		n, err := h.bootstrap(ctx, in)
		switch {
		case errors.Is(err, context.Canceled):
			logger.Warn("interrupted during bootstrap; checkpointing", "events", n)
			return closeHost(h)
		case err != nil:
			// A bad input stream costs the unread tail, not the
			// accumulated database: keep going with what was learned.
			logger.Warn("bootstrap read failed; continuing", "err", err, "events", n)
		}
		if rt.Daemon.Listen == "" {
			return printHoard(h, os.Stdout)
		}
	}

	// SIGHUP forces an immediate config-file check, the conventional
	// "reload now" signal alongside the steady poll.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			h.kickReload()
		}
	}()
	h.sup.Start(ctx)
	// Wait for the listener to bind so the startup line reports the
	// resolved address (":0" becomes a concrete port).
	for i := 0; i < 100 && h.addr() == ""; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	logger.Info("serving", "shards", h.mgr.Len(), "events", h.mgr.Shard(0).Events(),
		"addr", h.addr(), "shard_dir", rt.Daemon.ShardDir, "db", rt.Daemon.DB)
	if rt.Daemon.DebugAddr != "" {
		logger.Info("debug endpoints up", "addr", h.debugAddr())
	}

	<-ctx.Done()
	logger.Info("signal received, shutting down")
	h.sup.Wait()
	return closeHost(h)
}

// printHoard is one-shot mode: write slot 0's hoard listing to w, then
// close the host.
func printHoard(h *host, w io.Writer) int {
	body, _, err := h.mgr.Shard(0).Hoard(context.Background())
	if err != nil {
		logger.Error("hoard failed", "err", err)
		closeHost(h)
		return 1
	}
	w.Write(body)
	return closeHost(h)
}

// closeHost drains every shard to its final checkpoint, so nothing
// learned since the last periodic save is lost, and maps a failed
// checkpoint to exit code 1.
func closeHost(h *host) int {
	if err := h.mgr.Close(); err != nil {
		logger.Error("final checkpoint failed", "err", err)
		return 1
	}
	logger.Info("final checkpoints saved", "shards", h.mgr.Len())
	return 0
}
