package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/fmg/seer/internal/trace"
)

// grown returns a correlator with enough learned state that a
// clustering does real work.
func grown(t *testing.T, files int) *Correlator {
	t.Helper()
	c := New(Options{Seed: 1})
	clk := trace.NewClock(time.Unix(1_700_000_000, 0))
	paths := make([]string, files)
	for i := range paths {
		paths[i] = "/home/u/proj/file" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
	}
	for round := 0; round < 4; round++ {
		for _, p := range paths {
			c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpOpen, Path: p, Uid: 1000}))
			c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpClose, Path: p, Uid: 1000}))
		}
	}
	return c
}

func TestPlanContextCanceled(t *testing.T) {
	c := grown(t, 120)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.PlanContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("PlanContext(dead ctx) err = %v, want ErrCanceled", err)
	}
	if !errors.Is(func() error { _, err := c.ClustersContext(ctx); return err }(), context.Canceled) {
		t.Fatal("context cause not joined into the error")
	}
	// The failed attempt must not poison the cache: a live context now
	// produces a full plan.
	plan, err := c.PlanContext(context.Background())
	if err != nil || len(plan.Entries) == 0 {
		t.Fatalf("plan after canceled attempt: %v, %v", plan, err)
	}
}

func TestCanceledClusteringDoesNotPoisonCache(t *testing.T) {
	c := grown(t, 80)
	res1 := c.Clusters() // populate cache
	hits1, _ := c.CacheStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Cache is still valid (nothing mutated): even a dead context is
	// served from cache without touching the clustering pipeline.
	if res, err := c.ClustersContext(ctx); err != nil || res != res1 {
		t.Fatalf("cached result not served under dead ctx: %v %v", res, err)
	}
	hits2, _ := c.CacheStats()
	if hits2 != hits1+1 {
		t.Fatalf("cache hits %d -> %d, want +1", hits1, hits2)
	}
	// After a list-changing mutation the dead context aborts, and the
	// stale cache is not overwritten with a nil result. Two interleaved
	// opens make a new pair, so the table's journal really is non-empty.
	clk := trace.NewClock(time.Unix(1_800_000_000, 0))
	c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpOpen, Path: "/home/u/proj/newa", Uid: 1000}))
	c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpOpen, Path: "/home/u/proj/newb", Uid: 1000}))
	c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpClose, Path: "/home/u/proj/newb", Uid: 1000}))
	c.Feed(clk.Stamp(trace.Event{PID: 9, Op: trace.OpClose, Path: "/home/u/proj/newa", Uid: 1000}))
	if c.PendingChanges() == 0 {
		t.Fatal("mutation produced no pending changes; test premise broken")
	}
	if _, err := c.ClustersContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res := c.Clusters(); res == nil {
		t.Fatal("clustering after canceled attempt returned nil")
	}
}
