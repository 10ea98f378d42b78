package main

import (
	"testing"

	"github.com/fmg/seer/internal/strace"
	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// TestCorpusReparses checks the renderer's promise: strace.Parser turns
// the rendered text back into exactly the (op, path) sequence the
// renderer recorded, one event per line, with the crawler spliced in
// and every disconnection inside the text.
func TestCorpusReparses(t *testing.T) {
	prof, _ := workload.ProfileByName("G")
	c := genCorpus(prof.Light(20), 7)
	mid := c.Discs[len(c.Discs)/2].At
	c.spliceCrawler(mid, 500)
	if len(c.Lines) == 0 || len(c.Lines) != len(c.Want) {
		t.Fatalf("%d lines, %d expected refs", len(c.Lines), len(c.Want))
	}
	p := strace.NewParser()
	seen := map[trace.Op]int{}
	for i, line := range c.Lines {
		ev, ok := p.ParseLine(line)
		if !ok {
			t.Fatalf("line %d does not parse: %q", i, line)
		}
		if w := c.Want[i]; ev.Op != w.Op || ev.Path != w.Path {
			t.Fatalf("line %d %q parsed as %v %q, want %v %q", i, line, ev.Op, ev.Path, w.Op, w.Path)
		}
		seen[ev.Op]++
	}
	for _, op := range []trace.Op{trace.OpOpen, trace.OpClose, trace.OpStat, trace.OpExec,
		trace.OpFork, trace.OpExit, trace.OpCreate, trace.OpDelete, trace.OpRename,
		trace.OpReadDir, trace.OpSymlink} {
		if seen[op] == 0 {
			t.Errorf("corpus has no %v event", op)
		}
	}
	if got := c.Want[mid+1]; got.Op != trace.OpExec || got.Path != "/usr/bin/indexer" {
		t.Errorf("line after the crawler's clone is %v %q, want the indexer exec", got.Op, got.Path)
	}
	if len(c.Discs) == 0 {
		t.Fatal("no disconnections")
	}
	for i, d := range c.Discs {
		if d.At < 0 || d.At > len(c.Lines) || (i > 0 && d.At < c.Discs[i-1].At) {
			t.Fatalf("disconnection %d at line %d out of order", i, d.At)
		}
	}
}
