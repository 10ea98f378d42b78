package strace

import (
	"bufio"
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

// growing is a file that grows: it reads as ending at avail, and a test
// moves avail forward to append.
type growing struct {
	data       string
	avail, pos int
}

func (g *growing) Read(p []byte) (int, error) {
	if g.pos >= g.avail {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.pos:g.avail])
	g.pos += n
	return n, nil
}

// newSplitter returns a Splitter over r with a max-byte limit and a
// buf-byte read buffer.
func newSplitter(r io.Reader, max, buf int) *Splitter {
	return &Splitter{br: bufio.NewReaderSize(r, buf), max: max}
}

// drain returns every line s yields until the input's current end.
func drain(t *testing.T, s *Splitter) []string {
	t.Helper()
	var got []string
	for {
		line, err := s.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, line)
	}
}

// split returns every line of in under a max-byte limit, the
// unterminated tail included.
func split(t *testing.T, in string, max int) []string {
	t.Helper()
	s := newSplitter(strings.NewReader(in), max, 64<<10)
	s.Final = true
	return drain(t, s)
}

// sameLines fails t unless got equals want.
func sameLines(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("got %d lines %q, want %d %q", len(got), preview(got), len(want), preview(want))
	}
}

func TestSplitterDeliversAll(t *testing.T) {
	sameLines(t, split(t, "a\nbb\nccc", 100), []string{"a", "bb", "ccc"})
}

// An oversized line between two normal ones is skipped, not fatal: a
// bufio.Scanner would stop the whole stream with ErrTooLong here.
func TestSplitterSkipsOversized(t *testing.T) {
	in := "before\n" + strings.Repeat("x", 300) + "\nafter\n"
	sameLines(t, split(t, in, 100), []string{"before", "after"})
}

func TestSplitterSkipsOversizedTail(t *testing.T) {
	sameLines(t, split(t, "ok\n"+strings.Repeat("x", 300), 100), []string{"ok"})
}

// A line's length includes its newline when compared against the
// limit, so content of exactly max bytes is skipped while max-1
// passes, terminated or not. These pins keep that edge from moving.
func TestSplitterMaxLineBoundary(t *testing.T) {
	const max = 100
	exact := strings.Repeat("a", max)   // max content + \n => skipped
	under := strings.Repeat("b", max-1) // max-1 content + \n => delivered
	sameLines(t, split(t, exact+"\n"+under+"\n"+"ok\n", max), []string{under, "ok"})
	sameLines(t, split(t, "ok\n"+exact, max), []string{"ok"})
	sameLines(t, split(t, "ok\n"+under, max), []string{"ok", under})
}

// An oversized final line with no terminating newline is skipped
// without delivering anything, without error, and without hanging.
func TestSplitterOversizedUnterminatedTail(t *testing.T) {
	const max = 64 * 1024
	in := "first\n" + strings.Repeat("x", 2*max) // no trailing \n
	done := make(chan []string, 1)
	go func() { done <- split(t, in, max) }()
	select {
	case got := <-done:
		sameLines(t, got, []string{"first"})
	case <-time.After(10 * time.Second):
		t.Fatal("splitter hung on oversized unterminated tail")
	}
}

// An oversized line whose newline lands exactly on the 64 KiB buffer
// boundary exercises the skip state across a full buffer: the line is
// skipped and the next line is still delivered.
func TestSplitterOversizedAtBufferBoundary(t *testing.T) {
	const bufSize = 64 * 1024
	in := strings.Repeat("y", bufSize-1) + "\n" + "after\n"
	sameLines(t, split(t, in, 100), []string{"after"})
}

// An unterminated tail is kept across EOF and completed by the bytes
// appended after it, also while an oversized line is being skipped;
// Offset never counts past the last newline until Final.
func TestSplitterKeepsTailAcrossEOF(t *testing.T) {
	in := "one\ntw" + "o\n" + strings.Repeat("z", 50) + "\nthree\n"
	g := &growing{data: in, avail: len("one\ntw")}
	s := newSplitter(g, 20, 16)
	sameLines(t, drain(t, s), []string{"one"})
	if s.Offset() != 4 {
		t.Fatalf("offset %d at the held tail, want 4", s.Offset())
	}
	g.avail = len("one\ntwo\n") + 30 // into the oversized line
	sameLines(t, drain(t, s), []string{"two"})
	g.avail = len(in) - 1
	sameLines(t, drain(t, s), nil)
	g.avail = len(in)
	sameLines(t, drain(t, s), []string{"three"})
	if s.Offset() != int64(len(in)) {
		t.Fatalf("offset %d, want %d", s.Offset(), len(in))
	}
	g.data, g.avail = in+"four", len(in)+4
	sameLines(t, drain(t, s), nil)
	s.Final = true
	sameLines(t, drain(t, s), []string{"four"})
	if s.Offset() != int64(len(g.data)) {
		t.Fatalf("offset %d after Final, want %d", s.Offset(), len(g.data))
	}
}

// FuzzLines checks the splitter against a strings.Split reference: it
// never panics, never yields a line over its limit, and yields exactly
// the input's lines within the limit, in order, however the input is
// cut by an EOF before it is Final.
func FuzzLines(f *testing.F) {
	f.Add("a\nbb\nccc", uint8(3), uint16(4))
	f.Add("one\n\ntwo\r\n", uint8(8), uint16(0))
	f.Add(strings.Repeat("x", 40)+"\nshort\n"+strings.Repeat("y", 17), uint8(17), uint16(20))
	f.Add("\n\n\n", uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, data string, max uint8, cut uint16) {
		limit := int(max%64) + 1
		var want []string
		parts := strings.Split(data, "\n")
		for i, p := range parts {
			last := i == len(parts)-1
			if len(p)+1 <= limit && !(last && p == "") {
				want = append(want, p)
			}
		}
		g := &growing{data: data, avail: int(cut) % (len(data) + 1)}
		s := newSplitter(g, limit, 16)
		got := drain(t, s)
		g.avail = len(data)
		got = append(got, drain(t, s)...)
		s.Final = true
		got = append(got, drain(t, s)...)
		for _, line := range got {
			if len(line) >= limit {
				t.Fatalf("yielded a %d-byte line under a %d-byte limit", len(line), limit)
			}
		}
		sameLines(t, got, want)
		if s.Offset() != int64(len(data)) {
			t.Fatalf("offset %d, want %d", s.Offset(), len(data))
		}
	})
}

// preview truncates long captured lines for failure messages.
func preview(lines []string) []string {
	out := make([]string, len(lines))
	for i, s := range lines {
		if len(s) > 32 {
			s = s[:32] + "..."
		}
		out[i] = s
	}
	return out
}
