package strace

import (
	"strings"
	"testing"
)

// FuzzParseLine asserts the strace parser never panics and maintains
// its invariants on arbitrary input: produced events have increasing
// sequence numbers and a valid op.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		`1234  12:00:01.000001 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3`,
		`1234 close(3) = 0`,
		`100 execve("/usr/bin/cc", ["cc"], ...) = 0`,
		`100 clone(child_stack=NULL) = 101`,
		`1 rename("/a", "/b") = 0`,
		`1 symlinkat("/t", AT_FDCWD, "/l") = 0`,
		`1 openat(AT_FDCWD, "/x <unfinished ...>`,
		`1 <... openat resumed>) = 5`,
		`+++ exited with 0 +++`,
		`--- SIGCHLD ---`,
		`garbage ( with parens ) = and equals`,
		`999999999999999999999 open("/x") = 1`,
		"1 stat(\"/weird \\\" quote\", 0x0) = -1 ENOENT",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p := NewParser()
		var lastSeq uint64
		// Feed the fuzz line between two normal lines so stashed
		// unfinished state is exercised.
		for _, l := range []string{
			`7 openat(AT_FDCWD, "/a", O_RDONLY) = 3`,
			line,
			`7 close(3) = 0`,
		} {
			ev, ok := p.ParseLine(l)
			if !ok {
				continue
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if ev.Op.String() == "invalid" {
				t.Fatalf("invalid op emitted for %q", l)
			}
		}
	})
}

// FuzzParse runs whole inputs through the stream parser.
func FuzzParse(f *testing.F) {
	f.Add("1 open(\"/a\") = 3\n1 close(3) = 0\n")
	f.Add("")
	f.Add(strings.Repeat("x", 2000))
	f.Fuzz(func(t *testing.T, src string) {
		p := NewParser()
		// Parse fails only on a read error, which a strings.Reader never
		// returns: an absurd line length is skipped, not an error.
		if _, err := p.Parse(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
}
