package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/fmg/seer/internal/trace"
	"github.com/fmg/seer/internal/workload"
)

// Corpus is one user's generated trace rendered as `strace -f -tt`
// text. Every line parses to exactly one event, so a line count is an
// event count: after the first n lines are fed, the daemon's /stats
// reports n events.
type Corpus struct {
	Lines []string
	// Want is the (op, path) sequence strace.Parser must recover from
	// Lines, one entry per line.
	Want []Ref
	// Discs is the disconnection schedule. The connectivity markers
	// themselves have no strace form and never reach the text.
	Discs []Disc
}

// Ref is the part of a parsed event the renderer promises.
type Ref struct {
	Op   trace.Op
	Path string
}

// Disc is one disconnection: it begins once the first At lines are fed.
type Disc struct {
	At int
	// Used lists the distinct files the trace opens or execs while
	// disconnected, in first-use order, leaving out files it created
	// (or renamed into place) earlier in the same disconnection.
	Used []string
}

// crawlerPID is far above any pid the generator allocates.
const crawlerPID = 900000

// genCorpus generates the profile's trace from seed and renders it.
func genCorpus(prof workload.Profile, seed int64) *Corpus {
	tr := workload.NewGenerator(prof, seed).Generate()
	r := newRenderer()
	c := &Corpus{}
	var (
		cur  *Disc
		seen map[string]bool
	)
	for _, ev := range tr.Events {
		switch ev.Op {
		case trace.OpDisconnect:
			c.Discs = append(c.Discs, Disc{At: len(r.lines)})
			cur, seen = &c.Discs[len(c.Discs)-1], map[string]bool{}
			continue
		case trace.OpReconnect:
			cur = nil
			continue
		}
		if ev.Op.IsConnectivity() {
			continue
		}
		if cur != nil {
			switch ev.Op {
			case trace.OpCreate, trace.OpSymlink:
				// Made while disconnected: nothing to hoard.
				seen[ev.Path] = true
			case trace.OpRename:
				seen[ev.Path2] = true
			case trace.OpOpen, trace.OpExec:
				if !seen[ev.Path] {
					seen[ev.Path] = true
					cur.Used = append(cur.Used, ev.Path)
				}
			}
		}
		r.render(ev)
	}
	c.Lines, c.Want = r.lines, r.want
	return c
}

// renderer turns events into strace lines, keeping per-pid descriptor
// tables that mirror strace.Parser's: close(fd) names a descriptor the
// same pid opened (or inherited across clone), and fds are allocated
// lowest-free from 3 as the kernel does.
type renderer struct {
	fds   map[trace.PID]map[int]string
	lines []string
	want  []Ref
}

func newRenderer() *renderer {
	return &renderer{fds: make(map[trace.PID]map[int]string)}
}

func (r *renderer) table(pid trace.PID) map[int]string {
	t := r.fds[pid]
	if t == nil {
		t = make(map[int]string)
		r.fds[pid] = t
	}
	return t
}

// allocFD returns the lowest free descriptor of pid, bound to path.
func (r *renderer) allocFD(pid trace.PID, path string) int {
	t := r.table(pid)
	fd := 3
	for {
		if _, used := t[fd]; !used {
			break
		}
		fd++
	}
	t[fd] = path
	return fd
}

// fdOf returns the lowest descriptor of pid open on path.
func (r *renderer) fdOf(pid trace.PID, path string) (int, bool) {
	best := -1
	for fd, p := range r.table(pid) {
		if p == path && (best < 0 || fd < best) {
			best = fd
		}
	}
	return best, best >= 0
}

func (r *renderer) emit(ev trace.Event, op trace.Op, path, call string) {
	ts := ev.Time.Format("15:04:05.000000")
	r.lines = append(r.lines, fmt.Sprintf("%d  %s %s", ev.PID, ts, call))
	r.want = append(r.want, Ref{Op: op, Path: path})
}

// render appends the strace line for ev. Events strace cannot express
// are dropped: a close of a path the pid has no descriptor for (the
// generator's mail reader closes messages it never opened).
func (r *renderer) render(ev trace.Event) {
	q := quote
	switch ev.Op {
	case trace.OpOpen:
		fd := r.allocFD(ev.PID, ev.Path)
		r.emit(ev, trace.OpOpen, ev.Path,
			fmt.Sprintf("openat(AT_FDCWD, %s, O_RDONLY|O_CLOEXEC) = %d", q(ev.Path), fd))
	case trace.OpCreate:
		fd := r.allocFD(ev.PID, ev.Path)
		r.emit(ev, trace.OpCreate, ev.Path,
			fmt.Sprintf("openat(AT_FDCWD, %s, O_WRONLY|O_CREAT|O_TRUNC, 0644) = %d", q(ev.Path), fd))
	case trace.OpReadDir:
		// A directory read is the O_DIRECTORY open, which the parser
		// maps to readdir. Its getdents64/close would add a second
		// readdir and a close the generator never made, changing the
		// §4.1 directory-read count, so the descriptor stays open.
		fd := r.allocFD(ev.PID, ev.Path)
		r.emit(ev, trace.OpReadDir, ev.Path,
			fmt.Sprintf("openat(AT_FDCWD, %s, O_RDONLY|O_NONBLOCK|O_CLOEXEC|O_DIRECTORY) = %d", q(ev.Path), fd))
	case trace.OpClose:
		fd, ok := r.fdOf(ev.PID, ev.Path)
		if !ok {
			return
		}
		delete(r.table(ev.PID), fd)
		r.emit(ev, trace.OpClose, ev.Path, fmt.Sprintf("close(%d) = 0", fd))
	case trace.OpStat:
		r.emit(ev, trace.OpStat, ev.Path,
			fmt.Sprintf("stat(%s, {st_mode=S_IFREG|0644, st_size=4096, ...}) = 0", q(ev.Path)))
	case trace.OpExec:
		r.emit(ev, trace.OpExec, ev.Path,
			fmt.Sprintf("execve(%s, [%s], 0x7ffd3c9e1f28 /* 24 vars */) = 0", q(ev.Path), q(basename(ev.Path))))
	case trace.OpFork:
		// The parent issues clone; the child inherits a copy of its
		// descriptor table, as the parser assumes without CLONE_FILES.
		parent := r.table(ev.PPID)
		child := make(map[int]string, len(parent))
		for fd, p := range parent {
			child[fd] = p
		}
		r.fds[ev.PID] = child
		pe := ev
		pe.PID = ev.PPID
		r.emit(pe, trace.OpFork, "",
			fmt.Sprintf("clone(child_stack=NULL, flags=CLONE_CHILD_CLEARTID|CLONE_CHILD_SETTID|SIGCHLD, child_tidptr=0x7f3a1c2b5a10) = %d", ev.PID))
	case trace.OpExit:
		r.emit(ev, trace.OpExit, "", "exit_group(0) = ?")
	case trace.OpDelete:
		r.emit(ev, trace.OpDelete, ev.Path, fmt.Sprintf("unlink(%s) = 0", q(ev.Path)))
	case trace.OpRename:
		r.emit(ev, trace.OpRename, ev.Path, fmt.Sprintf("rename(%s, %s) = 0", q(ev.Path), q(ev.Path2)))
	case trace.OpMkdir:
		r.emit(ev, trace.OpMkdir, ev.Path, fmt.Sprintf("mkdir(%s, 0755) = 0", q(ev.Path)))
	case trace.OpChdir:
		r.emit(ev, trace.OpChdir, ev.Path, fmt.Sprintf("chdir(%s) = 0", q(ev.Path)))
	case trace.OpSymlink:
		r.emit(ev, trace.OpSymlink, ev.Path, fmt.Sprintf("symlink(%s, %s) = 0", q(ev.Path2), q(ev.Path)))
	}
}

// spliceCrawler inserts an unknown indexer after the first at lines:
// forked by the shell, it execs a program the control file does not
// list as meaningless, never reads a directory (so the §4.1 heuristic
// has nothing to learn from), opens and closes files distinct paths,
// and exits. Its lines carry the timestamp of the line before them.
// Disconnections later than at move back by the lines inserted.
func (c *Corpus) spliceCrawler(at, files int) {
	ts := "08:00:00.000000"
	if at > 0 {
		ts = strings.Fields(c.Lines[at-1])[1]
	}
	t, _ := time.Parse("15:04:05.000000", ts)
	r := newRenderer()
	ev := trace.Event{Time: t, PID: crawlerPID, PPID: 50, Op: trace.OpFork}
	r.render(ev)
	ev.Op, ev.Path = trace.OpExec, "/usr/bin/indexer"
	r.render(ev)
	for i := 0; i < files; i++ {
		ev.Path = fmt.Sprintf("/srv/share/d%03d/f%05d.html", i/200, i)
		ev.Op = trace.OpOpen
		r.render(ev)
		ev.Op = trace.OpClose
		r.render(ev)
	}
	ev.Op, ev.Path = trace.OpExit, ""
	r.render(ev)
	c.Lines = slices.Insert(c.Lines, at, r.lines...)
	if c.Want != nil {
		c.Want = slices.Insert(c.Want, at, r.want...)
	}
	for i := range c.Discs {
		if c.Discs[i].At > at {
			c.Discs[i].At += len(r.lines)
		}
	}
}

// quote renders s as a strace string literal.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20 || c >= 0x7f:
			fmt.Fprintf(&b, "\\%03o", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func basename(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
