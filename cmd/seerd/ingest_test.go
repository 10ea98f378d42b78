package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/fmg/seer"
	"github.com/fmg/seer/internal/fault"
	"github.com/fmg/seer/internal/strace"
)

// goldenEvents is how many events golden.strace parses into.
const goldenEvents = 27

// goldenLines returns golden.strace's lines, newlines kept.
func goldenLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	return lines[:len(lines)-1] // the empty string after the last newline
}

// checkGolden waits until slot 0 has fed the golden trace and checks
// that it fed exactly its events and serves the golden /plan and /hoard.
func checkGolden(t *testing.T, h *host) {
	t.Helper()
	waitEvents(t, h, goldenEvents)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, ep := range []string{"plan", "hoard"} {
		code, _, body := httpGet(t, client, "http://"+h.addr()+"/"+ep)
		if want := readGolden(t, ep); code != http.StatusOK || body != want {
			t.Errorf("/%s: HTTP %d, body differs from golden\n--- got\n%s--- want\n%s", ep, code, body, want)
		}
	}
	if got := h.slot0().Events(); got != goldenEvents {
		t.Errorf("slot 0 fed %d events, want %d", got, goldenEvents)
	}
}

// postLines sends lines to slot 0 through POST /events.
func postLines(t *testing.T, h *host, lines []string) {
	t.Helper()
	resp, err := http.Post("http://"+h.addr()+"/events", "text/plain", strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /events: HTTP %d %q", resp.StatusCode, body)
	}
}

// followHost writes head to a fresh trace file, bootstraps a following
// seerd from it, and starts the host; the caller appends the rest.
func followHost(t *testing.T, head string, wrap func(io.Reader) io.Reader) (*host, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seer.strace")
	if err := os.WriteFile(path, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(path)
	rt.Daemon.Follow = true
	rt.Daemon.HoardBudgetMB = 1
	h := newTestHost(t, hostConfig{rt: rt})
	h.wrapTail = wrap
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := h.bootstrap(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	runTestHost(t, h)
	return h, path
}

// plainHost starts a seerd with no local input, bootstrapped from head.
func plainHost(t *testing.T, head string) *host {
	t.Helper()
	rt := testRuntime("-")
	rt.Daemon.HoardBudgetMB = 1
	h := newTestHost(t, hostConfig{rt: rt})
	if _, err := h.bootstrap(context.Background(), strings.NewReader(head)); err != nil {
		t.Fatal(err)
	}
	runTestHost(t, h)
	return h
}

// The golden trace gives the same plan through every way its lines can
// reach slot 0: one cold pass (also one-shot with -follow and no final
// newline), a cold pass of any prefix (even one ending inside a line)
// continued under -follow or through POST /events, /events alone in
// batches, and -follow through a tailer panic. Each feeds exactly the trace's events and serves the recorded
// /plan and /hoard; the library's ObserveStrace plans the same.
func TestIngestPathsAgree(t *testing.T) {
	oldPoll := followPoll
	followPoll = 5 * time.Millisecond
	defer func() { followPoll = oldPoll }()
	lines := goldenLines(t)
	all := strings.Join(lines, "")

	t.Run("bootstrap", func(t *testing.T) {
		checkGolden(t, plainHost(t, all))
	})
	for k := 0; k <= len(lines); k++ {
		t.Run(fmt.Sprintf("follow/k=%d", k), func(t *testing.T) {
			h, path := followHost(t, strings.Join(lines[:k], ""), nil)
			appendLine(t, path, strings.Join(lines[k:], ""))
			checkGolden(t, h)
		})
		t.Run(fmt.Sprintf("events-after/k=%d", k), func(t *testing.T) {
			h := plainHost(t, strings.Join(lines[:k], ""))
			if k < len(lines) {
				postLines(t, h, lines[k:])
			}
			checkGolden(t, h)
		})
	}
	t.Run("oneshot-follow/unterminated", func(t *testing.T) {
		// Without -listen nothing follows (Validate refuses -follow
		// there), so the cold pass parses the unterminated last line
		// itself.
		path := filepath.Join(t.TempDir(), "seer.strace")
		if err := os.WriteFile(path, []byte(strings.TrimSuffix(all, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		rt := testRuntime(path)
		rt.Daemon.Listen, rt.Daemon.HoardBudgetMB = "", 1
		h := newTestHost(t, hostConfig{rt: rt})
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if n, err := h.bootstrap(context.Background(), f); err != nil || n != goldenEvents {
			t.Fatalf("bootstrap: %d events, err %v; want %d", n, err, goldenEvents)
		}
		var out bytes.Buffer
		if code := printHoard(h, &out); code != 0 || out.String() != readGolden(t, "oneshot") {
			t.Errorf("one-shot exit %d, output differs from golden\n--- got\n%s", code, out.String())
		}
	})
	t.Run("follow/mid-line", func(t *testing.T) {
		cut := len(strings.Join(lines[:5], "")) + len(lines[5])/2
		h, path := followHost(t, all[:cut], nil)
		appendLine(t, path, all[cut:])
		checkGolden(t, h)
	})
	for _, size := range []int{1, 7, 30} {
		t.Run(fmt.Sprintf("events/batch=%d", size), func(t *testing.T) {
			h := plainHost(t, "")
			for i := 0; i < len(lines); i += size {
				postLines(t, h, lines[i:min(i+size, len(lines))])
			}
			checkGolden(t, h)
		})
	}
	t.Run("follow/tailer-panic", func(t *testing.T) {
		// The tailer reads a byte at a time, so the armed panic lands in
		// the middle of the last chunk's lines.
		trigger := fault.NewPanicAfter(0)
		h, path := followHost(t, strings.Join(lines[:10], ""), func(r io.Reader) io.Reader {
			return &fault.PanicReader{R: iotest.OneByteReader(r), After: trigger}
		})
		appendLine(t, path, strings.Join(lines[10:20], ""))
		evs, err := strace.NewParser().Parse(strings.NewReader(strings.Join(lines[:20], "")))
		if err != nil {
			t.Fatal(err)
		}
		waitEvents(t, h, uint64(len(evs)))
		rest := strings.Join(lines[20:], "")
		trigger.Arm(int64(len(rest) / 2))
		appendLine(t, path, rest)
		checkGolden(t, h)
		if n := h.sup.StageRestarts()["tailer"]; n == 0 {
			t.Error("the injected panic never restarted the tailer")
		}
	})
	t.Run("library", func(t *testing.T) {
		s := seer.New(seer.WithSeed(1))
		if err := s.ObserveStrace(strings.NewReader(all)); err != nil {
			t.Fatal(err)
		}
		var plan bytes.Buffer
		for i, e := range s.HoardPlan() {
			fmt.Fprintf(&plan, "%5d %8s %10d %12d %s\n", i, e.Reason, e.Size, e.Cum, e.Path)
		}
		if want := readGolden(t, "plan"); plan.String() != want || s.Events() != goldenEvents {
			t.Errorf("ObserveStrace: %d events, plan differs from golden\n--- got\n%s--- want\n%s",
				s.Events(), plan.String(), want)
		}
	})
}

// Cancelling the cold pass stops it promptly: bootstrap checks its
// context between batches, so it returns context.Canceled with at most
// one batch handed over.
func TestBootstrapCancelMidStream(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 4*batchLines; i++ {
		in.WriteString(chaosLine(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := newTestHost(t, hostConfig{rt: testRuntime("-")})
	defer h.mgr.Close()
	n, err := h.bootstrap(ctx, cancelOnRead{strings.NewReader(in.String()), cancel})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n == 0 || n > batchLines {
		t.Fatalf("handed over %d events after cancelling, want 1..%d", n, batchLines)
	}
}

// cancelOnRead cancels its context on every Read.
type cancelOnRead struct {
	io.Reader
	cancel context.CancelFunc
}

func (c cancelOnRead) Read(p []byte) (int, error) {
	c.cancel()
	return c.Reader.Read(p)
}
