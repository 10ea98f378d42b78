package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// goldenTrace is the strace fixture the golden bodies were recorded
// from, with `seerd -strace golden.strace -budget 1`.
var goldenTrace = filepath.Join("..", "..", "internal", "strace", "testdata", "golden.strace")

// goldenHost opens a plain seerd over the golden trace at a 1 MB
// budget, bootstrapped.
func goldenHost(t *testing.T) *host {
	t.Helper()
	rt := testRuntime(goldenTrace)
	rt.Daemon.HoardBudgetMB = 1
	h := newTestHost(t, hostConfig{rt: rt})
	f, err := os.Open(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := h.bootstrap(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	return h
}

// readGolden returns testdata/golden/name.txt.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A plain seerd over the golden trace serves /plan, /hoard, /clusters
// and /stats, and prints its one-shot hoard, byte for byte as recorded
// in testdata/golden (the hoard lists its files in plan order).
func TestGoldenBodiesByteIdentical(t *testing.T) {
	h := goldenHost(t)
	runTestHost(t, h)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, ep := range []string{"plan", "hoard", "clusters", "stats"} {
		code, _, body := httpGet(t, client, "http://"+h.addr()+"/"+ep)
		if code != http.StatusOK {
			t.Fatalf("/%s: HTTP %d %q", ep, code, body)
		}
		if want := readGolden(t, ep); body != want {
			t.Errorf("/%s body differs from golden\n--- got\n%s--- want\n%s", ep, body, want)
		}
	}

	oneShot := goldenHost(t)
	var out bytes.Buffer
	if code := printHoard(oneShot, &out); code != 0 {
		t.Fatalf("one-shot exit code %d", code)
	}
	if got, want := out.String(), readGolden(t, "oneshot"); got != want {
		t.Errorf("one-shot output differs from golden\n--- got\n%s--- want\n%s", got, want)
	}
}
