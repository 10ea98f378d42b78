package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one seerd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs seerd with args plus a loopback -listen, logging to
// a file in dir, and returns once /readyz answers 200. The returned
// duration runs from exec to that answer.
func startDaemon(bin, dir string, args []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(dir, "seerd.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-listen", addr)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("exec seerd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(90 * time.Second)
	for {
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("seerd exited before ready: %s", tail(filepath.Join(dir, "seerd.log")))
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(start)
				probe.CloseIdleConnections()
				return d, ready, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("seerd not ready within 90s")
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuSeconds reads the process's user plus system CPU time, all threads
// included, from /proc/<pid>/stat. It counts only time the process ran:
// time the host's hypervisor gave to other machines (steal) is not in
// it, so it drifts less with the host's load than wall time does.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// stop sends SIGTERM, waits for the exit, and kills a daemon that has
// not gone within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

// tail returns the last line of a log file, for error reports.
func tail(path string) string {
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return lines[len(lines)-1]
}

// conn is one keep-alive HTTP connection to the daemon: requests on it
// are sequential, so a workload's connection count is its number of
// conns. A body it returns is valid until its next request: bodies are
// read into one reused buffer, so reading them does not make the
// benchmark collect garbage beside the daemon it measures.
type conn struct {
	base string
	c    *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// errStale marks a body served from the daemon's last-good cache.
var errStale = errors.New("stale body (X-Seer-Stale)")

// get fetches path and fails on anything but a fresh 200.
func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *conn) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *conn) do(req *http.Request) ([]byte, error) {
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	body := c.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, firstLine(body))
	}
	if resp.Header.Get("X-Seer-Stale") == "true" {
		return nil, errStale
	}
	return body, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// statsEvents reads the events line of /stats.
func (c *conn) statsEvents(ctx context.Context, query string) (int, error) {
	body, err := c.get(ctx, "/stats"+query)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "events" {
			return strconv.Atoi(f[1])
		}
	}
	return 0, errors.New("/stats has no events line")
}

// metrics is one /metrics scrape: sample value by series text
// (`name{labels}`).
type metrics map[string]float64

func (c *conn) scrape(ctx context.Context) (metrics, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Drop a bucket's exemplar: `... 3 # {trace_id="…"} 0.0128`.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[line[:sp]] = v
	}
	return m, sc.Err()
}

// sum adds every series of family name whose labels contain each of
// the label matchers (`key="value"`).
func (m metrics) sum(name string, labels ...string) float64 {
	var t float64
	for series, v := range m {
		fam, lab := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			fam, lab = series[:i], series[i:]
		}
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// add adds o to m, series by series.
func (m metrics) add(o metrics) {
	for k, v := range o {
		m[k] += v
	}
}

// delta returns after − before, series by series.
func delta(before, after metrics) metrics {
	d := metrics{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// histP50 estimates the median of histogram family name, over the
// series whose labels keep accepts, from the summed cumulative buckets,
// interpolating linearly inside the bucket that holds it. It returns the
// median in the family's unit and the observation count.
func (m metrics) histP50(name string, keep func(labels string) bool) (float64, float64) {
	type bucket struct{ le, n float64 }
	byLE := map[float64]float64{}
	for series, v := range m {
		if !strings.HasPrefix(series, name+"_bucket{") {
			continue
		}
		lab := series[len(name)+len("_bucket"):]
		if !keep(lab) {
			continue
		}
		i := strings.Index(lab, `le="`)
		if i < 0 {
			continue
		}
		s := lab[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue
		}
		byLE[le] += v
	}
	bs := make([]bucket, 0, len(byLE))
	for le, n := range byLE {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].n
	half := total / 2
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= half {
			hi := b.le
			if hi > 1e300 { // +Inf: report the lower edge
				return prevLE, total
			}
			if b.n == prevN {
				return hi, total
			}
			return prevLE + (hi-prevLE)*(half-prevN)/(b.n-prevN), total
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE, total
}
