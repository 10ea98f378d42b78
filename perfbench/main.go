// Command perfbench is the repository's end-to-end benchmark. It drives
// a real seerd binary over HTTP with paper-scale machine-G corpora
// rendered as `strace -f -tt` text, checks the bodies it is served
// against an in-process reference, and prints one JSON result line.
//
//	perfbench -seerd <binary> --workload live-ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports per-layer metrics instead: the reference
// replay records a span around every call into a layer, and /metrics
// deltas from the same run stand beside them. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: live-ingest or scan-ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "reading time in seconds (at least 18)")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	seerd := flag.String("seerd", "", "seerd binary under test")
	work := flag.String("work", ".bench_build/perfbench", "scratch directory for run files")
	flag.Parse()

	sp, ok := specs[*wl]
	if !ok || *seerd == "" || *seconds < 18 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seerd, --workload live-ingest|scan-ingest, --seconds ≥ 18 and --trace 0|1")
		os.Exit(2)
	}
	// The benchmark shares the host's two cores with the daemon.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &run{spec: sp, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		seerd: *seerd, dir: dir, notes: map[string]any{}}
	res, err := r.execute(ctx, *work)
	os.RemoveAll(dir)
	if err != nil {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", e)
		}
		stop()
		fail(err)
	}
	out, _ := json.Marshal(map[string]any{"host": hostInfo(), "workload": *wl, "seed": *seed, "notes": r.notes})
	fmt.Println(string(out))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		stop()
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute prepares the inputs, measures the daemon and assembles the
// metrics the mode reports.
func (r *run) execute(ctx context.Context, work string) (*result, error) {
	t0 := time.Now()
	if err := r.prepare(ctx); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	r.note("prepare_s", time.Since(t0).Seconds())
	if r.traced {
		r.overheadPct = r.tracingOverhead()
	}
	// Only the expected digests are needed from here on: let the rest
	// go so the benchmark's heap stays small beside the daemon.
	runtime.GC()
	t1 := time.Now()
	steal0, total0 := cpuSteal()
	m, err := r.measure(ctx)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	r.note("measure_s", time.Since(t1).Seconds())
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.note("host_steal_pct", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	r.note("errors", r.errs)
	res := &result{Attempted: r.attempted, Failed: r.failed}
	all, err := r.endToEnd(m)
	if err != nil {
		return nil, err
	}
	mm := all
	if r.traced {
		mm = r.layerMetrics(m)
		for _, k := range unsteady {
			mm[k] = all[k]
		}
		path := filepath.Join(work, fmt.Sprintf("spans-%s.tsv.gz", r.spec.name))
		if err := writeSpans(path, r.recs); err != nil {
			return nil, err
		}
		r.note("spans", path)
	} else {
		shown := map[string]float64{}
		for _, k := range unsteady {
			shown[k] = all[k].Value
			delete(mm, k)
		}
		r.note("unsteady", shown)
	}
	res.Metrics = mm
	res.Correct = r.failed == 0
	return res, nil
}

// unsteady are user-visible metrics that a run reports per layer, not
// end to end. They are all timings, and on a shared two-vCPU host
// their interquartile range over ten seeds passed a quarter of the
// median, the widest bound a gate may have, whenever the host's other
// tenants changed what they ran during a set: within twenty minutes the
// daemon's CPU time per event fell from 9.5 to 6.3 µs and rose again to
// 11.9 µs, with almost no steal time to show for it.
// Dividing by a reference loop timed in the same run did not steady
// them. Read latency amplifies the host's load further, and a ready time
// also depends on what the other connection posts while the
// disconnecting user's last batch is fed. An untraced run prints these
// as notes.
var unsteady = []string{"ingest_eps", "ingest_cpu_us_per_event", "read_cpu_us_per_req",
	"read_low_p50_ms", "read_high_p50_ms", "read_low_p90_ms", "read_high_p90_ms",
	"read_max_rps", "ready_p50_ms", "ready_p90_ms"}

// endToEnd assembles the user-visible metrics.
func (r *run) endToEnd(m *e2e) (map[string]metric, error) {
	out := map[string]metric{}
	var missing []string
	put := func(name, unit string, v float64, ok bool) {
		if !ok || v <= 0 {
			missing = append(missing, name)
			return
		}
		out[name] = metric{v, unit}
	}
	put("setup_s", "s", median(m.setup), true)
	lowP90, lok := m.low.p90()
	highP90, hok := m.high.p90()
	put("read_low_p50_ms", "ms", median(m.low.lat), true)
	put("read_low_p90_ms", "ms", lowP90, lok)
	put("read_high_p50_ms", "ms", median(m.high.lat), true)
	put("read_high_p90_ms", "ms", highP90, hok)
	put("read_max_rps", "req/s", m.maxRPS, true)
	put("ingest_eps", "events/s", median(m.ingestEPS), true)
	put("ingest_cpu_us_per_event", "us", median(m.ingestCPU), true)
	put("read_cpu_us_per_req", "us", m.readCPUSec*1e6/float64(m.low.attempted+m.high.attempted), true)
	put("ready_p50_ms", "ms", median(m.readyP50), true)
	put("ready_p90_ms", "ms", quantile(m.ready, 0.9), float64(len(m.ready))*0.1 >= 10)
	mf, _ := r.quality()
	put("missfree_mb", "MB", mf, true)
	put("peak_rss_mb", "MB", median(m.rss), true)
	r.note("samples", map[string]int{
		"setup": len(m.setup), "read_low": len(m.low.lat), "read_high": len(m.high.lat),
		"ladder_probes": len(m.probes), "ready": len(m.ready), "ingest_events": m.ingestEv,
	})
	fetch := make([]float64, len(m.ready))
	for i := range m.ready {
		fetch[i] = m.ready[i] - m.drain[i]
	}
	r.note("rounds", map[string][]float64{"ingest_eps": m.ingestEPS, "ingest_cpu_us_per_event": m.ingestCPU,
		"ready_p50_ms": m.readyP50, "peak_rss_mb": m.rss})
	r.note("ready_parts_ms_p50", map[string]float64{"drain": median(m.drain), "hoard": median(fetch)})
	r.note("generator_lag_ms_max", map[string]float64{
		"read_low": quantile(m.low.lag, 1), "read_high": quantile(m.high.lag, 1)})
	if len(missing) > 0 {
		return nil, fmt.Errorf("no usable value for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// quality averages the paper §5.2.1 measures over every checkpoint that
// uses a planned file: the miss-free hoard size in MB, and the share of
// the used files absent from the served plan, in percent.
func (r *run) quality() (missFreeMB, unhoardablePct float64) {
	var mf, share float64
	var n, nu int
	for _, u := range r.users {
		for _, cp := range u.cps {
			if cp.missFree > 0 {
				mf += float64(cp.missFree) / (1 << 20)
				n++
			}
			if cp.used > 0 {
				share += 100 * float64(cp.unhoard) / float64(cp.used)
				nu++
			}
		}
	}
	if n == 0 || nu == 0 {
		return 0, 0
	}
	return mf / float64(n), share / float64(nu)
}

// hostInfo is the machine a result was measured on.
func hostInfo() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "kernel": kernel, "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuSteal reads the host's cumulative steal time and total CPU time,
// in clock ticks, from /proc/stat: time the hypervisor gave this
// machine's virtual CPUs to others, a measure of how shared the host
// was during a run.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
