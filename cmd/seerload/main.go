// Command seerload is the closed-loop capacity harness: it ramps
// Poisson-interarrival /miss, /plan, /hoard, and rumor-sync traffic
// from a pool of simulated clients against a live seerd (plain or
// -shards N gateway, with -rumor for the sync traffic), detects
// overload, fits a Universal
// Scaling Law capacity model, and records or checks the BENCH_load.json
// baseline so capacity regressions fail CI.
//
//	seerd -addr :7077 &
//	seerload -target http://localhost:7077 -record BENCH_load.json
//	seerload -target http://localhost:7077 -check BENCH_load.json
//
// Against a sharded gateway, add -seed-events so routed users have
// reference histories to plan over:
//
//	seerd -shards 4 -addr :7077 &
//	seerload -target http://localhost:7077 -prefix Load/shards4 -seed-events 200
//
// -record merges into an existing baseline (entries under other
// prefixes survive), so one baseline file holds plain and sharded
// capacity side by side.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/fmg/seer/internal/benchcmp"
	"github.com/fmg/seer/internal/load"
)

func main() {
	var (
		target  = flag.String("target", "", "seerd base URL (required)")
		rumor   = flag.String("rumor", "", "replication master base URL; enables sync ops")
		clients = flag.Int("clients", 64, "concurrent simulated clients")
		users   = flag.Int("users", 0, "distinct user identities (default: one per client)")
		seed    = flag.Int64("seed", 1, "RNG seed: interarrival gaps, op choices, paths")
		mixFlag = flag.String("mix", "", "op weights, e.g. plan=2,hoard=1,miss=5,sync=2")

		startRPS = flag.Float64("start-rps", 50, "offered load of the first step")
		stepRPS  = flag.Float64("step-rps", 50, "offered-load increment per step")
		steps    = flag.Int("steps", 8, "maximum ramp steps")
		stepDur  = flag.Duration("step-dur", 5*time.Second, "duration of each step")

		failThreshold = flag.Float64("fail-threshold", 0.3, "per-step failure rate marking overload")
		tolerance     = flag.Int("overload-tolerance", 2, "consecutive overloaded steps that stop the ramp")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-request timeout")

		seedEvents = flag.Int("seed-events", 0, "strace events to POST /events per user before the ramp")
		syncFiles  = flag.Int("sync-files", 64, "replicated-file id space for sync ops")

		prefix = flag.String("prefix", "Load", "benchcmp entry prefix, e.g. Load or Load/shards4")
		record = flag.String("record", "", "merge results into this baseline file")
		check  = flag.String("check", "", "compare results against this baseline file")
		rpsTol = flag.Float64("rps-tolerance", 0.2, "allowed fractional throughput drop before failing -check")
		p99Tol = flag.Float64("p99-tolerance", 2.0, "allowed fractional p99 latency growth before failing -check (latency is noisy at smoke scale; keep this loose)")
		detail = flag.String("o", "", "write the full per-step result JSON here")
		quiet  = flag.Bool("q", false, "suppress per-step progress lines")
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "seerload: -target is required")
		os.Exit(2)
	}
	if *record != "" && *check != "" {
		fmt.Fprintln(os.Stderr, "seerload: -record and -check are mutually exclusive")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seerload: %v\n", err)
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "seerload: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := load.Run(ctx, load.Options{
		Target:            *target,
		Rumor:             *rumor,
		Clients:           *clients,
		Users:             *users,
		Seed:              *seed,
		Mix:               mix,
		StartRPS:          *startRPS,
		StepRPS:           *stepRPS,
		MaxSteps:          *steps,
		StepDur:           *stepDur,
		FailThreshold:     *failThreshold,
		OverloadTolerance: *tolerance,
		Timeout:           *timeout,
		SeedEvents:        *seedEvents,
		SyncFiles:         *syncFiles,
		Logf:              logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seerload: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("peak: %.1f req/s at step %d (%d steps%s)\n",
		res.PeakRPS, res.PeakStep, len(res.Steps),
		map[bool]string{true: ", stopped on overload"}[res.Overloaded])
	if res.Fit != nil {
		fmt.Printf("usl:  %s\n", res.Fit)
	} else {
		fmt.Println("usl:  too few usable steps to fit")
	}

	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fmt.Fprintf(os.Stderr, "seerload: %v\n", err)
			os.Exit(1)
		}
	}

	switch {
	case *record != "":
		rep := readBaseline(*record) // missing file → empty report
		res.MergeInto(rep, *prefix)
		f, err := os.Create(*record)
		if err == nil {
			if err = rep.WriteJSON(f); err == nil {
				err = f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seerload: write %s: %v\n", *record, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "seerload: recorded %s entries to %s\n", *prefix, *record)
	case *check != "":
		cur := &benchcmp.Report{}
		res.MergeInto(cur, *prefix)
		base := readBaseline(*check)
		if len(base.Benchmarks) == 0 {
			fmt.Fprintf(os.Stderr, "seerload: no baseline %s; skipping check (run with -record to create)\n", *check)
			return
		}
		regs, adds := benchcmp.Diff(base, cur,
			benchcmp.Tolerances{RPS: *rpsTol, Ns: *p99Tol, Alloc: *p99Tol})
		for _, a := range adds {
			fmt.Fprintf(os.Stderr, "seerload: NEW %s (not in baseline; -record to adopt)\n", a.Name)
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "seerload: REGRESSION %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "seerload: capacity within tolerance of %s\n", *check)
	}
}

// parseMix reads "plan=2,hoard=1,miss=5,sync=2"; empty means defaults.
func parseMix(s string) (load.Mix, error) {
	var m load.Mix
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad -mix element %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad -mix weight %q", part)
		}
		switch k {
		case "plan":
			m.Plan = w
		case "hoard":
			m.Hoard = w
		case "miss":
			m.Miss = w
		case "sync":
			m.Sync = w
		default:
			return m, fmt.Errorf("unknown -mix op %q", k)
		}
	}
	return m, nil
}

func readBaseline(path string) *benchcmp.Report {
	f, err := os.Open(path)
	if err != nil {
		return &benchcmp.Report{}
	}
	defer f.Close()
	rep, err := benchcmp.ReadJSON(f)
	if err != nil {
		return &benchcmp.Report{}
	}
	return rep
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
