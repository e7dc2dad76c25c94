// Command mrperf is the performance observatory's CLI: it runs the
// registered benchmark suites, persists versioned BENCH_<suite>.json
// records, compares records with significance testing (the regression
// gate), and renders a live daemon's workload analytics from /v1/stats.
// Profiles are `go tool pprof`'s: `run -profile DIR` writes each
// benchmark's raw CPU and heap profiles, and a daemon's -debug-addr
// listener serves its own.
//
// Usage:
//
//	mrperf list                               registered suites
//	mrperf run -suite kernels -o BENCH_kernels.json [-profile DIR]
//	mrperf smoke [-suite NAME]                1-iteration existence check
//	mrperf diff OLD.json NEW.json             compare; exit 1 on regression
//	mrperf gate -suites kernels,order_search  rerun + compare vs. baselines
//	mrperf top -addr http://127.0.0.1:8077    render /v1/stats
//
//	go tool pprof -top DIR/<name>.cpu.pprof   where a benchmark's time went
//	go tool pprof -top -sample_index=alloc_space DIR/<name>.heap.pprof
//	go tool pprof -top -diff_base OLD/<name>.cpu.pprof NEW/<name>.cpu.pprof
//	go tool pprof -top 'http://127.0.0.1:8078/debug/pprof/profile?seconds=5'
//
// run/gate stamp records with the git SHA and timestamp passed via -git
// and -ts (defaulting to `git rev-parse --short HEAD` and the current
// UTC time), so trajectories are attributable without the harness
// guessing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/mapd"
	"repro/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Stdout)
	case "run":
		err = cmdRun(os.Args[2:])
	case "smoke":
		err = cmdSmoke(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "gate":
		err = cmdGate(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "mrperf: unknown command %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrperf:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: mrperf <command> [flags]

  list      registered benchmark suites
  run       run one suite and write its BENCH_<suite>.json record
  smoke     run every benchmark once (1 iteration) as an existence check
  diff      compare two records; exit 1 when a benchmark regressed
  gate      rerun suites and compare against committed baselines
  top       render a live daemon's /v1/stats workload analytics

run -profile DIR writes DIR/<name>.cpu.pprof and DIR/<name>.heap.pprof per
benchmark; read them, or a daemon's -debug-addr listener, with go tool pprof:

  go tool pprof -top DIR/<name>.cpu.pprof
  go tool pprof -top -sample_index=alloc_space DIR/<name>.heap.pprof
  go tool pprof -top -diff_base OLD/<name>.cpu.pprof NEW/<name>.cpu.pprof
  go tool pprof -top 'http://127.0.0.1:8078/debug/pprof/profile?seconds=5'
`)
}

func cmdList(w io.Writer) error {
	for _, s := range perf.Suites() {
		fmt.Fprintf(w, "%-14s %2d benchmarks  gate ±%.0f%%  %s\n",
			s.Name, len(s.Benches), 100*s.Threshold, s.Description)
	}
	return nil
}

// stamp resolves the record attribution: explicit flags win, otherwise
// the git SHA comes from the working tree and the timestamp from the
// clock.
func stamp(gitSHA, ts string) (string, string) {
	if gitSHA == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			gitSHA = strings.TrimSpace(string(out))
		} else {
			gitSHA = "unknown"
		}
	}
	if ts == "" {
		ts = time.Now().UTC().Format(time.RFC3339)
	}
	return gitSHA, ts
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suite := fs.String("suite", "", "suite to run (required; see mrperf list)")
	out := fs.String("o", "", "output record path (default BENCH_<suite>.json)")
	reps := fs.Int("reps", 5, "independent samples per benchmark")
	benchTime := fs.Duration("benchtime", 200*time.Millisecond, "per-sample target duration")
	profile := fs.String("profile", "", "write each benchmark's CPU and heap pprof profiles into this directory")
	gitSHA := fs.String("git", "", "git SHA to stamp (default: git rev-parse --short HEAD)")
	ts := fs.String("ts", "", "RFC3339 timestamp to stamp (default: now, UTC)")
	quiet := fs.Bool("q", false, "suppress per-benchmark progress lines")
	_ = fs.Parse(args)
	if *suite == "" {
		return fmt.Errorf("run: -suite is required (see mrperf list)")
	}
	s, err := perf.FindSuite(*suite)
	if err != nil {
		return err
	}
	sha, when := stamp(*gitSHA, *ts)
	opts := perf.RunOptions{Reps: *reps, BenchTime: *benchTime, Profile: *profile}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rec, err := perf.RunSuite(s, sha, when, opts)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = "BENCH_" + s.Name + ".json"
	}
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks, git %s)\n", path, len(rec.Results), sha)
	return nil
}

func cmdSmoke(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	suite := fs.String("suite", "", "suite to smoke (default: all)")
	_ = fs.Parse(args)
	suites := perf.Suites()
	if *suite != "" {
		s, err := perf.FindSuite(*suite)
		if err != nil {
			return err
		}
		suites = []perf.Suite{s}
	}
	for _, s := range suites {
		rec, err := perf.RunSuite(s, "", "", perf.RunOptions{Smoke: true})
		if err != nil {
			return fmt.Errorf("smoke %s: %w", s.Name, err)
		}
		fmt.Printf("smoke %-14s ok (%d benchmarks)\n", s.Name, len(rec.Results))
	}
	return nil
}

// diffRecords loads, compares and reports two record files; it reports
// whether the new record regressed.
func diffRecords(w io.Writer, oldPath, newPath string, opts perf.DiffOptions) (bool, error) {
	old, err := perf.ReadRecord(oldPath)
	if err != nil {
		return false, err
	}
	new_, err := perf.ReadRecord(newPath)
	if err != nil {
		return false, err
	}
	return diffLoaded(w, old, new_, opts)
}

func diffLoaded(w io.Writer, old, new_ *perf.Record, opts perf.DiffOptions) (bool, error) {
	if opts.Threshold == 0 {
		// Default the gate width to the suite's own threshold.
		if s, err := perf.FindSuite(old.Suite); err == nil {
			opts.Threshold = s.Threshold
		}
	}
	d, err := perf.Diff(old, new_, opts)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, d.Format())
	return len(d.Regressions()) > 0, nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0, "relative slowdown gate (default: the suite's)")
	alpha := fs.Float64("alpha", 0.05, "significance level")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want OLD.json NEW.json")
	}
	regressed, err := diffRecords(os.Stdout, fs.Arg(0), fs.Arg(1),
		perf.DiffOptions{Threshold: *threshold, Alpha: *alpha})
	if err != nil {
		return err
	}
	if regressed {
		return fmt.Errorf("performance regressed beyond the gate")
	}
	return nil
}

func cmdGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	suites := fs.String("suites", "kernels,order_search", "comma-separated suites to gate")
	dir := fs.String("dir", ".", "directory holding the baseline BENCH_<suite>.json files")
	reps := fs.Int("reps", 5, "independent samples per benchmark")
	benchTime := fs.Duration("benchtime", 200*time.Millisecond, "per-sample target duration")
	keep := fs.String("keep", "", "also write the fresh records into this directory")
	gitSHA := fs.String("git", "", "git SHA to stamp (default: git rev-parse --short HEAD)")
	ts := fs.String("ts", "", "RFC3339 timestamp to stamp (default: now, UTC)")
	_ = fs.Parse(args)

	sha, when := stamp(*gitSHA, *ts)
	failed := false
	for _, name := range strings.Split(*suites, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := perf.FindSuite(name)
		if err != nil {
			return err
		}
		baseline := *dir + "/BENCH_" + name + ".json"
		old, err := perf.ReadRecord(baseline)
		if err != nil {
			return fmt.Errorf("gate %s: baseline: %w", name, err)
		}
		fmt.Printf("== gate %s (baseline git %s, ±%.0f%%)\n", name, old.GitSHA, 100*s.Threshold)
		fresh, err := perf.RunSuite(s, sha, when, perf.RunOptions{
			Reps: *reps, BenchTime: *benchTime,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			return fmt.Errorf("gate %s: %w", name, err)
		}
		if *keep != "" {
			if err := fresh.WriteFile(*keep + "/BENCH_" + name + ".json"); err != nil {
				return err
			}
		}
		regressed, err := diffLoaded(os.Stdout, old, fresh, perf.DiffOptions{Threshold: s.Threshold})
		if err != nil {
			return err
		}
		if regressed {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("performance regressed beyond the gate")
	}
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8077", "daemon base URL")
	n := fs.Int("n", 10, "shape classes to show")
	_ = fs.Parse(args)
	resp, err := http.Get(strings.TrimRight(*addr, "/") + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("/v1/stats: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var rep mapd.StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return err
	}
	renderStats(os.Stdout, rep, *n)
	return nil
}

func renderStats(w io.Writer, rep mapd.StatsReport, n int) {
	fmt.Fprintf(w, "requests %d   cache hit rate %.1f%%   classes %d tracked / ~%d seen (K=%d, %d evictions)\n",
		rep.TotalRequests, 100*rep.CacheHitRate, rep.TrackedClasses,
		rep.DistinctClassesEstimate, rep.MaxClasses, rep.Evictions)

	if len(rep.Endpoints) > 0 {
		fmt.Fprintf(w, "endpoints:    %s\n", joinCounts(rep.Endpoints))
	}
	if len(rep.SearchModes) > 0 {
		fmt.Fprintf(w, "search modes: %s\n", joinCounts(rep.SearchModes))
	}
	if len(rep.Collectives) > 0 {
		fmt.Fprintf(w, "collectives:  %s\n", joinCounts(rep.Collectives))
	}
	if len(rep.Depths) > 0 {
		var parts []string
		for _, d := range rep.Depths {
			parts = append(parts, fmt.Sprintf("depth %d: %d", d.Depth, d.Requests))
		}
		fmt.Fprintf(w, "depths:       %s\n", strings.Join(parts, "  "))
	}
	classes := rep.Classes
	if len(classes) > n {
		classes = classes[:n]
	}
	if len(classes) > 0 {
		fmt.Fprintf(w, "%-18s %10s %8s %9s %10s %10s\n",
			"shape", "requests", "±err", "hit rate", "p50", "p99")
		for _, c := range classes {
			fmt.Fprintf(w, "%-18s %10d %8d %8.1f%% %8.2fms %8.2fms\n",
				c.Shape, c.Requests, c.CountErr, 100*c.CacheHitRate, c.P50Ms, c.P99Ms)
		}
	}
}

func joinCounts(m map[string]uint64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %d", k, m[k]))
	}
	return strings.Join(parts, "  ")
}
