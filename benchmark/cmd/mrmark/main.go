// Command mrmark is the repository's benchmark: five workloads, five
// end-to-end metrics on each, every answer checked, and in a separate
// traced run the per-layer metrics.
//
//	go run -C benchmark ./cmd/mrmark                       # all workloads, one table
//	go run -C benchmark ./cmd/mrmark -workload serve_hot   # one run; last line is the result as JSON
//	go run -C benchmark ./cmd/mrmark -workload serve_hot -trace 1
//	go run -C benchmark ./cmd/mrmark -selfcheck            # every workload twice, compared
//	go run -C benchmark ./cmd/mrmark -regen-golden         # rewrite golden/ (a benchmark change)
//
// See ../../README.md for what each workload and metric is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/harness"
	"repro/benchmark/inproc"
	"repro/benchmark/serve"
)

// workloadNames lists the workloads in the order they are reported.
var workloadNames = []string{"serve_hot", "serve_cold", "search_deep", "sim_figs", "enum_core"}

// probeFamily names, for each workload, the probes of cmd/mrlayers that
// time the layers its ops spend their time in; the traced run of a
// workload runs that family and no other.
var probeFamily = map[string]string{"serve_hot": "serving", "serve_cold": "rank", "search_deep": "deep",
	"sim_figs": "sim", "enum_core": "core"}

// setupReps is how many set-ups an untraced run times; setup_s is their
// median. The first is the run's own, which the window follows; the others
// are made after the window, each in a fresh process of this program, so
// that every one of them is a boot from nothing and none of them leaves
// its heap or resident set to the window.
const setupReps = 3

// dirs locates the benchmark's files. mrmark runs from the benchmark
// directory (go run -C benchmark, run.sh) or from the repository root.
type dirs struct {
	bench string // this module
	root  string // the repository: cmd/, results/
	out   string // build outputs, logs, traces, results; ignored by git
}

func locate() (dirs, error) {
	for _, b := range []string{".", "benchmark"} {
		if _, err := os.Stat(filepath.Join(b, "cmd", "mrmark", "main.go")); err == nil {
			d := dirs{bench: b, root: filepath.Join(b, ".."), out: filepath.Join(b, "out")}
			if _, err := os.Stat(filepath.Join(d.root, "cmd", "mrserved")); err != nil {
				return d, fmt.Errorf("mrmark: %s is not inside the repository: %w", b, err)
			}
			for _, sub := range []string{"bin", "logs"} {
				if err := os.MkdirAll(filepath.Join(d.out, sub), 0o755); err != nil {
					return d, err
				}
			}
			return d, nil
		}
	}
	return dirs{}, fmt.Errorf("mrmark: run from the repository root or from benchmark/")
}

// goBuild builds packages of the module in dir into out/bin. The build is
// shared by all workloads and is not part of any set-up time.
func goBuild(d dirs, dir string, pkgs ...string) error {
	bin, err := filepath.Abs(filepath.Join(d.out, "bin"))
	if err != nil {
		return err
	}
	cmd := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("mrmark: go build %v: %w", pkgs, err)
	}
	return nil
}

// running is a set-up workload.
type running interface {
	System() harness.System
	PeakRSSMB() (float64, error)
	// Verify checks the window's answers outside the timed path and
	// returns how many were wrong, with the first failure.
	Verify() (int, error)
	Close()
}

// ready is a set-up workload with what the window needs to drive it.
type ready struct {
	running
	sched   *harness.Schedule
	classes []harness.Class
	first   int // index of the window's first op; earlier ones were the warm-up
	// tiered: the classes' latencies stay apart under load, so the class
	// of the p50 and p90 samples must not change from run to run.
	tiered bool
}

// setupFunc sets a workload up for a seed: boots and warms the system.
type setupFunc func(seed int64) (*ready, error)

type serveRun struct {
	*serve.Running
	golden *serve.Golden
}

func (s serveRun) Verify() (int, error) { return s.Running.Verify(s.golden) }

// inprocRun is an in-process workload: the system under test is this
// process, and there is nothing to stop.
type inprocRun struct {
	inprocWorkload
}

type inprocWorkload interface {
	Classes() []harness.Class
	System() harness.System
	Verify() (int, error)
}

func (inprocRun) PeakRSSMB() (float64, error) { return harness.PeakRSSMB(0) }
func (inprocRun) Close()                      {}

// warmed schedules an in-process workload for seed and runs its first
// warmOps ops.
func warmed(w inprocWorkload, seed int64, warmOps int) (*ready, error) {
	sched, err := harness.NewSchedule(w.Classes(), seed)
	if err != nil {
		return nil, err
	}
	if err := harness.WarmUp(sched, w.System(), 0, warmOps); err != nil {
		return nil, err
	}
	return &ready{inprocRun{w}, sched, w.Classes(), warmOps, true}, nil
}

// Warm-up of the in-process workloads: enough ops to touch every class and
// grow the heap to its working size. enum_core's ops are a few
// milliseconds each; a hundred of them make a set-up long enough to time.
const (
	simWarmOps  = 10
	enumWarmOps = 100
)

// workload returns the set-up function of the named workload. With build
// it first builds the server binaries a serving workload boots; the child
// of setupInChild finds them built by its parent.
func workload(d dirs, name string, build bool) (setupFunc, error) {
	golden := func(file string, v harness.Counted) error {
		return harness.ReadGolden(filepath.Join(d.bench, "golden", file), v)
	}
	if w, ok := serve.Workloads()[name]; ok {
		g := &serve.Golden{}
		if err := golden("serve.json", g); err != nil {
			return nil, err
		}
		if build {
			if err := goBuild(d, d.root, "./cmd/mrgate", "./cmd/mrserved"); err != nil {
				return nil, err
			}
		}
		return func(seed int64) (*ready, error) {
			sched, err := harness.NewSchedule(w.Classes(), seed)
			if err != nil {
				return nil, err
			}
			r, first, err := w.Setup(sched, seed, filepath.Join(d.out, "bin"), filepath.Join(d.out, "logs"))
			if err != nil {
				return nil, err
			}
			return &ready{serveRun{r, g}, sched, w.Classes(), first, w.Tiered}, nil
		}, nil
	}
	switch name {
	case "sim_figs":
		g := &inproc.SimGolden{}
		if err := golden("sim_figs.json", g); err != nil {
			return nil, err
		}
		return func(seed int64) (*ready, error) {
			w, err := inproc.NewSimFigs(d.root, g)
			if err != nil {
				return nil, err
			}
			r, err := warmed(w, seed, simWarmOps)
			w.Reset() // the warm-up's results are not the window's
			return r, err
		}, nil
	case "enum_core":
		g := &inproc.EnumGolden{}
		if err := golden("enum_core.json", g); err != nil {
			return nil, err
		}
		return func(seed int64) (*ready, error) {
			w, err := inproc.NewEnumCore(seed, g)
			if err != nil {
				return nil, err
			}
			return warmed(w, seed, enumWarmOps)
		}, nil
	}
	return nil, fmt.Errorf("mrmark: unknown workload %q (have %v)", name, workloadNames)
}

// result is one run, as written to out/result-*.json and compared by
// -selfcheck.
type result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Traced   bool     `json:"traced"`
	Correct  bool     `json:"correct"`
	Ops      opCounts `json:"ops"`
	Wrong    int      `json:"wrong_answers"`
	// SubWindows are the equal stretches of the window whose median the
	// throughput and the CPU per op are; Setups the set-up times whose
	// median setup_s is.
	SubWindows [harness.SubWindows]harness.SubWindow `json:"sub_windows"`
	Setups     []float64                             `json:"setups_s,omitempty"`
	PeakRSSMB  float64                               `json:"peak_rss_mb"` // the traced run's proc.peak_rss_mb
	Failure    string                                `json:"first_failure,omitempty"`
	Tiered     bool                                  `json:"tiered"`
	P50Class   string                                `json:"p50_class"`
	P90Class   string                                `json:"p90_class"`
	Metrics    map[string]float64                    `json:"metrics"`
}

type opCounts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

// runOne performs one run of one workload.
func runOne(d dirs, name string, seed int64, seconds int, traced bool) (*result, error) {
	setup, err := workload(d, name, true)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := goBuild(d, d.bench, "./cmd/mrlayers"); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	sys, err := setup(seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	var closeOnce sync.Once
	closeSys := func() { closeOnce.Do(sys.Close) }
	defer closeSys()
	sched, classes := sys.sched, sys.classes
	// A signal must not leave the fleet behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		closeSys()
		os.Exit(1)
	}()
	if err := harness.CheckMargins(classes, 50, 90); err != nil {
		return nil, err
	}

	var rec *harness.Recorder
	var before serve.Counters
	srv, serving := sys.running.(serveRun)
	if traced {
		rec = harness.NewRecorder(sys.System().Clients)
		if serving {
			if before, err = srv.ReadCounters(); err != nil {
				return nil, err
			}
		}
	}
	length := time.Duration(seconds) * time.Second
	win, err := harness.RunWindow(sched, sys.System(), sys.first, length, rec)
	if err != nil {
		return nil, err
	}
	if len(win.Samples) == 0 {
		return nil, fmt.Errorf("mrmark: no op of %s completed in %v", name, length)
	}
	sum := harness.Summarize(win.Samples, length, win.CPU)
	rss, err := sys.PeakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &result{Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		SubWindows: sum.Subs, PeakRSSMB: rss,
		Tiered: sys.tiered, P50Class: classes[sum.P50Class].Name, P90Class: classes[sum.P90Class].Name,
		Metrics: map[string]float64{}}
	if traced {
		if err := layerMetrics(d, res, sum, rec, srv, serving, before, win); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["throughput_ops_s"] = sum.ThroughputOpsS
		res.Metrics["latency_p50_ms"] = sum.LatencyP50Ms
		res.Metrics["latency_p90_ms"] = sum.LatencyP90Ms
		res.Metrics["cpu_ms_per_op"] = sum.CPUMsPerOp
	}

	// Checks, outside the timed path. A wrong answer is a failed op.
	wrong, verr := sys.Verify()
	res.Wrong = wrong
	if verr != nil {
		res.Failure = verr.Error()
	}
	res.Ops = opCounts{Attempted: sum.Attempted, OK: sum.OK - min(wrong, sum.OK), Failed: sum.Failed + min(wrong, sum.OK)}
	res.Correct = res.Ops.Failed == 0 && verr == nil && sum.Attempted > 0

	if !traced {
		closeSys() // the other set-ups boot systems of their own
		for len(setups) < setupReps {
			s, err := setupInChild(name, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		res.Setups = setups
		res.Metrics["setup_s"] = harness.Median(setups)
	}
	return res, nil
}

// setupInChild sets the workload up once more in a fresh process of this
// program and returns how long that took.
func setupInChild(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-setup-only")
	cmd.Stderr = os.Stderr
	// Should this process be killed outright, the kernel stops the child,
	// and with it the fleet it booted.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("mrmark: set-up of %s in a child: %w", name, err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnly is the child side of setupInChild: one set-up, timed, printed
// in seconds, and taken down again.
func setupOnly(d dirs, name string, seed int64) error {
	setup, err := workload(d, name, false)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sys, err := setup(seed)
	if err != nil {
		return err
	}
	fmt.Println(time.Since(t0).Seconds())
	sys.Close()
	return nil
}

// layerMetrics fills the per-layer metrics of a traced run: the window's
// own numbers, the counters scraped around it, and the workload's family
// of mrlayers probes; and writes the span file. A metric read from a
// fleet the workload does not boot, or from another workload's probes,
// stays 0.
func layerMetrics(d dirs, res *result, sum harness.Summary, rec *harness.Recorder, srv serveRun, serving bool,
	before serve.Counters, win harness.Window) error {
	for _, def := range perLayer {
		res.Metrics[def.Name] = 0
	}
	// Ops issued in even seconds were traced, the others were not.
	var tracedOK, plainOK, latencySum float64
	for _, s := range win.Samples {
		switch {
		case !s.OK:
		case harness.Traced(s.Start):
			tracedOK++
		default:
			plainOK++
		}
		latencySum += s.Latency.Seconds()
	}
	res.Metrics["proc.peak_rss_mb"] = res.PeakRSSMB
	if plainOK > 0 {
		res.Metrics["client.trace_overhead_pct"] = 100 * (plainOK - tracedOK) / plainOK
	}
	if serving {
		res.Metrics["client.latency_p99_ms"] = sum.LatencyP99Ms
		after, err := srv.ReadCounters()
		if err != nil {
			return err
		}
		for k, v := range srv.LayerMetrics(before, after, 1e3*latencySum/float64(len(win.Samples))) {
			res.Metrics[k] = v
		}
	}

	spans := rec.Spans()
	trace := harness.TraceFile{Workload: res.Workload, Seed: res.Seed, Self: harness.SelfTimes(spans), Spans: spans}
	if err := harness.WriteTrace(filepath.Join(d.out, "trace-"+res.Workload+".json"), trace); err != nil {
		return err
	}

	// The probes run in their own process, after the window, so that they
	// neither share its heap nor compete with it.
	cmd := exec.Command(filepath.Join(d.out, "bin", "mrlayers"), probeFamily[res.Workload])
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("mrmark: mrlayers: %w", err)
	}
	var probes map[string]float64
	if err := json.Unmarshal(out, &probes); err != nil {
		return fmt.Errorf("mrmark: mrlayers output: %w", err)
	}
	for k, v := range probes {
		if _, known := res.Metrics[k]; !known {
			return fmt.Errorf("mrmark: mrlayers reported %q, which BENCHMARK.json does not list", k)
		}
		res.Metrics[k] = v
	}
	return nil
}

// driverLine renders the result as the one JSON object the driver reads
// from the last line of standard output.
func driverLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, def := range defs {
		metrics[def.Name] = value{res.Metrics[def.Name], def.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Ops.Attempted, res.Ops.Failed, metrics})
}

func resultPath(d dirs, name string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(d.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, t))
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed      = flag.Int64("seed", 1, "seed of the op sequence and inputs")
		seconds   = flag.Int("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
		regen     = flag.Bool("regen-golden", false, "regenerate golden/ from the code at this commit")
		setupOne  = flag.Bool("setup-only", false, "set the workload up once, print the seconds it took, and stop (what a run does for setup_s)")
	)
	flag.Parse()
	if *seconds < 4 {
		fatal(fmt.Errorf("mrmark: -seconds must be at least 4"))
	}
	d, err := locate()
	if err != nil {
		fatal(err)
	}
	switch {
	case *regen:
		err = regenGolden(d)
	case *selfcheck:
		err = selfCheck(d, *seed, *seconds)
	case *setupOne:
		err = setupOnly(d, *name, *seed)
	case *name == "":
		err = runAll(d, *seed, *seconds, *trace == 1)
	default:
		var res *result
		if res, err = runOne(d, *name, *seed, *seconds, *trace == 1); err != nil {
			break
		}
		printResult(os.Stdout, res)
		b, jerr := json.MarshalIndent(res, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(resultPath(d, res.Workload, res.Seed, res.Traced), b, 0o644)
		}
		if jerr != nil {
			fatal(jerr)
		}
		line, jerr := driverLine(res)
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
