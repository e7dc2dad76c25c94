package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/benchmark/harness"
	"repro/benchmark/inproc"
	"repro/benchmark/serve"
)

// printResult writes one run's numbers for a reader.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  window %d s  traced %v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	fmt.Fprintf(w, "  ops attempted %d  ok %d  failed %d  (wrong answers %d)\n",
		res.Ops.Attempted, res.Ops.OK, res.Ops.Failed, res.Wrong)
	fmt.Fprint(w, "  correct ops per sub-window")
	for _, sub := range res.SubWindows {
		fmt.Fprintf(w, " %.1f", sub.OK)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  p50 lies in class %q, p90 in class %q\n", res.P50Class, res.P90Class)
	if !res.Traced {
		fmt.Fprintf(w, "  peak resident set %.1f MB (a per-layer metric: the traced run's proc.peak_rss_mb)\n", res.PeakRSSMB)
	}
	if res.Failure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.Failure)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", def.Name, res.Metrics[def.Name], def.Unit)
	}
}

// child runs one workload in a fresh process of this program, so that it
// starts from a fresh heap and a fresh resident set, and reads its result
// file back.
func child(d dirs, name string, seed int64, seconds int, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(resultPath(d, name, seed, traced))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("mrmark: workload %s: %w", name, runErr)
		}
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runAll runs the five workloads one after another and prints each.
func runAll(d dirs, seed int64, seconds int, traced bool) error {
	correct := true
	for _, name := range workloadNames {
		_ = os.Remove(resultPath(d, name, seed, traced)) // a stale result must not pass for this run's
		res, err := child(d, name, seed, seconds, traced)
		if err != nil {
			return err
		}
		printResult(os.Stdout, res)
		correct = correct && res.Correct
	}
	if !correct {
		return fmt.Errorf("mrmark: at least one workload gave a wrong answer or failed an op")
	}
	return nil
}

// worsening is by how much b is worse than a, as a share of a, for a
// metric whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs every workload twice back to back on the same build and
// prints the two sets side by side. It fails when a pair of values of an
// end-to-end metric differs by more than the metric's bound, when an op
// failed, or when the p50 or p90 of a tiered workload changed class.
func selfCheck(d dirs, seed int64, seconds int) error {
	var failures []string
	for _, name := range workloadNames {
		var runs [2]*result
		for i := range runs {
			_ = os.Remove(resultPath(d, name, seed, false)) // a stale result must not pass for this run's
			res, err := child(d, name, seed, seconds, false)
			if err != nil {
				return err
			}
			runs[i] = res
			if !res.Correct {
				failures = append(failures, fmt.Sprintf("%s run %d: %d failed ops: %s", name, i+1, res.Ops.Failed, res.Failure))
			}
		}
		a, b := runs[0], runs[1]
		fmt.Printf("%s  ops %d/%d  p50 class %s/%s  p90 class %s/%s\n", name,
			a.Ops.Attempted, b.Ops.Attempted, a.P50Class, b.P50Class, a.P90Class, b.P90Class)
		if a.Tiered && (a.P50Class != b.P50Class || a.P90Class != b.P90Class) {
			failures = append(failures, name+": a percentile changed class between the runs")
		}
		fmt.Printf("  %-20s %12s %12s %9s %7s\n", "metric", "run 1", "run 2", "diff", "bound")
		for _, def := range endToEnd {
			va, vb := a.Metrics[def.Name], b.Metrics[def.Name]
			diff := math.Abs(worsening(va, vb, def.Better))
			mark := ""
			if diff > def.Bound {
				mark = "  <- beyond the bound"
				failures = append(failures, fmt.Sprintf("%s: %s differs by %.1f %%, bound %.0f %%", name, def.Name, 100*diff, 100*def.Bound))
			}
			fmt.Printf("  %-20s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", def.Name, va, vb, 100*diff, 100*def.Bound, mark)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("mrmark: selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("selfcheck passed: every pair of runs agrees within the bounds")
	return nil
}

// regenGolden rewrites golden/ from the code at this commit. It belongs in
// a change to the benchmark, never in a change that claims a gain.
func regenGolden(d dirs) error {
	dir := filepath.Join(d.bench, "golden")

	// serve.json: boot a fleet on any serving workload and ask it.
	if err := goBuild(d, d.root, "./cmd/mrgate", "./cmd/mrserved"); err != nil {
		return err
	}
	w := serve.Workloads()["serve_cold"]
	sched, err := harness.NewSchedule(w.Classes(), 1)
	if err != nil {
		return err
	}
	r, _, err := w.Setup(sched, 1, filepath.Join(d.out, "bin"), filepath.Join(d.out, "logs"))
	if err != nil {
		return err
	}
	sg, err := r.Regenerate()
	r.Close()
	if err != nil {
		return err
	}
	if err := harness.WriteGolden(filepath.Join(dir, "serve.json"), sg); err != nil {
		return err
	}

	// sim_figs.json: the CG results are exact; each CPD duration is the
	// median of five runs, the centre of the band later runs must hit.
	sim, err := inproc.NewSimFigs(d.root, nil)
	if err != nil {
		return err
	}
	var gens []*inproc.SimGolden
	for i := 0; i < 5; i++ {
		g, err := sim.Regenerate()
		if err != nil {
			return err
		}
		gens = append(gens, g)
	}
	simG := gens[0]
	for order := range simG.CPD {
		var vals []string
		for _, g := range gens {
			vals = append(vals, g.CPD[order])
		}
		sort.Slice(vals, func(i, j int) bool { return parse(vals[i]) < parse(vals[j]) })
		simG.CPD[order] = vals[len(vals)/2]
	}
	for key, want := range simG.CG {
		for _, g := range gens {
			if g.CG[key] != want {
				return fmt.Errorf("mrmark: CG run %s is not repeatable: %q then %q", key, want, g.CG[key])
			}
		}
	}
	if err := harness.WriteGolden(filepath.Join(dir, "sim_figs.json"), simG); err != nil {
		return err
	}

	// enum_core.json: recomputed from the code, and the 28 legend entries
	// must be the ones printed in results/.
	enum, err := inproc.NewEnumCore(1, nil)
	if err != nil {
		return err
	}
	eg, err := enum.Compute()
	if err != nil {
		return err
	}
	for key, legend := range eg.Legends {
		fig := key[:strings.IndexByte(key, '/')]
		text, err := os.ReadFile(filepath.Join(d.root, "results", fig+".txt"))
		if err != nil {
			return err
		}
		if !strings.Contains(string(text), "  "+legend+"\n") {
			return fmt.Errorf("mrmark: legend %q is not in results/%s.txt", legend, fig)
		}
	}
	if err := harness.WriteGolden(filepath.Join(dir, "enum_core.json"), eg); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d serving, %d simulator and %d enumeration entries\n", dir, sg.Count(), simG.Count(), eg.Count())
	return nil
}

func parse(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64) // values were formatted by this program
	return v
}
