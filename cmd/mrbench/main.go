// Command mrbench regenerates the collective micro-benchmarks of the
// paper's Figures 3–7 on the simulated Hydra and LUMI clusters: it
// reorders ranks with each legend order, splits the world into
// subcommunicators, and measures the collective's bandwidth with one and
// with all communicators running (§4.1's protocol).
//
// Usage:
//
//	mrbench -fig 3                  # one figure at paper scale
//	mrbench -fig 0 -maxsize 8MB     # all figures, truncated size sweep
//	mrbench -legend                 # only print the legend metrics
//	mrbench -classes                # order-search equivalence-class stats
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/advisor"
	"repro/internal/bench"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/study"
)

func main() {
	fig := flag.Int("fig", 0, "figure to run (3-7); 0 runs all")
	maxSize := flag.String("maxsize", "512MB", "largest total data size of the sweep")
	iters := flag.Int("iters", 2, "timed iterations per measurement")
	legend := flag.Bool("legend", false, "print only the figure-legend metrics")
	classes := flag.Bool("classes", false, "print the §3.3 equivalence-class statistics of the advisor's pruned order search for each figure scenario")
	csvDir := flag.String("csv", "", "also write figureN.csv files into this directory")
	studyFlag := flag.Bool("study", false, "run the order study (all 24 orders of Figure 3's setup, metric↔bandwidth correlations)")
	studySize := flag.String("studysize", "16MB", "total collective size for -study")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metricsOut := flag.String("metrics", "", "write Prometheus text metrics of the run to this file")
	flag.Parse()

	var sc *obs.Scope
	if *traceOut != "" || *metricsOut != "" {
		sc = obs.New(obs.Options{})
	}
	writeArtifacts := func() {
		if *traceOut != "" {
			if err := obs.WriteTraceFile(*traceOut, sc); err != nil {
				fmt.Fprintln(os.Stderr, "mrbench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
		if *metricsOut != "" {
			if err := obs.WritePrometheusFile(*metricsOut, sc.Registry()); err != nil {
				fmt.Fprintln(os.Stderr, "mrbench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *metricsOut)
		}
	}

	if *legend {
		fmt.Print(figures.LegendCharacterizations())
		return
	}
	if *classes {
		if err := printSearchClasses(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mrbench:", err)
			os.Exit(1)
		}
		return
	}
	if *studyFlag {
		size, err := parseSize(*studySize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrbench:", err)
			os.Exit(2)
		}
		cfg := figures.Figure3(nil).Config
		cfg.Iters = *iters
		cfg.MPI.Obs = sc
		res, err := study.Run(cfg, size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrbench:", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		writeArtifacts()
		return
	}
	limit, err := parseSize(*maxSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench:", err)
		os.Exit(2)
	}
	var sizes []int64
	for _, s := range bench.Sizes16KBto512MB() {
		if s <= limit {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		fmt.Fprintln(os.Stderr, "mrbench: size limit below 16KB")
		os.Exit(2)
	}
	all := figures.MicroBenches(sizes)
	var figs []int
	if *fig == 0 {
		for f := range all {
			figs = append(figs, f)
		}
		sort.Ints(figs)
	} else {
		if _, ok := all[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "mrbench: no figure %d (have 3-7)\n", *fig)
			os.Exit(2)
		}
		figs = []int{*fig}
	}
	for _, f := range figs {
		mb := all[f]
		mb.Config.Iters = *iters
		mb.Config.MPI.Obs = sc
		series, err := bench.Run(mb.Config)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrbench:", err)
			os.Exit(1)
		}
		fmt.Println(figures.RenderSeries(mb, series))
		if *csvDir != "" {
			data, err := figures.SeriesCSV(mb, series)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrbench:", err)
				os.Exit(1)
			}
			path := fmt.Sprintf("%s/figure%d.csv", *csvDir, f)
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mrbench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	writeArtifacts()
}

func parseSize(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, strings.TrimSuffix(t, "GB")
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, strings.TrimSuffix(t, "MB")
	case strings.HasSuffix(t, "KB"):
		mult, t = 1<<10, strings.TrimSuffix(t, "KB")
	case strings.HasSuffix(t, "B"):
		t = strings.TrimSuffix(t, "B")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

// printSearchClasses runs the advisor's pruned order search once per
// figure scenario (one communicator and all communicators) and reports
// how far the §3.3 equivalence classes collapse the k! candidates, read
// back from the advisor_class_* counters the search records.
func printSearchClasses(w io.Writer) error {
	figs := []figures.MicroBench{
		figures.Figure3(nil), figures.Figure4(nil), figures.Figure5(nil),
		figures.Figure6(nil), figures.Figure7(nil),
	}
	for _, mb := range figs {
		for _, sim := range []bool{false, true} {
			reg := obs.NewRegistry()
			sc := advisor.Scenario{
				Spec:         mb.Config.Spec,
				Hierarchy:    mb.Config.Hierarchy,
				Coll:         advisor.Collective(mb.Config.Coll),
				CommSize:     mb.Config.CommSize,
				Simultaneous: sim,
				Bytes:        4 << 20,
			}
			if _, err := advisor.Rank(context.Background(), sc, nil, advisor.RankOptions{Registry: reg}); err != nil {
				return fmt.Errorf("%s: %w", mb.Name, err)
			}
			nClasses := int(reg.SumCounters("advisor_class_misses_total"))
			total := nClasses + int(reg.SumCounters("advisor_class_hits_total"))
			mode := "one comm "
			if sim {
				mode = "all comms"
			}
			fmt.Fprintf(w, "%s %s (%s, comm %d): %d orders -> %d classes (%.0f%% pruned)\n",
				mb.Name, mode, mb.Config.Coll, mb.Config.CommSize, total, nClasses,
				100*float64(total-nClasses)/float64(total))
		}
	}
	return nil
}
