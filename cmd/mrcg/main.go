// Command mrcg regenerates Figure 9: strong scaling of the conjugate
// gradient benchmark on one simulated LUMI node, with the cores of each
// process count selected by every distinct mixed-radix map_cpu list
// (Algorithm 3), grouped by core set like the figure's colour bars.
//
// Usage:
//
//	mrcg                       # p = 2,4,8,16,32,64,128
//	mrcg -procs 8,32           # subset
//	mrcg -n 16384 -inner 15    # smaller problem
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cg"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func main() {
	procsFlag := flag.String("procs", "2,4,8,16,32,64,128", "process counts to sweep")
	n := flag.Int("n", cg.ClassCScaled().N, "matrix dimension")
	nnzRow := flag.Int("nnzrow", cg.ClassCScaled().NNZPerRow, "off-diagonals per row")
	outer := flag.Int("outer", cg.ClassCScaled().OuterIters, "outer (zeta) iterations")
	inner := flag.Int("inner", cg.ClassCScaled().InnerIters, "CG iterations per outer step")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the runs to this file")
	metricsOut := flag.String("metrics", "", "write Prometheus text metrics of the runs to this file")
	flag.Parse()

	var sc *obs.Scope
	if *traceOut != "" || *metricsOut != "" {
		sc = obs.New(obs.Options{})
	}

	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "mrcg: bad process count %q\n", f)
			os.Exit(2)
		}
		procs = append(procs, v)
	}
	sort.Ints(procs)
	prob := cg.ClassCScaled()
	prob.N, prob.NNZPerRow, prob.OuterIters, prob.InnerIters = *n, *nnzRow, *outer, *inner

	fmt.Printf("Figure 9 — CG strong scaling on one LUMI node (⟦2,4,2,8⟧), N=%d, %d×%d iterations\n",
		prob.N, prob.OuterIters, prob.InnerIters)
	var base float64
	for _, p := range procs {
		results, err := figures.RunFigure9([]int{p}, prob, mpi.Config{Obs: sc})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrcg:", err)
			os.Exit(1)
		}
		sels := results[p]
		best := sels[0].Duration
		for _, s := range sels {
			if s.Duration < best {
				best = s.Duration
			}
		}
		if base == 0 {
			base = best * float64(procs[0])
		}
		fmt.Print(figures.RenderFigure9(p, sels))
		fmt.Printf("  perfect scaling: %.3f s, best measured: %.3f s\n\n", base/float64(p), best)
	}
	if *traceOut != "" {
		if err := obs.WriteTraceFile(*traceOut, sc); err != nil {
			fmt.Fprintln(os.Stderr, "mrcg:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := obs.WritePrometheusFile(*metricsOut, sc.Registry()); err != nil {
			fmt.Fprintln(os.Stderr, "mrcg:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
}
