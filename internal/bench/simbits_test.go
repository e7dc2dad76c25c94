package bench_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/perm"
	"repro/internal/slurm"
	"repro/internal/splatt"
	"repro/internal/tensor"
)

// updateSimBits rewrites testdata/sim_bits.jsonl from the current simulator.
// Use it only in a change that means to move a simulated number, and say
// so where the change is described: every other change must pass the pin
// as committed.
var updateSimBits = flag.Bool("update-simbits", false, "rewrite testdata/sim_bits.jsonl (only for a change that means to move a simulated number)")

// simBit is one pinned result: the exact float64 bits of every value, and
// the values themselves for a human reader.
type simBit struct {
	Name   string   `json:"name"`
	Bits   []string `json:"bits"`
	Values []string `json:"values"`
}

// simBitRuns lists the pinned results: Bandwidth, P10 and P90 of every
// order of Figures 3, 4 and 6 at 16 KB and 1 MB in both scenarios, one CG
// run and one CPD duration.
func simBitRuns(t *testing.T) []func() (string, []float64, error) {
	var runs []func() (string, []float64, error)
	for _, mb := range []figures.MicroBench{figures.Figure3(nil), figures.Figure4(nil), figures.Figure6(nil)} {
		cfg := mb.Config
		for _, size := range []int64{16 << 10, 1 << 20} {
			for _, all := range []bool{false, true} {
				for _, sigma := range cfg.Orders {
					name := fmt.Sprintf("%s/%s/%d/all=%t", mb.Name, perm.Format(sigma), size, all)
					runs = append(runs, func() (string, []float64, error) {
						pt, err := bench.Measure(cfg, sigma, size, all)
						return name, []float64{pt.Bandwidth, pt.P10, pt.P90}, err
					})
				}
			}
		}
	}
	cores, err := slurm.MapCPU(cluster.LUMINodeHierarchy(), []int{3, 2, 1, 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, func() (string, []float64, error) {
		res, err := cg.Run(cluster.LUMINode(), cores, cg.ClassS(), mpi.Config{})
		return "cg/classS/p8/3-2-1-0", []float64{res.Duration, res.Zeta}, err
	})
	tns := tensor.SyntheticNell([3]int{20_000, 500, 500}, 40_000, 1001)
	runs = append(runs, func() (string, []float64, error) {
		res, err := splatt.Run(splatt.Config{
			Spec: cluster.Hydra(8, 1), Hierarchy: cluster.HydraHierarchy(8), Order: []int{1, 3, 0, 2},
			Grid: tensor.Grid{16, 4, 4}, Tensor: tns, Rank: 16, Iters: 1,
		})
		return "cpd/hydra8/1-3-0-2", []float64{res.Duration}, err
	})
	return runs
}

// The simulator's published numbers do not move unless a change says so:
// every pinned result equals, bit for bit, what the committed file holds.
func TestSimulatedBitsPinned(t *testing.T) {
	path := filepath.Join("testdata", "sim_bits.jsonl")
	var got []simBit
	for _, run := range simBitRuns(t) {
		name, vals, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb := simBit{Name: name}
		for _, v := range vals {
			sb.Bits = append(sb.Bits, fmt.Sprintf("%016x", math.Float64bits(v)))
			sb.Values = append(sb.Values, strconv.FormatFloat(v, 'g', -1, 64))
		}
		got = append(got, sb)
	}
	if *updateSimBits {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, sb := range got {
			if err := enc.Encode(sb); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]simBit{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sb simBit
		if err := json.Unmarshal(sc.Bytes(), &sb); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want[sb.Name] = sb
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d results, the test computes %d", path, len(want), len(got))
	}
	for _, g := range got {
		w, ok := want[g.Name]
		if !ok {
			t.Errorf("%s: not pinned in %s", g.Name, path)
			continue
		}
		if fmt.Sprint(g.Bits) != fmt.Sprint(w.Bits) {
			t.Errorf("%s: bits %v (%v), pinned %v (%v)", g.Name, g.Bits, g.Values, w.Bits, w.Values)
		}
	}
}
