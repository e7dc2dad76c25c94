package figures

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/slurm"
	"repro/internal/tensor"
	"repro/internal/topology"
)

func TestTable1Render(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"0-1-2      [1 0 2]                [2 2 4]              9",
		"0-2-1      [1 2 0]                [2 4 2]              5",
		"2-1-0      [2 0 1]                [4 2 2]              10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Render(t *testing.T) {
	out := Figure2()
	checks := []string{
		"order 0-1-2 (cyclic:cyclic)",
		"order 1-0-2 (Not possible)",
		"order 2-0-1 (plane=4)",
		"order 2-1-0 (block:block)",
		"node0 socket0:  0  4  8 12", // Figure 2a first row
		"node0 socket0:  0  1  2  3", // Figures 2e/2f first row
	}
	for _, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 output missing %q", want)
		}
	}
}

// Figure2 regenerates Figure 2: the reordered rank layout of every order
// of ⟦2,2,4⟧ with the Slurm --distribution caption.
func Figure2() string {
	h := topology.MustNew(2, 2, 4)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — all orders of %s, 4 subcommunicators of 4\n", h)
	for _, sigma := range perm.All(3) {
		ro, err := reorder.New(h, sigma)
		if err != nil {
			panic(err)
		}
		caption := "Not possible"
		if d, ok := slurm.DistributionForOrder(h, sigma); ok {
			caption = d.String()
		}
		fmt.Fprintf(&b, "order %s (%s):\n", perm.Format(sigma), caption)
		for node := 0; node < 2; node++ {
			for socket := 0; socket < 2; socket++ {
				row := make([]string, 4)
				for core := 0; core < 4; core++ {
					old := node*8 + socket*4 + core
					row[core] = fmt.Sprintf("%2d", ro.NewRank(old))
				}
				fmt.Fprintf(&b, "  node%d socket%d: %s\n", node, socket, strings.Join(row, " "))
			}
		}
	}
	return b.String()
}

func TestMicroBenchConfigs(t *testing.T) {
	sizes := []int64{1 << 20}
	mbs := MicroBenches(sizes)
	wantComm := map[int]int{3: 16, 4: 128, 5: 16, 6: 64, 7: 256}
	wantRanks := map[int]int{3: 512, 4: 512, 5: 2048, 6: 512, 7: 2048}
	for fig, mb := range mbs {
		if mb.Config.CommSize != wantComm[fig] {
			t.Errorf("figure %d: comm size %d, want %d", fig, mb.Config.CommSize, wantComm[fig])
		}
		if got := mb.Config.Hierarchy.Size(); got != wantRanks[fig] {
			t.Errorf("figure %d: %d ranks, want %d", fig, got, wantRanks[fig])
		}
		for _, sigma := range mb.Config.Orders {
			if !perm.IsPermutation(sigma) {
				t.Errorf("figure %d: bad order %v", fig, sigma)
			}
		}
	}
}

// The number of distinct map_cpu selections per process count must match
// the bar counts of Figure 9.
func TestFigure9SelectionCounts(t *testing.T) {
	want := map[int]int{2: 4, 4: 8, 8: 12, 16: 18, 32: 22, 64: 24, 128: 24}
	for p, n := range want {
		sels, err := DistinctSelections(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(sels) != n {
			t.Errorf("p=%d: %d distinct selections, want %d", p, len(sels), n)
		}
	}
}

func TestRenderSeriesSmoke(t *testing.T) {
	mb := MicroBench{
		Name:     "test",
		Caption:  "caption",
		AllLabel: "2 simultaneous comm.",
		Config: bench.Config{
			Spec:      cluster.Hydra(2, 1),
			Hierarchy: cluster.HydraHierarchy(2),
			CommSize:  32,
			Coll:      bench.Alltoall,
			Orders:    [][]int{{3, 2, 1, 0}},
			Sizes:     []int64{256 << 10},
			Iters:     1,
		},
	}
	series, err := bench.Run(mb.Config)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSeries(mb, series)
	if !strings.Contains(out, "256 KB") || !strings.Contains(out, "3-2-1-0") {
		t.Errorf("RenderSeries output:\n%s", out)
	}
}

func TestRunFigure8Small(t *testing.T) {
	if testing.Short() {
		t.Skip("application run")
	}
	cfg := Figure8Config{
		Nodes:  8,
		NICs:   1,
		Orders: [][]int{{1, 3, 2, 0}, {3, 2, 1, 0}},
		Tensor: tensor.SyntheticNell([3]int{100000, 1000, 1000}, 300000, 3),
		Grid:   tensor.Grid{16, 4, 4},
		Iters:  1,
	}
	results, err := RunFigure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	out := RenderFigure8(cfg, results)
	if !strings.Contains(out, "Slurm default mapping") || !strings.Contains(out, "best") {
		t.Errorf("RenderFigure8 output:\n%s", out)
	}
}

func TestRunFigure9Small(t *testing.T) {
	if testing.Short() {
		t.Skip("application run")
	}
	prob := cg.Problem{N: 4096, NNZPerRow: 6, OuterIters: 1, InnerIters: 8, Lambda: 12, Seed: 3}
	res, err := RunFigure9([]int{2, 8}, prob, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[2]) != 4 || len(res[8]) != 12 {
		t.Fatalf("selection counts: %d, %d", len(res[2]), len(res[8]))
	}
	out := RenderFigure9(8, res[8])
	if !strings.Contains(out, "8 proc.") || !strings.Contains(out, "Slurm default") {
		t.Errorf("RenderFigure9 output:\n%s", out)
	}
	for _, s := range res[8] {
		if s.Duration <= 0 {
			t.Errorf("selection %v: duration %v", s.Order, s.Duration)
		}
	}
}

func TestCompactCores(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 8, 16, 24}, "0,8,16,24"},
		{[]int{0, 1, 8, 9}, "0-1,8-9"},
		{[]int{5}, "5"},
	}
	for _, c := range cases {
		if got := compactCores(c.in); got != c.want {
			t.Errorf("compactCores(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLegendCharacterizations(t *testing.T) {
	out := LegendCharacterizations()
	// Spot-check the paper's legend strings.
	for _, want := range []string{
		"0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)",
		"4-3-2-1-0 (16 - 46.7, 53.3, 0.0, 0.0, 0.0)",
		"3-2-1-0 (74 - 11.1, 12.7, 25.4, 50.8)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("legend output missing %q", want)
		}
	}
}
