package inproc

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/benchmark/harness"
)

const repoRoot = "../.."

func TestReadFigure(t *testing.T) {
	cells, err := readFigure(filepath.Join(repoRoot, "results", "figure3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// Two cells copied from results/figure3.txt.
	if got := cells[0]["16 KB"]["0-1-2-3"]; got != "2110" {
		t.Errorf("one communicator, 16 KB, 0-1-2-3: %q, want 2110", got)
	}
	if got := cells[1]["1 MB"]["3-2-1-0"]; got != "44292" {
		t.Errorf("all communicators, 1 MB, 3-2-1-0: %q, want 44292", got)
	}
	for all := 0; all < 2; all++ {
		if len(cells[all]) != 9 {
			t.Errorf("table %d has %d size rows, want 9", all, len(cells[all]))
		}
	}
	if _, err := readFigure(filepath.Join(repoRoot, "results", "figure8.txt")); err == nil {
		t.Error("figure8.txt has no bandwidth table and was accepted")
	}
	if sizeLabel(16<<10) != "16 KB" || sizeLabel(1<<20) != "1 MB" || sizeLabel(512) != "512 B" {
		t.Error("sizeLabel")
	}
}

func TestSimFigsOpTable(t *testing.T) {
	g := &SimGolden{}
	if err := harness.ReadGolden(filepath.Join("..", "golden", "sim_figs.json"), g); err != nil {
		t.Fatal(err)
	}
	w, err := NewSimFigs(repoRoot, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.CheckMargins(w.Classes(), 50, 90); err != nil {
		t.Error(err)
	}
	// 144 micro-benchmark points, 19 CG runs, 20 CPD runs, every one with
	// a reference.
	kinds := map[string]int{}
	for c, ops := range w.ops {
		if len(ops) != w.Classes()[c].Variants {
			t.Errorf("class %d: %d ops, %d variants", c, len(ops), w.Classes()[c].Variants)
		}
		for _, op := range ops {
			kinds[op.span]++
			if op.want == "" {
				t.Errorf("%s has no reference value", op.name)
			}
		}
	}
	want := map[string]int{"bench.measure": 144, "cg.run": 19, "splatt.run": 20}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("ops by layer %v, want %v", kinds, want)
	}
	// Applications are a fifth of the ops: 35 % × 19/67 + 25 % × 20/50.
	app := 35*19.0/67 + 25*20.0/50
	if app < 18 || app > 22 {
		t.Errorf("applications are %.1f %% of the ops", app)
	}
}

func TestSimFigsVerifyComparesWithinTheCPDBand(t *testing.T) {
	exact := &simOp{name: "cell", want: "2110"}
	cpd := &simOp{name: "cpd", want: "0.001", cpd: true}
	w := &SimFigs{}
	add := func(op *simOp, got string) { w.results = append(w.results, simResult{op, got}) }
	add(exact, "2110")
	add(cpd, "0.001015") // 1.5 % off: inside the band
	if wrong, err := w.Verify(); wrong != 0 || err != nil {
		t.Fatalf("correct results: %d wrong, %v", wrong, err)
	}
	add(exact, "2111")
	add(cpd, "0.00103") // 3 % off
	add(cpd, "oops")
	if wrong, err := w.Verify(); wrong != 3 || err == nil {
		t.Fatalf("three wrong results: %d wrong, %v", wrong, err)
	}
}

func TestEnumCoreMatchesItsGolden(t *testing.T) {
	g := &EnumGolden{}
	if err := harness.ReadGolden(filepath.Join("..", "golden", "enum_core.json"), g); err != nil {
		t.Fatal(err)
	}
	if len(g.Legends) != 28 || len(g.Table1) != 6 || len(g.RingCostSums) != 12 {
		t.Fatalf("golden holds %d legends, %d Table 1 rows, %d ring-cost sums; want 28, 6, 12",
			len(g.Legends), len(g.Table1), len(g.RingCostSums))
	}
	// Table 1 of the paper: rank 10 on ⟦2,2,4⟧.
	for order, want := range map[string]int{"0-1-2": 9, "2-1-0": 10, "1-2-0": 12} {
		if g.Table1[order] != want {
			t.Errorf("Table 1, order %s: new rank %d, want %d", order, g.Table1[order], want)
		}
	}
	w, err := NewEnumCore(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.CheckMargins(w.Classes(), 50, 90); err != nil {
		t.Error(err)
	}
	if wrong, err := w.Verify(); wrong != 0 || err != nil {
		t.Fatalf("the code disagrees with golden/enum_core.json: %d wrong, %v", wrong, err)
	}
	// One op of each class runs clean, traced and untraced, and a wrong
	// golden checksum fails the op.
	sched, err := harness.NewSchedule(w.Classes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := harness.NewRecorder(1)
	for i := 0; i < sched.CycleLen(); i++ {
		if !w.do(0, sched.At(i), nil) || !w.do(0, sched.At(i), rec.Lane(0)) {
			t.Fatalf("op %d failed", i)
		}
	}
	self := harness.SelfTimes(rec.Spans())
	for _, name := range []string{"op", "perm.visit", "metrics.characterize", "mixedradix.tables", "mixedradix.points", "slurm.mapcpu", "reorder.rankfile"} {
		if self[name].Count == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	for k := range g.RingCostSums {
		g.RingCostSums[k]++
	}
	if w.do(0, sched.At(0), nil) {
		t.Error("an op with a wrong ring-cost checksum passed")
	}
}
