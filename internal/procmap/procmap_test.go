package procmap

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

// interleaved builds the adversarial matrix of the commmatrix tests: on 16
// ranks, blocks {k, k+4, k+8, k+12} communicate heavily — no consecutive
// packing helps, so mapping quality is visible.
func interleaved(bytes float64) *commmatrix.Matrix {
	m := commmatrix.New(16)
	for k := 0; k < 4; k++ {
		ranks := []int{k, k + 4, k + 8, k + 12}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				m.Add(ranks[i], ranks[j], bytes)
			}
		}
	}
	return m
}

func TestDefaultCostMatchesCommmatrix(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := interleaved(100)
	placement := make([]int, 16)
	for i := range placement {
		placement[i] = (i*5 + 3) % 16 // an arbitrary permutation
	}
	got, err := Cost(m, h, placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := pairCost(m, h, placement); got != want {
		t.Fatalf("procmap.Cost = %g, pair loop = %g", got, want)
	}
}

// pairCost is the crossing-cost objective as the commmatrix tests write it:
// every pair's volume times its topology.CrossCost.
func pairCost(m *commmatrix.Matrix, h topology.Hierarchy, placement []int) float64 {
	var total float64
	for i := 0; i < m.Size(); i++ {
		for j := i + 1; j < m.Size(); j++ {
			total += m.At(i, j) * float64(h.CrossCost(placement[i], placement[j]))
		}
	}
	return total
}

func TestBuildPacksBlocks(t *testing.T) {
	// Each interleaved block fits exactly one innermost domain of ⟦2,2,4⟧;
	// the greedy construction must find that optimum: cost = 4 blocks × 6
	// pairs × 100 bytes × crossing cost 1.
	h := topology.MustNew(2, 2, 4)
	m := interleaved(100)
	placement, err := Build(m, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPermutation(placement, 16); err != nil {
		t.Fatal(err)
	}
	cost, err := Cost(m, h, placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 6 * 100.0; cost != want {
		t.Fatalf("greedy cost = %g, want %g", cost, want)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	h := topology.MustNew(2, 4, 2, 8)
	m, err := GridLayers([3]int{8, 4, 4}, [3]float64{1000, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(context.Background(), m, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > res.GreedyCost {
		t.Fatalf("refinement worsened: greedy %g → %g", res.GreedyCost, res.Cost)
	}
	if err := checkPermutation(res.Placement, m.Size()); err != nil {
		t.Fatal(err)
	}
	// The reported cost must be the placement's actual cost.
	actual, err := Cost(m, h, res.Placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(actual-res.Cost) > 1e-6 {
		t.Fatalf("reported cost %g, placement evaluates to %g", res.Cost, actual)
	}
}

func TestRefineDeterministic(t *testing.T) {
	h := topology.MustNew(2, 4, 2, 8)
	m, err := Halo(8, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// mapAt maps at the given GOMAXPROCS, which sizes refine's workers.
	mapAt := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Map(context.Background(), m, h, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mapAt(1)
	for _, procs := range []int{2, 7, 16} {
		got := mapAt(procs)
		if !reflect.DeepEqual(got.Placement, base.Placement) {
			t.Fatalf("placement differs between GOMAXPROCS 1 and %d", procs)
		}
		if got.Cost != base.Cost || got.Swaps != base.Swaps || got.Rounds != base.Rounds {
			t.Fatalf("stats differ between GOMAXPROCS 1 and %d: %+v vs %+v", procs, got, base)
		}
	}
	// A different seed may sample differently but must stay a valid,
	// no-worse-than-greedy mapping.
	other, err := Map(context.Background(), m, h, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cost > other.GreedyCost {
		t.Fatalf("seed 7 worsened: %g > %g", other.Cost, other.GreedyCost)
	}
}

func TestMapHonorsCancellation(t *testing.T) {
	h := topology.MustNew(2, 4, 2, 8)
	m, err := Halo(8, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, m, h, Options{Seed: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// NoRefine skips the cancellable phase entirely.
	if _, err := Map(ctx, m, h, Options{Seed: 1, NoRefine: true}); err != nil {
		t.Fatalf("NoRefine under cancelled ctx: %v", err)
	}
}

func TestMapRejectsSizeMismatch(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := commmatrix.New(8)
	if _, err := Map(context.Background(), m, h, Options{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, _, _, _, err := BestOrder(m, h, nil); err == nil {
		t.Fatal("BestOrder size mismatch accepted")
	}
}

func TestWeightsValidation(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := interleaved(10)
	for _, w := range [][]float64{
		{1, 2},              // wrong length
		{1, math.NaN(), 1},  // NaN
		{1, math.Inf(1), 1}, // Inf
		{1, -1, 1},          // negative
	} {
		if _, err := Cost(m, h, make([]int, 16), w); err == nil {
			t.Fatalf("weights %v accepted", w)
		}
	}
}

func TestBestOrderMatchesCommmatrix(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := interleaved(100)
	sigma, placement, cost, evaluated, err := BestOrder(m, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The brute-force reading: pairCost of every order's placement, ties
	// to the first order in perm.All's (Heap) order.
	orders := perm.All(h.Depth())
	var wantSigma []int
	wantCost := -1.0
	for _, s := range orders {
		ro, err := mixedradix.NewReorderer(h.Arities(), s)
		if err != nil {
			t.Fatal(err)
		}
		c := pairCost(m, h, ro.InverseTable())
		if wantCost < 0 || c < wantCost {
			wantCost, wantSigma = c, s
		}
	}
	if cost != wantCost || !reflect.DeepEqual(sigma, wantSigma) || evaluated != int64(len(orders)) {
		t.Fatalf("BestOrder = %v at %g after %d orders, brute force says %v at %g after %d",
			sigma, cost, evaluated, wantSigma, wantCost, len(orders))
	}
	actual, err := Cost(m, h, placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	if actual != cost {
		t.Fatalf("returned placement costs %g, reported %g", actual, cost)
	}
}

// perm.All enumerates in Heap's order, which is not lexicographic: on
// ⟦2,2,2⟧ these two edges tie the orders 1-0-2, 2-0-1, 0-2-1 and 1-2-0 in
// that order, so BestOrder and its oracle answer 1-0-2, the first of them,
// and not the lexicographically smallest, 0-2-1. The served σ-baseline
// depends on it: benchmark/golden/serve.json pins best_order 4-0-3-2-1 of
// matrix-halo16x32, the Heap-first of a tie with the lex-first 3-2-0-4-1.
func TestBestOrderTieIsHeapFirst(t *testing.T) {
	h := topology.MustNew(2, 2, 2)
	m := commmatrix.New(8)
	m.Add(3, 1, 1)
	m.Add(0, 5, 2)
	want := []int{1, 0, 2}
	sigma, _, cost, _, err := BestOrder(m, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, oracleCost, _, err := oracleBestOrder(m, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sigma, want) || !reflect.DeepEqual(oracle, want) || cost != oracleCost {
		t.Errorf("BestOrder = %v at %g, oracle %v at %g, want %v", sigma, cost, oracle, oracleCost, want)
	}
	var tied []string
	for _, s := range perm.All(3) {
		ro, err := mixedradix.NewReorderer(h.Arities(), s)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := Cost(m, h, ro.InverseTable(), nil); err == nil && c == cost {
			tied = append(tied, perm.Format(s))
		}
	}
	if got := strings.Join(tied, " "); got != "1-0-2 2-0-1 0-2-1 1-2-0" {
		t.Errorf("orders tied at the optimum, in Heap's order: %s", got)
	}
}

func TestSpecWeights(t *testing.T) {
	spec := cluster.Hydra(4, 1)
	w := SpecWeights(spec, 1<<20)
	if len(w) != len(spec.Levels) {
		t.Fatalf("got %d weights for %d levels", len(w), len(spec.Levels))
	}
	// Outer crossings must not be cheaper than inner ones on Hydra.
	for l := 1; l < len(w); l++ {
		if w[l-1] < w[l] {
			t.Fatalf("weights not monotone: %v", w)
		}
	}
	// A timing-free spec falls back to the crossing-cost weights.
	bare := netmodel.Spec{Levels: []netmodel.LevelSpec{{Arity: 2}, {Arity: 4}}}
	if got := SpecWeights(bare, 0); !reflect.DeepEqual(got, []float64{2, 1}) {
		t.Fatalf("fallback weights = %v", got)
	}
}

func TestHaloGenerator(t *testing.T) {
	m, err := Halo(4, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Periodic 4×4 torus: every rank has 4 neighbors at 100 bytes.
	if got, want := m.Total(), float64(2*16*100); got != want {
		t.Fatalf("total = %g, want %g", got, want)
	}
	if m.At(0, 1) != 100 || m.At(0, 4) != 100 || m.At(0, 3) != 100 || m.At(0, 12) != 100 {
		t.Fatal("neighbor volumes wrong")
	}
	if m.At(0, 5) != 0 {
		t.Fatal("diagonal neighbors must not communicate")
	}
	if _, err := Halo(0, 4, 1); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestGridLayersGenerator(t *testing.T) {
	m, err := GridLayers([3]int{2, 2, 2}, [3]float64{7, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0=(0,0,0) and 1=(0,0,1) share modes 0 and 1.
	if got := m.At(0, 1); got != 10 {
		t.Fatalf("At(0,1) = %g, want 10", got)
	}
	// Ranks 0=(0,0,0) and 7=(1,1,1) share nothing.
	if m.At(0, 7) != 0 {
		t.Fatal("opposite corners must not communicate")
	}
	if _, err := GridLayers([3]int{0, 2, 2}, [3]float64{1, 1, 1}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func checkPermutation(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("placement has %d entries, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, c := range p {
		if c < 0 || c >= n || seen[c] {
			return fmt.Errorf("placement %v is not a permutation", p)
		}
		seen[c] = true
	}
	return nil
}
