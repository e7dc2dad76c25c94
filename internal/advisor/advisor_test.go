package advisor

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/perm"
)

func hydraScenario(simultaneous bool) Scenario {
	return Scenario{
		Spec:         cluster.Hydra(16, 1),
		Hierarchy:    cluster.HydraHierarchy(16),
		Coll:         Alltoall,
		CommSize:     16,
		Simultaneous: simultaneous,
		Bytes:        16 << 20,
	}
}

func TestPredictErrors(t *testing.T) {
	sc := hydraScenario(true)
	sc.CommSize = 7
	if _, err := Predict(sc, []int{0, 1, 2, 3}); err == nil {
		t.Error("non-dividing comm size accepted")
	}
	sc = hydraScenario(true)
	sc.Bytes = 0
	if _, err := Predict(sc, []int{0, 1, 2, 3}); err == nil {
		t.Error("zero size accepted")
	}
	sc = hydraScenario(true)
	if _, err := Predict(sc, []int{0, 0, 1, 2}); err == nil {
		t.Error("invalid order accepted")
	}
}

// The model must reproduce the paper's two headline predictions for
// Figure 3: spread wins alone, packed wins under contention.
func TestPredictFigure3Shape(t *testing.T) {
	spread := []int{0, 1, 2, 3}
	packed := []int{3, 2, 1, 0}

	one := hydraScenario(false)
	prSpread, err := Predict(one, spread)
	if err != nil {
		t.Fatal(err)
	}
	prPacked, err := Predict(one, packed)
	if err != nil {
		t.Fatal(err)
	}
	if prSpread.Bandwidth <= prPacked.Bandwidth {
		t.Errorf("1 comm: spread %.3g ≤ packed %.3g", prSpread.Bandwidth, prPacked.Bandwidth)
	}

	all := hydraScenario(true)
	prSpreadAll, err := Predict(all, spread)
	if err != nil {
		t.Fatal(err)
	}
	prPackedAll, err := Predict(all, packed)
	if err != nil {
		t.Fatal(err)
	}
	if prSpreadAll.Bandwidth >= prPackedAll.Bandwidth {
		t.Errorf("32 comms: spread %.3g ≥ packed %.3g", prSpreadAll.Bandwidth, prPackedAll.Bandwidth)
	}
	// Packed must be contention-immune in the model too.
	ratio := prPackedAll.Bandwidth / prPacked.Bandwidth
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("packed prediction not constant: %.3g vs %.3g", prPacked.Bandwidth, prPackedAll.Bandwidth)
	}
	// The spread order's bottleneck under contention is the NIC (level 0).
	if prSpreadAll.BottleneckLevel != 0 {
		t.Errorf("spread bottleneck level = %d, want 0 (node)", prSpreadAll.BottleneckLevel)
	}
}

func TestRecommendOrdersAll(t *testing.T) {
	sc := hydraScenario(true)
	ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 24 {
		t.Fatalf("%d predictions, want 24", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Bandwidth > ranked[i-1].Bandwidth {
			t.Fatal("recommendations not sorted")
		}
	}
	// Under full contention the packed family must rank on top.
	ch := perm.Format(ranked[0].Order)
	if ch != "3-2-1-0" && ch != "2-3-1-0" && ch != "3-2-0-1" && ch != "2-3-0-1" {
		t.Errorf("best order under contention = %s, want a packed-family order", ch)
	}
}

// A collective the model does not know is an error at every entry point,
// whichever engine would have run — never a prediction.
func TestUnknownCollectiveRejected(t *testing.T) {
	ctx := context.Background()
	for name, sc := range map[string]Scenario{
		"hydra":  hydraScenario(true),
		"cloud8": cloudScenario(8, Alltoall, false),
	} {
		sc.Coll = "bogus"
		sigma := perm.Reversed(sc.Hierarchy.Depth())
		_, perr := Predict(sc, sigma)
		_, rerr := Rank(ctx, sc, nil, RankOptions{})
		_, serr := SearchOrders(ctx, sc, SearchOptions{})
		for entry, err := range map[string]error{"Predict": perr, "Rank": rerr, "SearchOrders": serr} {
			if err == nil || !strings.Contains(err.Error(), `unknown collective "bogus"`) {
				t.Errorf("%s: %s with Coll bogus: err = %v, want unknown collective", name, entry, err)
			}
		}
	}
}

// Rank ranks every order: a list of orders to rank is an error.
func TestRankRejectsOrders(t *testing.T) {
	sc := hydraScenario(true)
	for _, orders := range [][][]int{{perm.Reversed(4)}, {}} {
		if ranked, err := Rank(context.Background(), sc, orders, RankOptions{}); err == nil || ranked != nil {
			t.Errorf("Rank of %v = %d orders, %v; want an error", orders, len(ranked), err)
		}
	}
}

// Validation against the simulator: the model's ranking of orders must
// correlate with simulated bandwidth (Spearman ≥ 0.7) for the Figure 3
// contention scenario.
func TestRankingMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	orders := [][]int{
		{0, 1, 2, 3}, {2, 1, 0, 3}, {1, 3, 0, 2}, {3, 1, 0, 2}, {3, 2, 1, 0}, {1, 2, 3, 0},
	}
	sc := hydraScenario(true)
	cfg := bench.Config{
		Spec:      sc.Spec,
		Hierarchy: sc.Hierarchy,
		CommSize:  sc.CommSize,
		Coll:      bench.Alltoall,
		Iters:     1,
	}
	var predicted, measured []float64
	for _, sigma := range orders {
		pr, err := Predict(sc, sigma)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := bench.Measure(cfg, sigma, sc.Bytes, true)
		if err != nil {
			t.Fatal(err)
		}
		predicted = append(predicted, pr.Bandwidth)
		measured = append(measured, pt.Bandwidth)
	}
	rho := spearman(predicted, measured)
	if rho < 0.7 {
		t.Errorf("Spearman(predicted, simulated) = %.2f (predicted %v, measured %v)",
			rho, predicted, measured)
	}
}

// spearman computes the rank correlation of two samples.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	var d2 float64
	for i := range rx {
		d := rx[i] - ry[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for r, i := range idx {
		out[i] = float64(r)
	}
	return out
}

func TestExplain(t *testing.T) {
	sc := hydraScenario(true)
	pr, err := Predict(sc, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(sc, pr)
	if s == "" || pr.BottleneckLevel != 0 {
		t.Errorf("Explain = %q (bottleneck %d)", s, pr.BottleneckLevel)
	}
}

func TestAllgatherAllreducePredictions(t *testing.T) {
	for _, coll := range []Collective{Allgather, Allreduce} {
		sc := hydraScenario(true)
		sc.Coll = coll
		sc.CommSize = 64
		spread, err := Predict(sc, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := Predict(sc, []int{3, 2, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if packed.Bandwidth <= spread.Bandwidth {
			t.Errorf("%s: packed %.3g ≤ spread %.3g under contention",
				coll, packed.Bandwidth, spread.Bandwidth)
		}
	}
}

// TestSearchRejectsOneRankCommunicator: a communicator of fewer than two
// ranks runs no collective, so both front doors answer it with one error,
// at the exact depths and the bounded ones and for every collective, where
// the model would rank alltoall by traffic that does not exist and fail
// the ring collectives as degenerate.
func TestSearchRejectsOneRankCommunicator(t *testing.T) {
	for depth := 6; depth <= 8; depth++ {
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, p := range []int{1, 0, -2} {
				spec := cluster.Cloud(depth)
				sc := Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: coll, CommSize: p, Bytes: 256 << 20}
				want := fmt.Sprintf("advisor: communicator size %d: a collective needs at least 2 ranks", p)
				res, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 3})
				if err == nil || err.Error() != want || res != nil {
					t.Errorf("depth %d %s p=%d: SearchOrders = %v, %v; want the error %q", depth, coll, p, res, err, want)
				}
				ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
				if err == nil || err.Error() != want || ranked != nil {
					t.Errorf("depth %d %s p=%d: Rank = %d orders, %v; want the error %q", depth, coll, p, len(ranked), err, want)
				}
				sc.CommSize = 2
				if _, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 3}); err != nil {
					t.Errorf("depth %d %s p=2: %v", depth, coll, err)
				}
			}
		}
	}
}
