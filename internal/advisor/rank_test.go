package advisor

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

func rankScenario() Scenario {
	spec := cluster.Hydra(4, 1)
	return Scenario{
		Spec:         spec,
		Hierarchy:    spec.Hierarchy(),
		Coll:         Alltoall,
		CommSize:     16,
		Simultaneous: true,
		Bytes:        16 << 20,
	}
}

// Rank with a worker pool must agree exactly with the one-worker ranking.
func TestRankMatchesSequential(t *testing.T) {
	sc := rankScenario()
	seq, err := Rank(context.Background(), sc, nil, RankOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := Rank(context.Background(), sc, nil, RankOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d predictions, want %d", workers, len(par), len(seq))
		}
		for i := range par {
			if !perm.Equal(par[i].Order, seq[i].Order) || par[i].Time != seq[i].Time {
				t.Fatalf("workers=%d: rank %d is %v (%.3g), want %v (%.3g)",
					workers, i, par[i].Order, par[i].Time, seq[i].Order, seq[i].Time)
			}
		}
	}
}

// A cancelled context aborts the evaluation with the context's error.
func TestRankCancelled(t *testing.T) {
	sc := rankScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Rank(ctx, sc, nil, RankOptions{}); err != context.Canceled {
		t.Fatalf("Rank on cancelled context: err = %v, want context.Canceled", err)
	}
}

// When every order predicts the same time (pure-latency machine, one
// communicator spanning the whole machine), the ranking must fall back to
// lexicographic order of the permutations — deterministic and cacheable.
func TestRankTiesAreLexicographic(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2)
	spec := netmodel.Spec{
		Name: "latency-only",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: 2, Latency: 1e-6},
			{Name: "socket", Arity: 2, Latency: 1e-6},
			{Name: "numa", Arity: 2, Latency: 1e-6},
			{Name: "core", Arity: 2, Latency: 1e-6},
		},
	}
	sc := Scenario{
		Spec:      spec,
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  h.Size(),
		Bytes:     1 << 20,
	}
	ranked, err := Rank(context.Background(), sc, nil, RankOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(ranked); i++ {
		if ranked[i].Bandwidth == ranked[i+1].Bandwidth &&
			!perm.Less(ranked[i].Order, ranked[i+1].Order) {
			t.Fatalf("tied orders out of lexicographic order at %d: %v before %v",
				i, ranked[i].Order, ranked[i+1].Order)
		}
	}
}
