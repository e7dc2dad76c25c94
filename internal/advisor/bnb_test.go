package advisor

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/topology"
)

func specFor(h topology.Hierarchy) netmodel.Spec {
	// Depth-5 shapes need the five-level LUMI spec (see prune_test);
	// deeper shapes use the cloud machine, whose template matches the
	// depth-6 and depth-7 shapes below — a shallower spec would make the
	// fully-nested communicators degenerate.
	switch {
	case h.Depth() >= 6:
		return cluster.Cloud(h.Depth())
	case h.Depth() == 5:
		return cluster.LUMI(16)
	default:
		return cluster.Hydra(16, 1)
	}
}

// TestBnBEqualsFull is the exactness proof of the branch-and-bound: for
// every shape × collective × divisor × one-vs-all-comms scenario, the
// bounded search must return exactly the head of the exhaustive ranking —
// same orders, same values — with a zero gap and a complete accounting
// (Covered + Pruned = k!).
func TestBnBEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	colls := []Collective{Alltoall, Allgather, Allreduce}
	shapes := [][]int{
		{2, 2, 4},
		{2, 2, 2, 2},
		{4, 2, 2, 2},
		{2, 3, 2, 2},
		{2, 2, 2, 2, 2},
		{2, 2, 2, 2, 2, 4},    // cluster.Cloud(6)
		{2, 2, 2, 2, 2, 2, 4}, // cluster.Cloud(7)
	}
	const top = 10
	for _, ar := range shapes {
		h := topology.MustNew(ar...)
		spec := specFor(h)
		for _, coll := range colls {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(h.Size()) {
					sc := Scenario{
						Spec:         spec,
						Hierarchy:    h,
						Coll:         coll,
						CommSize:     p,
						Simultaneous: sim,
						Bytes:        int64(1+rng.Intn(64)) << 16,
					}
					ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
					if err != nil {
						t.Fatalf("rank (%v, %s, p=%d, sim=%v): %v", ar, coll, p, sim, err)
					}
					res, err := search(context.Background(), sc, SearchOptions{Top: top}, nodeBudget, beamWidth, progressEvery)
					if err != nil {
						t.Fatalf("search (%v, %s, p=%d, sim=%v): %v", ar, coll, p, sim, err)
					}
					if res.Mode != ModeBnB {
						t.Fatalf("mode %q, want %q (%v, %s, p=%d, sim=%v)", res.Mode, ModeBnB, ar, coll, p, sim)
					}
					if res.OptimalityGap != 0 {
						t.Fatalf("bnb gap %v, want 0", res.OptimalityGap)
					}
					kf := perm.Factorial(h.Depth())
					if res.Covered+res.Pruned != kf {
						t.Fatalf("covered %d + pruned %d != %d! (%v, %s, p=%d, sim=%v)",
							res.Covered, res.Pruned, kf, ar, coll, p, sim)
					}
					want := top
					if len(ranked) < want {
						want = len(ranked)
					}
					if len(res.Best) != want {
						t.Fatalf("got %d best orders, want %d (%v, %s, p=%d, sim=%v)",
							len(res.Best), want, ar, coll, p, sim)
					}
					for i := 0; i < want; i++ {
						if !perm.Equal(ranked[i].Order, res.Best[i].Order) {
							t.Fatalf("rank %d order mismatch (%v, %s, p=%d, sim=%v): full %v bnb %v",
								i, ar, coll, p, sim, ranked[i].Order, res.Best[i].Order)
						}
						if ranked[i].Time != res.Best[i].Time || ranked[i].Bandwidth != res.Best[i].Bandwidth ||
							ranked[i].BottleneckLevel != res.Best[i].BottleneckLevel {
							t.Fatalf("rank %d value mismatch for order %v (%v, %s, p=%d, sim=%v): full %+v bnb %+v",
								i, ranked[i].Order, ar, coll, p, sim, ranked[i], res.Best[i])
						}
					}
					// Worst is the worst *evaluated* class: it can never be
					// better than the true best or worse than the true worst.
					trueWorst := ranked[len(ranked)-1]
					if res.Worst.Time > trueWorst.Time || res.Worst.Time < ranked[0].Time {
						t.Fatalf("worst evaluated %v outside [best %v, worst %v]",
							res.Worst.Time, ranked[0].Time, trueWorst.Time)
					}
					if res.Evaluated <= 0 || res.Evaluated > int64(len(ranked)) {
						t.Fatalf("evaluated %d out of range (n=%d)", res.Evaluated, len(ranked))
					}
				}
			}
		}
	}
}

// TestBoundedMatchesExactOnMachines forces the bounded engine onto the
// shallow paper machines, which SearchOrders ranks exhaustively: the two
// engines must agree on the best orders and their times, with every order
// accounted.
func TestBoundedMatchesExactOnMachines(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []netmodel.Spec{cluster.Hydra(16, 1), cluster.LUMI(16)} {
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				sc := Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: coll,
					CommSize: 16, Simultaneous: sim, Bytes: 16 << 20}
				exact, err := SearchOrders(ctx, sc, SearchOptions{Top: 3})
				if err != nil {
					t.Fatalf("%s %s sim=%v: exact: %v", spec.Name, coll, sim, err)
				}
				bounded, err := search(ctx, sc, SearchOptions{Top: 3}, nodeBudget, beamWidth, progressEvery)
				if err != nil {
					t.Fatalf("%s %s sim=%v: bounded: %v", spec.Name, coll, sim, err)
				}
				if bounded.Mode != ModeBnB || exact.Mode == bounded.Mode {
					t.Fatalf("%s %s sim=%v: modes exact %q, bounded %q", spec.Name, coll, sim, exact.Mode, bounded.Mode)
				}
				if kf := perm.Factorial(sc.Hierarchy.Depth()); bounded.Covered+bounded.Pruned != kf || exact.Covered != kf {
					t.Fatalf("%s %s sim=%v: accounted exact %d, bounded %d+%d, want %d", spec.Name, coll, sim,
						exact.Covered, bounded.Covered, bounded.Pruned, kf)
				}
				for i := range exact.Best {
					e, b := exact.Best[i], bounded.Best[i]
					if !perm.Equal(e.Order, b.Order) || e.Time != b.Time {
						t.Fatalf("%s %s sim=%v: rank %d diverges: exact %v (%v s) vs bounded %v (%v s)",
							spec.Name, coll, sim, i+1, e.Order, e.Time, b.Order, b.Time)
					}
				}
			}
		}
	}
}

// TestSearchOrdersFrontDoor pins the engine choice to the depth alone: up
// to ExactDepth the answer is the exhaustive ranking's head and true last
// entry, field for field; deeper, the bounded engine answers. Either way
// the search's series are written once, under the mode of its result.
func TestSearchOrdersFrontDoor(t *testing.T) {
	ctx := context.Background()
	const top = 4
	// search runs SearchOrders and checks that its evaluations reached the
	// registry once, labeled with the result's mode.
	search := func(sc Scenario) *SearchResult {
		t.Helper()
		reg := obs.NewRegistry()
		res, err := SearchOrders(ctx, sc, SearchOptions{Top: top, Registry: reg})
		if err != nil {
			t.Fatalf("depth %d: search: %v", sc.Hierarchy.Depth(), err)
		}
		if misses := reg.SumCounters("advisor_class_misses_total"); misses != float64(res.Evaluated) ||
			reg.FindCounter("advisor_class_misses_total", obs.L("mode", res.Mode)) != misses {
			t.Errorf("depth %d: %v class misses, want %d under mode %q", sc.Hierarchy.Depth(), misses, res.Evaluated, res.Mode)
		}
		return res
	}
	hydra := cluster.Hydra(16, 1)
	scenario := func(spec netmodel.Spec, h topology.Hierarchy) Scenario {
		return Scenario{Spec: spec, Hierarchy: h, Coll: Allgather, CommSize: 16, Bytes: 8 << 20}
	}
	shallow := []Scenario{
		scenario(hydra, topology.MustNew(4, 8)),
		scenario(hydra, topology.MustNew(2, 2, 8)),
		scenario(hydra, hydra.Hierarchy()),
		scenario(cluster.LUMI(16), cluster.LUMIHierarchy(16)),
		scenario(cluster.Cloud(6), cluster.Cloud(6).Hierarchy()),
		scenario(cluster.Cloud(7), cluster.Cloud(7).Hierarchy()),
	}
	for _, sc := range shallow {
		k := sc.Hierarchy.Depth()
		ranked, err := Rank(ctx, sc, nil, RankOptions{})
		if err != nil {
			t.Fatalf("depth %d: rank: %v", k, err)
		}
		res := search(sc)
		if res.Mode != ModeExact && res.Mode != ModePruned {
			t.Errorf("depth %d: mode %q, want exact or pruned", k, res.Mode)
		}
		n := min(top, len(ranked))
		if !reflect.DeepEqual(res.Best, ranked[:n]) || !reflect.DeepEqual(res.Worst, ranked[len(ranked)-1]) {
			t.Errorf("depth %d: best/worst %+v / %+v differ from the ranking's %+v / %+v",
				k, res.Best, res.Worst, ranked[:n], ranked[len(ranked)-1])
		}
		if res.Covered != perm.Factorial(k) || res.Evaluated <= 0 || res.Evaluated > res.Covered ||
			res.Pruned != 0 || res.Nodes <= 0 || res.OptimalityGap != 0 {
			t.Errorf("depth %d: accounting %+v", k, res)
		}
	}
	for depth := ExactDepth + 1; depth <= 12; depth++ {
		res := search(scenario(cluster.Cloud(depth), cluster.Cloud(depth).Hierarchy()))
		if res.Mode != ModeBnB && res.Mode != ModeBeam {
			t.Errorf("depth %d: mode %q, want bnb or beam", depth, res.Mode)
		}
	}
}

// TestBeamGapUpperBound forces the beam fallback with a tiny node budget
// and checks the gap contract at depths where the exhaustive ranking is
// still computable: the reported gap must upper-bound the true gap, i.e.
// trueBest.Time ≥ bestFound.Time × (1 − gap).
func TestBeamGapUpperBound(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2, 2)
	spec := cluster.LUMI(16)
	for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
		for _, sim := range []bool{false, true} {
			for _, p := range []int{4, 8, 32} {
				sc := Scenario{
					Spec:         spec,
					Hierarchy:    h,
					Coll:         coll,
					CommSize:     p,
					Simultaneous: sim,
					Bytes:        8 << 20,
				}
				ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
				if err != nil {
					t.Fatalf("rank (%s, p=%d, sim=%v): %v", coll, p, sim, err)
				}
				// A budget of one node is exhausted immediately: the beam
				// must answer.
				res, err := search(context.Background(), sc, SearchOptions{Top: 3}, 1, 2, progressEvery)
				if err != nil {
					t.Fatalf("search (%s, p=%d, sim=%v): %v", coll, p, sim, err)
				}
				if res.Mode != ModeBeam {
					t.Fatalf("mode %q, want %q (%s, p=%d, sim=%v)", res.Mode, ModeBeam, coll, p, sim)
				}
				if res.OptimalityGap < 0 || res.OptimalityGap >= 1 {
					t.Fatalf("gap %v outside [0, 1)", res.OptimalityGap)
				}
				best := res.Best[0]
				trueBest := ranked[0]
				if best.Time < trueBest.Time {
					t.Fatalf("beam best %v beats the true optimum %v (%s, p=%d, sim=%v)",
						best.Time, trueBest.Time, coll, p, sim)
				}
				lower := best.Time * (1 - res.OptimalityGap)
				if trueBest.Time < lower*(1-1e-12) {
					t.Fatalf("gap %v does not cover the true gap: optimum %v < guaranteed floor %v (%s, p=%d, sim=%v)",
						res.OptimalityGap, trueBest.Time, lower, coll, p, sim)
				}
			}
		}
	}
}

// TestSearchOrdersDeterministic pins the engine's determinism: two runs of
// the same scenario (including a beam run) must agree bit for bit.
func TestSearchOrdersDeterministic(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.LUMI(16),
		Hierarchy: h,
		Coll:      Allreduce,
		CommSize:  8,
		Bytes:     4 << 20,
	}
	for _, budget := range []int64{nodeBudget, 5} {
		a, err := search(context.Background(), sc, SearchOptions{Top: 5}, budget, 4, progressEvery)
		if err != nil {
			t.Fatal(err)
		}
		b, err := search(context.Background(), sc, SearchOptions{Top: 5}, budget, 4, progressEvery)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("budget %d: non-deterministic search:\n%+v\nvs\n%+v", budget, a, b)
		}
	}
}

// TestSearchOrdersMetrics checks the obs wiring of the bounded search:
// one latency sample and the class counters under the mode label.
func TestSearchOrdersMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := topology.MustNew(2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.Hydra(16, 1),
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  4,
		Bytes:     1 << 20,
	}
	res, err := search(context.Background(), sc, SearchOptions{Top: 3, Registry: reg}, nodeBudget, beamWidth, progressEvery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeBnB {
		t.Fatalf("search mode %q, want %q", res.Mode, ModeBnB)
	}
	ml := obs.L("mode", ModeBnB)
	if misses := reg.FindCounter("advisor_class_misses_total", ml); misses != float64(res.Evaluated) {
		t.Fatalf("class misses %v, want %d", misses, res.Evaluated)
	}
	if hits := reg.FindCounter("advisor_class_hits_total", ml); hits != float64(res.Covered-res.Evaluated) {
		t.Fatalf("class hits %v, want %d covered − %d evaluated", hits, res.Covered, res.Evaluated)
	}
}

// TestSearchOrdersCancel: a cancelled context must stop the descent.
func TestSearchOrdersCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := topology.MustNew(2, 2, 2, 2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.LUMI(16),
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  128,
		Bytes:     1 << 20,
	}
	if _, err := search(ctx, sc, SearchOptions{Top: 1}, nodeBudget, beamWidth, progressEvery); err == nil {
		t.Fatal("expected context error from cancelled search")
	}
}
