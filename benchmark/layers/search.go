package layers

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/metrics"
	"repro/internal/procmap"
	"repro/internal/topology"
)

// probeRank times the engines behind serve_cold: advisor on the shapes it
// sends, procmap and commmatrix on its largest matrix request.
func probeRank(m Metrics) error {
	ctx := context.Background()
	var err error

	hydra := cluster.Hydra(16, 1)
	single := advisor.Scenario{Spec: hydra, Hierarchy: hydra.Hierarchy(), Coll: advisor.Alltoall, CommSize: 16, Bytes: 4 << 20}
	sigma := []int{3, 2, 1, 0}
	ns, _ := perOp(200, func() { _, err = advisor.Predict(single, sigma) })
	if err != nil {
		return err
	}
	m["advisor.predict_us_per_op"] = ns / 1e3

	d6 := advisor.Scenario{Spec: hydra, Hierarchy: topology.MustNew(4, 2, 4, 2, 4, 2), Coll: advisor.Alltoall, CommSize: 64, Bytes: 4 << 20}
	ns, _ = perOp(2, func() { _, err = advisor.Rank(ctx, d6, nil, advisor.RankOptions{}) })
	if err != nil {
		return err
	}
	m["advisor.rank_pruned_ms_d6"] = ns / 1e6

	lumi := cluster.LUMI(16)
	lumiSim := advisor.Scenario{Spec: lumi, Hierarchy: lumi.Hierarchy(), Coll: advisor.Allgather, CommSize: 256, Simultaneous: true, Bytes: 256 << 20}
	m["advisor.rank_sim_ms_lumi16"], _ = once(func() { _, err = advisor.Rank(ctx, lumiSim, nil, advisor.RankOptions{}) })
	if err != nil {
		return err
	}

	// Matrix-aware mapping of the 16×32 halo on ⟦4,2,4,2,8⟧.
	h := topology.MustNew(4, 2, 4, 2, 8)
	halo, err := procmap.Halo(16, 32, 1024)
	if err != nil {
		return err
	}
	ns, _ = perOp(4, func() { _, err = procmap.Build(halo, h) })
	if err != nil {
		return err
	}
	m["procmap.greedy_ms_h1632"] = ns / 1e6
	var mapped *procmap.Result
	ns, _ = perOp(1, func() { mapped, err = procmap.Map(ctx, halo, h, procmap.Options{Seed: 1, NoOrderInit: true}) })
	if err != nil {
		return err
	}
	m["procmap.refine_ms_h1632"], m["procmap.refine_swaps"] = ns/1e6, float64(mapped.Swaps)
	var bestCost float64
	ns, _ = perOp(2, func() { _, _, bestCost, _, err = procmap.BestOrder(halo, h, nil) })
	if err != nil {
		return err
	}
	m["procmap.bestorder_ms_d5"] = ns / 1e6
	cost, err := procmap.Cost(halo, h, mapped.Placement, nil)
	if err != nil {
		return err
	}
	m["procmap.cost_ratio_vs_bestorder"] = cost / bestCost

	body, err := json.Marshal(halo.Sparse())
	if err != nil {
		return err
	}
	ns, _ = perOp(20, func() {
		var sp commmatrix.Sparse
		if err = json.Unmarshal(body, &sp); err == nil {
			if _, err = commmatrix.FromSparse(sp); err == nil {
				sink += len(sp.Digest())
			}
		}
	})
	if err != nil {
		return err
	}
	m["commmatrix.decode_digest_us_64KB"] = ns / 1e3
	return nil
}

// probeDeep times the deep searches of search_deep on the 12-level cloud
// machine, and the prefix bound they call at every node.
func probeDeep(m Metrics) error {
	ctx := context.Background()
	cloud := cluster.Cloud(12)
	deep := func(coll advisor.Collective, simultaneous bool) advisor.Scenario {
		return advisor.Scenario{Spec: cloud, Hierarchy: cloud.Hierarchy(), Coll: coll, CommSize: 16, Simultaneous: simultaneous, Bytes: 256 << 20}
	}
	search := func(sc advisor.Scenario, wantMode string) (*advisor.SearchResult, float64, float64, error) {
		var res *advisor.SearchResult
		var serr error
		ms, allocs := once(func() { res, serr = advisor.SearchOrders(ctx, sc, advisor.SearchOptions{Top: 5}) })
		if serr == nil && res.Mode != wantMode {
			serr = fmt.Errorf("layers: depth-12 %s search ran as %q, want %q", sc.Coll, res.Mode, wantMode)
		}
		return res, ms, allocs, serr
	}
	res, ms, allocs, err := search(deep(advisor.Alltoall, false), advisor.ModeBnB)
	if err != nil {
		return err
	}
	m["advisor.bnb_d12_ms"], m["advisor.bnb_d12_allocs_per_op"], m["advisor.bnb_d12_nodes"] = ms, allocs, float64(res.Nodes)
	if _, ms, _, err = search(deep(advisor.Allreduce, false), advisor.ModeBnB); err != nil {
		return err
	}
	m["advisor.bnb_d12_ar16_ms"] = ms
	if res, ms, allocs, err = search(deep(advisor.Alltoall, true), advisor.ModeBeam); err != nil {
		return err
	}
	m["advisor.beam_d12_sim_ms"], m["advisor.beam_d12_sim_allocs_per_op"], m["advisor.beam_optimality_gap"] = ms, allocs, res.OptimalityGap

	ar12 := cloud.Hierarchy().Arities()
	prefix := []int{11, 3, 7, 0}
	m["metrics.prefix_bound_ns_per_op"], _ = perOp(200000, func() {
		sink += metrics.BestCompletionCrossLevel(ar12, prefix, 64)
	})
	return nil
}
