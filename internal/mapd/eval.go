// Pure evaluation of the parsed queries: no HTTP, no caching. Each query
// type carries its full evaluation (eval) and its degraded local answer
// (Degraded); the endpoint table in endpoint.go is how every caller
// reaches them.

package mapd

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/advisor"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/obs/rt"
	"repro/internal/perm"
	"repro/internal/procmap"
	"repro/internal/slurm"
)

// ModeMatrix labels the matrix-aware placement search in the
// advisor_search_* metrics and workload analytics, alongside the
// advisor's exact/pruned/fallback modes.
const ModeMatrix = "matrix"

func (q *parsedMap) stat() statInfo                    { return statInfo{shape: q.arities} }
func (q *parsedMap) eval(context.Context) (any, error) { return q.answer(false) }
func (q *parsedMap) Degraded() (any, error)            { return q.answer(true) }

func (q *parsedMap) answer(degraded bool) (*MapResponse, error) {
	resp := &MapResponse{
		Hierarchy: q.arities,
		Levels:    q.h.Names(),
		Order:     q.sigma,
		Degraded:  degraded,
	}
	switch {
	case q.rank != nil:
		resp.Rank = q.rank
		resp.Coords = mixedradix.Decompose(q.arities, *q.rank)
		nr := mixedradix.NewRank(q.arities, *q.rank, q.sigma)
		resp.NewRank = &nr
	case q.coords != nil:
		resp.Coords = q.coords
		nr, err := mixedradix.ComposeChecked(q.arities, q.coords, q.sigma)
		if err != nil {
			return nil, badf("%v", err)
		}
		resp.NewRank = &nr
	}
	if q.table {
		table, err := mixedradix.ReorderAll(q.arities, q.sigma)
		if err != nil {
			return nil, badf("%v", err)
		}
		resp.Table = table
	}
	return resp, nil
}

func (q *parsedAdvise) stat() statInfo {
	return statInfo{shape: q.spec.Hierarchy().Arities(), coll: string(q.coll)}
}
func (q *parsedAdvise) eval(ctx context.Context) (any, error) {
	return evalAdvise(ctx, q, advisor.SearchOptions{})
}
func (q *parsedAdvise) Degraded() (any, error) { return evalAdviseFallback(q) }

// evalAdvise answers from the advisor's order search, which picks its own
// engine by depth: all k! orders ranked, or branch-and-bound / beam —
// provably optimal when the node budget suffices, bounded-gap otherwise.
// opts carries the caller's observability hooks; Top is the request's.
func evalAdvise(ctx context.Context, q *parsedAdvise, opts advisor.SearchOptions) (*AdviseResponse, error) {
	sc := q.scenario()
	opts.Top = q.top
	res, err := advisor.SearchOrders(ctx, sc, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, badf("%v", err)
	}
	resp := &AdviseResponse{
		Machine:         q.machine,
		Hierarchy:       sc.Hierarchy.Arities(),
		Evaluated:       clampToInt(res.Covered + res.Pruned),
		SearchMode:      res.Mode,
		OrdersEvaluated: res.Evaluated,
		OptimalityGap:   res.OptimalityGap,
		Best:            make([]AdvisePrediction, len(res.Best)),
		Worst:           advisePrediction(sc, res.Worst),
	}
	for i, pr := range res.Best {
		resp.Best[i] = advisePrediction(sc, pr)
	}
	return resp, nil
}

// clampToInt saturates an order count into the wire type's int field on
// 32-bit platforms (12! does not fit in int32).
func clampToInt(v int64) int {
	if v > int64(^uint(0)>>1) {
		return int(^uint(0) >> 1)
	}
	return int(v)
}

// evalAdviseFallback is the degraded-mode answer served while the advisor
// circuit breaker is open, and by routing tiers with every replica down:
// instead of the k! bottleneck-model search it ranks orders by the §3.3
// ring cost of their enumeration — a pure integer computation that cannot
// time out. The closed-form kernel makes each order O(k), so the whole
// fallback costs O(k·k!) instead of the O(n·k!) table walk it used to do.
// Above the exact depth limit even k! ring costs are too many (12! ≈
// 479M), so a small deterministic candidate set is ranked instead. The
// response is flagged Degraded and never cached.
func evalAdviseFallback(q *parsedAdvise) (*AdviseResponse, error) {
	sc := q.scenario()
	h := sc.Hierarchy
	type cand struct {
		sigma []int
		cost  int
	}
	orders := fallbackOrders(h.Depth())
	cands := make([]cand, 0, len(orders))
	for _, sigma := range orders {
		ch, err := metrics.Characterize(h, sigma, h.Size())
		if err != nil {
			return nil, badf("%v", err)
		}
		cands = append(cands, cand{sigma: sigma, cost: ch.RingCost})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return perm.Less(cands[i].sigma, cands[j].sigma)
	})
	pred := func(c cand) AdvisePrediction {
		return AdvisePrediction{
			Order:           c.sigma,
			BottleneckLevel: -1,
			Explain:         fmt.Sprintf("heuristic: ring cost %d (advisor breaker open)", c.cost),
		}
	}
	top := q.top
	if top > len(cands) {
		top = len(cands)
	}
	resp := &AdviseResponse{
		Machine:         q.machine,
		Hierarchy:       h.Arities(),
		Evaluated:       len(cands),
		SearchMode:      advisor.ModeFallback,
		OrdersEvaluated: int64(len(cands)),
		Degraded:        true,
		Best:            make([]AdvisePrediction, top),
		Worst:           pred(cands[len(cands)-1]),
	}
	for i := 0; i < top; i++ {
		resp.Best[i] = pred(cands[i])
	}
	return resp, nil
}

// fallbackOrders is the degraded-path candidate set: every order up to
// the exact depth limit; above it, a bounded deterministic family — the
// identity enumeration, the reversed (σ-default) order, and all their
// rotations — so the breaker-open answer stays O(k²) orders deep into
// the cloud depths. The heuristic keeps the fallback's contract (cheap,
// deterministic, never times out); it does not claim optimality, which
// Degraded already signals.
func fallbackOrders(k int) [][]int {
	if k <= MaxExactAdviseDepth {
		return perm.All(k)
	}
	asc := make([]int, k)
	for i := range asc {
		asc[i] = i
	}
	var out [][]int
	seen := make(map[string]bool)
	add := func(s []int) {
		key := fmt.Sprint(s)
		if !seen[key] {
			seen[key] = true
			out = append(out, append([]int(nil), s...))
		}
	}
	for _, base := range [][]int{asc, perm.Reversed(k)} {
		rot := append([]int(nil), base...)
		for r := 0; r < k; r++ {
			add(rot)
			rot = append(rot[1:], rot[0])
		}
	}
	return out
}

func advisePrediction(sc advisor.Scenario, pr advisor.Prediction) AdvisePrediction {
	return AdvisePrediction{
		Order:           pr.Order,
		Seconds:         pr.Time,
		BandwidthMBs:    pr.Bandwidth / 1e6,
		BottleneckLevel: pr.BottleneckLevel,
		Explain:         advisor.Explain(sc, pr),
	}
}

func (q *parsedMatrixMap) stat() statInfo { return statInfo{shape: q.arities} }
func (q *parsedMatrixMap) eval(ctx context.Context) (any, error) {
	return evalMatrixMap(ctx, q)
}
func (q *parsedMatrixMap) Degraded() (any, error) { return evalMatrixMapFallback(q) }

// evalMatrixMap is the σ-order baseline search followed by the procmap
// greedy construction and refinement, seeded from the better of the two
// starting points — the answer never costs more than the best mixed-radix
// order.
func evalMatrixMap(ctx context.Context, q *parsedMatrixMap) (*MatrixMapResponse, error) {
	g := procmap.NewGraph(q.matrix)
	_, osp := rt.StartSpan(ctx, "procmap.bestorder")
	sigma, orderPlacement, orderCost, evaluated, err := g.BestOrder(q.h, nil)
	osp.End()
	if err != nil {
		return nil, badf("%v", err)
	}
	mctx, msp := rt.StartSpan(ctx, "procmap.map")
	res, err := g.Map(mctx, q.h, procmap.Options{
		Seed:          q.seed,
		MaxRounds:     q.rounds,
		NoRefine:      !q.refine,
		InitPlacement: orderPlacement,
	})
	msp.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, badf("%v", err)
	}
	resp := &MatrixMapResponse{
		Hierarchy:       q.arities,
		Ranks:           q.matrix.Ranks,
		MatrixDigest:    q.digest,
		Placement:       res.Placement,
		Cost:            res.Cost,
		GreedyCost:      res.GreedyCost,
		BestOrder:       sigma,
		BestOrderCost:   orderCost,
		OrdersEvaluated: evaluated,
		Rounds:          res.Rounds,
		Swaps:           res.Swaps,
		Seed:            q.seed,
		SearchMode:      ModeMatrix,
	}
	// With refinement disabled the greedy construction may lose to the σ
	// baseline; the served placement must never be worse than it.
	if orderCost < resp.Cost {
		resp.Placement = orderPlacement
		resp.Cost = orderCost
	}
	if orderCost > 0 {
		resp.ImprovementPct = 100 * (orderCost - resp.Cost) / orderCost
	}
	return resp, nil
}

// evalMatrixMapFallback is the degraded matrix-map answer (breaker open):
// just the best mixed-radix order's placement — a bounded k!·edges scan
// with no refinement. Flagged Degraded and never cached.
func evalMatrixMapFallback(q *parsedMatrixMap) (*MatrixMapResponse, error) {
	sigma, placement, cost, evaluated, err := procmap.NewGraph(q.matrix).BestOrder(q.h, nil)
	if err != nil {
		return nil, badf("%v", err)
	}
	return &MatrixMapResponse{
		Hierarchy:       q.arities,
		Ranks:           q.matrix.Ranks,
		MatrixDigest:    q.digest,
		Placement:       placement,
		Cost:            cost,
		BestOrder:       sigma,
		BestOrderCost:   cost,
		OrdersEvaluated: evaluated,
		Seed:            q.seed,
		SearchMode:      advisor.ModeFallback,
		Degraded:        true,
	}, nil
}

func (q *parsedSelect) stat() statInfo                    { return statInfo{shape: q.arities} }
func (q *parsedSelect) eval(context.Context) (any, error) { return q.answer(false) }
func (q *parsedSelect) Degraded() (any, error)            { return q.answer(true) }

func (q *parsedSelect) answer(degraded bool) (*SelectResponse, error) {
	list, err := slurm.MapCPU(q.h, q.sigma, q.n)
	if err != nil {
		return nil, badf("%v", err)
	}
	resp := &SelectResponse{
		Hierarchy: q.arities,
		Order:     q.sigma,
		N:         q.n,
		MapCPU:    list,
		CPUBind:   slurm.FormatMapCPU(list),
		Degraded:  degraded,
	}
	if induced, err := slurm.InducedHierarchy(q.h, list); err == nil {
		resp.Induced = induced
		resp.Uniform = true
	} else {
		resp.Reason = err.Error()
	}
	return resp, nil
}

func (q *parsedOrderMetrics) stat() statInfo                    { return statInfo{shape: q.arities} }
func (q *parsedOrderMetrics) eval(context.Context) (any, error) { return q.answer(false) }
func (q *parsedOrderMetrics) Degraded() (any, error)            { return q.answer(true) }

func (q *parsedOrderMetrics) answer(degraded bool) (*OrderMetricsResponse, error) {
	ch, err := metrics.Characterize(q.h, q.sigma, q.comm)
	if err != nil {
		return nil, badf("%v", err)
	}
	resp := &OrderMetricsResponse{
		Hierarchy:     q.arities,
		Order:         q.sigma,
		CommSize:      q.comm,
		RingCost:      ch.RingCost,
		PairsPerLevel: ch.Pairs,
		SpreadScore:   ch.SpreadScore(),
		Legend:        ch.String(),
		Degraded:      degraded,
	}
	if d, ok := slurm.DistributionForOrder(q.h, q.sigma); ok {
		resp.Distribution = d.String()
	}
	return resp, nil
}
