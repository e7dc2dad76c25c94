// Package mapd is the mapping-advisory service: a long-lived, concurrent
// front end for the repo's core queries — rank decompose/compose, order
// recommendation (the §5 outlook implemented by internal/advisor),
// --cpu-bind=map_cpu core selection (Algorithm 3), and the §3.3 order
// metrics. Results are canonicalized, cached in a sharded LRU, and
// deduplicated in flight with a singleflight layer so a burst of identical
// advisor evaluations runs the k! search once.
//
// The request/response structs below are the service's wire format; the
// mrmap CLI emits the same structs under -json so CLI and API outputs are
// diffable.
package mapd

import (
	"strconv"

	"repro/internal/commmatrix"
)

// MapRequest asks for rank ⇄ coordinate conversion (Algorithms 1 and 2)
// under a hierarchy and order. Exactly one of Rank, Coords, or Table must
// be set:
//
//   - Rank: decompose the rank into coordinates and compute its reordered
//     rank under Order.
//   - Coords: compose the coordinates into the reordered rank.
//   - Table: return the full old-rank → new-rank mapping table.
//
// Order defaults to the identity order (the initial enumeration,
// Figure 2f), which leaves ranks unchanged.
type MapRequest struct {
	Hierarchy string `json:"hierarchy"`
	Order     string `json:"order,omitempty"`
	Rank      *int   `json:"rank,omitempty"`
	Coords    []int  `json:"coords,omitempty"`
	Table     bool   `json:"table,omitempty"`
}

// MapResponse is the canonical answer to a MapRequest.
type MapResponse struct {
	Hierarchy []int    `json:"hierarchy"`
	Levels    []string `json:"levels"`
	Order     []int    `json:"order"`
	Rank      *int     `json:"rank,omitempty"`     // echo of the decomposed rank
	Coords    []int    `json:"coords,omitempty"`   // coordinates of Rank (or echo)
	NewRank   *int     `json:"new_rank,omitempty"` // reordered rank under Order
	Table     []int    `json:"table,omitempty"`    // table[old] = new
	// Degraded marks an answer computed by a routing tier's local fallback
	// instead of a replica (the result itself is still exact).
	Degraded bool `json:"degraded,omitempty"`
}

// AdviseRequest asks the analytic advisor to rank hierarchy orders for a
// machine model and collective scenario.
type AdviseRequest struct {
	// Machine is a built-in model: "hydra", "hydra-real", "lumi", or
	// "cloud" (the deep synthetic datacenter, sized by Depth).
	Machine string `json:"machine"`
	// Nodes is the compute-node count (default 16; not for cloud).
	Nodes int `json:"nodes,omitempty"`
	// NICs per node (hydra models only; default 1).
	NICs int `json:"nics,omitempty"`
	// Depth is the cloud machine's hierarchy depth (6–12, default 10).
	// Depths above advisor.ExactDepth are served by the bounded
	// branch-and-bound / beam search.
	Depth int `json:"depth,omitempty"`
	// Collective: "alltoall", "allgather", or "allreduce".
	Collective string `json:"collective"`
	// CommSize is the subcommunicator size.
	CommSize int `json:"comm_size"`
	// Bytes is the total collective size S (default 16 MiB).
	Bytes int64 `json:"bytes,omitempty"`
	// Simultaneous: all subcommunicators run the collective at once.
	Simultaneous bool `json:"simultaneous,omitempty"`
	// Top bounds how many ranked orders the response carries (default 5,
	// 0 < Top ≤ 64).
	Top int `json:"top,omitempty"`
}

// AdvisePrediction is one ranked order of an AdviseResponse.
type AdvisePrediction struct {
	Order           []int   `json:"order"`
	Seconds         float64 `json:"seconds"`
	BandwidthMBs    float64 `json:"bandwidth_mbs"`
	BottleneckLevel int     `json:"bottleneck_level"` // -1: latency-bound
	Explain         string  `json:"explain"`
}

// AdviseResponse carries the head (and tail) of the deterministic ranking.
type AdviseResponse struct {
	Machine   string `json:"machine"`
	Hierarchy []int  `json:"hierarchy"`
	// Evaluated counts the orders the answer accounts for: k! for the
	// exact modes and a completed branch-and-bound (where pruned orders
	// are accounted with proof), the covered orders for a beam answer,
	// and the candidate-set size for degraded fallbacks.
	Evaluated int `json:"evaluated"`
	// SearchMode is how the ranking was computed: "exact" or "pruned"
	// up to advisor.ExactDepth, "bnb" (provably optimal) or "beam"
	// (bounded gap) above it, "fallback" for degraded answers.
	SearchMode string `json:"search_mode,omitempty"`
	// OrdersEvaluated counts the model evaluations the search actually
	// performed (equivalence classes predicted) — the honest work done,
	// as reported by the engine rather than recomputed as k!.
	OrdersEvaluated int64 `json:"orders_evaluated,omitempty"`
	// OptimalityGap g is reported by beam answers: the true optimum time
	// is guaranteed ≥ best×(1−g). Zero means provably optimal.
	OptimalityGap float64 `json:"optimality_gap,omitempty"`
	// Degraded marks a heuristic ring-cost ranking served while the
	// advisor circuit breaker was open; Seconds/Bandwidth are absent.
	Degraded bool               `json:"degraded,omitempty"`
	Best     []AdvisePrediction `json:"best"`
	// Worst is the worst-ranked order the search evaluated (the global
	// worst for exact modes; bnb/beam prune or drop costlier subtrees
	// without fully evaluating them).
	Worst AdvisePrediction `json:"worst"`
}

// SelectRequest asks for the --cpu-bind=map_cpu core list that places N
// ranks on one node under an order (Algorithm 3).
type SelectRequest struct {
	Hierarchy string `json:"hierarchy"` // per-node hierarchy
	Order     string `json:"order"`
	N         int    `json:"n"`
}

// SelectResponse is the canonical answer to a SelectRequest.
type SelectResponse struct {
	Hierarchy []int  `json:"hierarchy"`
	Order     []int  `json:"order"`
	N         int    `json:"n"`
	MapCPU    []int  `json:"map_cpu"`  // position r: core hosting rank r
	CPUBind   string `json:"cpu_bind"` // ready-made --cpu-bind value
	// Induced is the hierarchy formed by the selected cores (§3.4), absent
	// when the selection is structurally non-uniform.
	Induced []int  `json:"induced,omitempty"`
	Uniform bool   `json:"uniform"`
	Reason  string `json:"reason,omitempty"` // why the selection is non-uniform
	// Degraded marks an answer computed by a routing tier's local fallback
	// instead of a replica (the result itself is still exact).
	Degraded bool `json:"degraded,omitempty"`
}

// OrderMetricsRequest asks for the §3.3 characterization of one order.
type OrderMetricsRequest struct {
	Hierarchy string `json:"hierarchy"`
	Order     string `json:"order"`
	// CommSize of the first subcommunicator (default: innermost arity).
	CommSize int `json:"comm_size,omitempty"`
}

// OrderMetricsResponse is the canonical answer to an OrderMetricsRequest.
type OrderMetricsResponse struct {
	Hierarchy []int `json:"hierarchy"`
	Order     []int `json:"order"`
	CommSize  int   `json:"comm_size"`
	RingCost  int   `json:"ring_cost"`
	// PairsPerLevel[j]: percentage of process pairs whose communication
	// crosses j levels above the innermost (index 0 = fits lowest level).
	PairsPerLevel []float64 `json:"pairs_per_level"`
	SpreadScore   float64   `json:"spread_score"`
	// Distribution is the equivalent Slurm --distribution value, when one
	// exists.
	Distribution string `json:"distribution,omitempty"`
	Legend       string `json:"legend"` // figure-legend rendering
	// Degraded marks an answer computed by a routing tier's local fallback
	// instead of a replica (the result itself is still exact).
	Degraded bool `json:"degraded,omitempty"`
}

// MatrixMapRequest asks for a communication-matrix-aware placement: the
// procmap greedy construction plus local-search refinement, benchmarked
// against (and never worse than) the best mixed-radix digit order.
type MatrixMapRequest struct {
	Hierarchy string `json:"hierarchy"`
	// Matrix is the sparse symmetric communication matrix; Ranks must equal
	// the hierarchy's core count.
	Matrix commmatrix.Sparse `json:"matrix"`
	// Refine toggles the local-search refinement (default true).
	Refine *bool `json:"refine,omitempty"`
	// Seed drives the refinement's deterministic sampling (default 0).
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds bounds refinement sweeps (default: procmap's default).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// MatrixMapResponse is the canonical answer to a MatrixMapRequest.
type MatrixMapResponse struct {
	Hierarchy []int `json:"hierarchy"`
	Ranks     int   `json:"ranks"`
	// MatrixDigest is the canonical content digest of the request matrix;
	// responses are cacheable by (digest, hierarchy, options).
	MatrixDigest string `json:"matrix_digest"`
	// Placement maps rank → core.
	Placement []int `json:"placement"`
	// Cost is Placement's weighted crossing cost; GreedyCost is the cost
	// before refinement (absent in fallback answers).
	Cost       float64 `json:"cost"`
	GreedyCost float64 `json:"greedy_cost,omitempty"`
	// BestOrder / BestOrderCost describe the σ baseline the placement was
	// benchmarked against; ImprovementPct is the matrix-aware win over it.
	BestOrder       []int   `json:"best_order"`
	BestOrderCost   float64 `json:"best_order_cost"`
	ImprovementPct  float64 `json:"improvement_pct"`
	OrdersEvaluated int64   `json:"orders_evaluated"`
	Rounds          int     `json:"rounds,omitempty"`
	Swaps           int     `json:"swaps,omitempty"`
	Seed            int64   `json:"seed"`
	// SearchMode is "matrix" for the full search or "fallback" when the
	// answer is the bare σ-order baseline (breaker open); fallback answers
	// are additionally flagged Degraded and never cached.
	SearchMode string `json:"search_mode"`
	Degraded   bool   `json:"degraded,omitempty"`
}

// errorBody is the structured error envelope of every non-2xx response.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    int    `json:"code"`
	Status  string `json:"status"`
	Message string `json:"message"`
	// TraceID is the request's distributed-tracing id (when tracing is
	// enabled), so clients can quote the exact failing trace.
	TraceID string `json:"trace_id,omitempty"`
}

// intsKey renders ints compactly for cache keys.
func intsKey(v []int) string { return string(appendInts(make([]byte, 0, 64), v)) }

func appendInts(b []byte, v []int) []byte {
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// Key returns the canonical cache key of the parsed request. Requests that
// differ only in surface syntax ("2x2x4" vs "[2, 2, 4]", "0-1-2" vs
// "0,1,2") share a key.
func (q *parsedMap) Key() string {
	k := "map|" + intsKey(q.arities) + "|" + intsKey(q.sigma) + "|"
	switch {
	case q.rank != nil:
		k += "r" + strconv.Itoa(*q.rank)
	case q.coords != nil:
		k += "c" + intsKey(q.coords)
	}
	if q.table {
		k += "|t"
	}
	return k
}

// Key returns the canonical cache key of the parsed request.
func (q *parsedAdvise) Key() string {
	b := append(append(make([]byte, 0, 64), "advise|"...), q.machine...)
	for _, v := range [...]int64{int64(q.nodes), int64(q.nics), int64(q.depth)} {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	b = append(append(b, '|'), q.coll...)
	b = strconv.AppendInt(append(b, '|'), int64(q.comm), 10)
	b = strconv.AppendInt(append(b, '|'), q.bytes, 10)
	b = strconv.AppendBool(append(b, '|'), q.simultaneous)
	return string(strconv.AppendInt(append(b, '|'), int64(q.top), 10))
}

// Key returns the canonical cache key of the parsed request.
func (q *parsedSelect) Key() string {
	return "select|" + intsKey(q.arities) + "|" + intsKey(q.sigma) + "|" + strconv.Itoa(q.n)
}

// Key returns the canonical cache key of the parsed request.
func (q *parsedOrderMetrics) Key() string {
	return "metrics|" + intsKey(q.arities) + "|" + intsKey(q.sigma) + "|" + strconv.Itoa(q.comm)
}

// Key returns the canonical cache key of the parsed request: the matrix
// participates via its content digest, so identical traffic submitted with
// edges in any order or orientation shares a key.
func (q *parsedMatrixMap) Key() string {
	b := append(appendInts(append(make([]byte, 0, 128), "mapmatrix|"...), q.arities), '|')
	b = strconv.AppendInt(append(append(b, q.digest...), "|s"...), q.seed, 10)
	b = strconv.AppendInt(append(b, "|r"...), int64(q.rounds), 10)
	return string(strconv.AppendBool(append(b, "|f"...), q.refine))
}
