// Package procmap maps application processes onto a deeply hierarchical
// machine directly from a sparse communication matrix, instead of only
// permuting the paper's k! mixed-radix digit orders. It follows the
// hierarchical process-mapping line of work (Schulz & Träff's sparse
// quadratic assignment; Schulz & Woydt's shared-memory hierarchical
// mapping): a greedy bottom-up construction packs heavy-traffic process
// groups into hierarchy domains level by level, and a goroutine-
// partitioned local search refines the result with pairwise swaps inside
// each level's domains.
//
// The objective is the closed-form crossing-cost model of §3.3: each
// traffic edge pays its volume times a per-level weight selected by the
// outermost hierarchy level the pair's cores differ in. With the default
// weights this is exactly topology.CrossCost summed over the edges;
// SpecWeights derives calibrated weights from a netmodel machine
// description instead.
//
// Everything is deterministic for a fixed Options.Seed: the parallel
// refinement seeds one RNG per (round, level, domain), so results are
// independent of the worker count and race-clean by construction
// (parallel propose on private copies, sequential commit).
package procmap

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/commmatrix"
	"repro/internal/netmodel"
	"repro/internal/topology"
)

// Options tunes Map and Refine.
type Options struct {
	// Seed drives the refinement's candidate sampling. Two runs with the
	// same seed (at any GOMAXPROCS) produce identical placements.
	Seed int64
	// MaxRounds bounds refinement sweeps over the levels (0 = 16).
	MaxRounds int
	// NoRefine stops after the greedy construction.
	NoRefine bool
	// Weights holds one pair cost per hierarchy level: the price of an
	// edge whose endpoints first differ at that level. Nil selects
	// DefaultWeights (the §3.3 crossing cost).
	Weights []float64
	// InitPlacement, when non-nil, is an additional starting placement
	// (rank → core): refinement starts from it when it costs less than the
	// greedy construction. Callers that already ran BestOrder pass its
	// placement here so Map never answers worse than the σ baseline.
	InitPlacement []int
	// NoOrderInit disables the automatic BestOrder initialization that Map
	// performs when InitPlacement is nil and the hierarchy is shallow
	// enough to enumerate (the pure greedy+refine path, benchmarked by the
	// perf suite).
	NoOrderInit bool
}

const defaultMaxRounds = 16

// Result is a computed mapping.
type Result struct {
	// Placement maps rank → core.
	Placement []int
	// Cost is the weighted crossing cost of Placement.
	Cost float64
	// GreedyCost is the cost after the greedy construction, before any
	// refinement (Cost == GreedyCost when refinement is disabled or finds
	// nothing).
	GreedyCost float64
	// Rounds and Swaps describe the refinement effort actually spent.
	Rounds int
	Swaps  int
}

// DefaultWeights returns the §3.3 crossing-cost weights: a pair first
// differing at level l costs depth−l, exactly topology.CrossCost.
func DefaultWeights(h topology.Hierarchy) []float64 {
	k := h.Depth()
	w := make([]float64, k)
	for l := 0; l < k; l++ {
		w[l] = float64(k - l)
	}
	return w
}

// SpecWeights derives per-level pair costs from a netmodel machine
// description: the cost of a pair whose cores first differ at level l is
// that crossing's one-way latency plus msgBytes over the narrowest link on
// the path (the level's bus and every up-link climbed to reach it). When
// the spec carries no timing information at all the function falls back to
// DefaultWeights, so it is always safe to call.
func SpecWeights(spec netmodel.Spec, msgBytes float64) []float64 {
	k := len(spec.Levels)
	w := make([]float64, k)
	informative := false
	for l := 0; l < k; l++ {
		cost := spec.Levels[l].Latency
		minBW := math.Inf(1)
		if bw := spec.Levels[l].BusBandwidth; bw > 0 {
			minBW = bw
		}
		for j := l + 1; j < k; j++ {
			if bw := spec.Levels[j].UpBandwidth; bw > 0 && bw < minBW {
				minBW = bw
			}
		}
		if !math.IsInf(minBW, 1) && msgBytes > 0 {
			cost += msgBytes / minBW
		}
		w[l] = cost
		if cost > 0 {
			informative = true
		}
	}
	if !informative {
		return DefaultWeights(spec.Hierarchy())
	}
	return w
}

// Graph is one request's traffic in the two forms the search reads: the
// canonical edge list, which every cost sum walks in (a, b) order, and each
// rank's neighbours in ascending rank order, which the greedy construction
// and the swap gains walk. Build it once per request and hand it to
// BestOrder and Map; it is read-only from then on.
type Graph struct {
	edges []commmatrix.Edge
	adj   [][]neighbor
}

// neighbor is one adjacency entry of a rank (or, during the greedy
// construction, of a group of ranks).
type neighbor struct {
	to  int
	vol float64
}

// NewGraph indexes a sparse matrix that is valid and in canonical order,
// as Matrix.Sparse and Sparse.Canonical return it. It keeps s.Edges.
func NewGraph(s commmatrix.Sparse) *Graph {
	g := &Graph{edges: s.Edges, adj: make([][]neighbor, s.Ranks)}
	deg := make([]int, s.Ranks)
	for _, e := range s.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	flat := make([]neighbor, 2*len(s.Edges))
	for r, d := range deg {
		g.adj[r], flat = flat[:0:d], flat[d:]
	}
	// Edges sorted by (a, b) reach every rank's smaller neighbours before
	// its larger ones, each run ascending.
	for _, e := range s.Edges {
		g.adj[e.A] = append(g.adj[e.A], neighbor{e.B, e.Bytes})
		g.adj[e.B] = append(g.adj[e.B], neighbor{e.A, e.Bytes})
	}
	return g
}

// Ranks returns the number of ranks.
func (g *Graph) Ranks() int { return len(g.adj) }

// costModel prices a pair of cores in O(1): the topology level oracle's
// label XOR names the outermost level the cores differ in, and byLen holds
// that level's weight under the XOR's bit length (0 for equal cores).
// suffix[l] is the core count of one level-l domain (suffix[k] = 1).
type costModel struct {
	suffix []int
	label  []uint64
	byLen  [65]float64
}

// newCostModel validates the weights; nil selects DefaultWeights.
func newCostModel(h topology.Hierarchy, weights []float64) (*costModel, error) {
	ar := h.Arities()
	k := len(ar)
	if weights == nil {
		weights = DefaultWeights(h)
	}
	if len(weights) != k {
		return nil, fmt.Errorf("procmap: %d weights for a depth-%d hierarchy", len(weights), k)
	}
	for l, wl := range weights {
		if math.IsNaN(wl) || math.IsInf(wl, 0) || wl < 0 {
			return nil, fmt.Errorf("procmap: level %d weight %g is not a finite non-negative number", l, wl)
		}
	}
	suffix := make([]int, k+1)
	suffix[k] = 1
	for l := k - 1; l >= 0; l-- {
		suffix[l] = suffix[l+1] * ar[l]
	}
	o := h.LevelOracle()
	cm := &costModel{suffix: suffix, label: o.Label}
	for n := 1; n < len(cm.byLen); n++ {
		// Lengths past the label width keep level 0's entry and are never read.
		cm.byLen[n] = weights[o.LevelOfLen[n]]
	}
	return cm, nil
}

// pairCost returns the weight of the outermost level cores a and b differ
// in, or 0 when they are the same core.
func (c *costModel) pairCost(a, b int) float64 {
	return c.byLen[bits.Len64(c.label[a]^c.label[b])]
}

// cost sums volume × pair cost over the edges, in edge order.
func (c *costModel) cost(edges []commmatrix.Edge, placement []int) float64 {
	var total float64
	for _, e := range edges {
		total += e.Bytes * c.pairCost(placement[e.A], placement[e.B])
	}
	return total
}

// Cost evaluates a rank→core placement under the weighted crossing-cost
// objective. Nil weights select DefaultWeights, making the result the sum
// of volume × topology.CrossCost over the edges.
func Cost(m *commmatrix.Matrix, h topology.Hierarchy, placement []int, weights []float64) (float64, error) {
	if len(placement) != m.Size() {
		return 0, fmt.Errorf("procmap: placement has %d ranks, matrix %d", len(placement), m.Size())
	}
	cm, err := newCostModel(h, weights)
	if err != nil {
		return 0, err
	}
	return cm.cost(m.Sparse().Edges, placement), nil
}

// orderInitMaxDepth bounds the automatic BestOrder initialization: beyond
// this depth the k! enumeration is no longer a cheap warm start.
const orderInitMaxDepth = 7

// Map computes a matrix-aware rank→core placement: greedy bottom-up
// construction, then parallel local-search refinement from the better of
// the greedy and best-σ-order starting points (so the result never loses
// to the mixed-radix baseline the endpoint falls back to). The matrix size
// must equal the hierarchy's core count. The context cancels the
// refinement; the greedy phase is fast enough to always run to completion.
func Map(ctx context.Context, m *commmatrix.Matrix, h topology.Hierarchy, opts Options) (*Result, error) {
	return NewGraph(m.Sparse()).Map(ctx, h, opts)
}

// Map is the package-level Map on traffic already indexed.
func (g *Graph) Map(ctx context.Context, h topology.Hierarchy, opts Options) (*Result, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = defaultMaxRounds
	}
	cm, err := newCostModel(h, opts.Weights)
	if err != nil {
		return nil, err
	}
	placement, err := g.build(h)
	if err != nil {
		return nil, err
	}
	greedy := cm.cost(g.edges, placement)
	res := &Result{Placement: placement, Cost: greedy, GreedyCost: greedy}
	if opts.NoRefine {
		return res, nil
	}
	init := opts.InitPlacement
	if init == nil && !opts.NoOrderInit && h.Depth() <= orderInitMaxDepth {
		_, init, _, _, _ = g.BestOrder(h, opts.Weights) // nil on error
	}
	if len(init) == len(placement) && cm.cost(g.edges, init) < greedy {
		copy(placement, init)
	}
	res.Rounds, res.Swaps, err = refine(ctx, g.adj, cm, placement, opts)
	if err != nil {
		return nil, err
	}
	res.Cost = cm.cost(g.edges, placement)
	return res, nil
}
