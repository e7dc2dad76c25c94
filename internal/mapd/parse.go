// Request validation. Every limit here exists so that a hostile or
// malformed request cannot make the service panic or allocate without
// bound: hierarchy sizes are bounded (topology.Parse already refuses a
// product that overflows int, so nothing downstream can panic on one),
// orders must be permutations of the hierarchy depth, and table-sized
// responses are capped.
//
// Decoding precedes it in Endpoint.Parse, and encoding/json (unknown fields
// and trailing data refused) is the authority on the wire format. Both
// tiers decode every /v1/map/matrix body, cache hits included, so those go
// to decode.go's one-pass decoder first. It takes a strict subset — exact
// lower-case keys, each once; printable-ASCII strings without escapes;
// integers of at most 18 digits, no "-0"; true/false, never null; only
// whitespace after the object — fills the request as encoding/json would,
// and declines everything else to it: acceptance, results and errors stay
// encoding/json's (FuzzMatrixDecodeAgrees holds the two paths equal).

package mapd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Validation bounds. They are intentionally generous — far above anything
// the paper's machines need — while keeping every accepted request cheap
// enough to evaluate synchronously.
const (
	// MaxDepth bounds hierarchy depth for all endpoints.
	MaxDepth = 12
	// MaxCores bounds the total core count a hierarchy may enumerate.
	MaxCores = 1 << 20
	// MaxTable bounds the size of a full mapping table response.
	MaxTable = 1 << 16
	// MaxAdviseDepth bounds the hierarchy depth of an advise request. Up
	// to advisor.ExactDepth the k! search runs; deeper hierarchies are
	// served by the bounded branch-and-bound / beam search, which is
	// polynomial-ish in practice (node-budgeted) rather than factorial.
	MaxAdviseDepth = 12
	// MaxExactAdviseDepth bounds the exhaustive ring-cost ranking of the
	// degraded advise fallback (8! = 40320 orders).
	MaxExactAdviseDepth = 8
	// MaxAdviseNodes bounds the machine size of an advise request.
	MaxAdviseNodes = 4096
	// MaxTop bounds how many ranked orders an advise response carries.
	MaxTop = 64
	// MaxMatrixRanks bounds the rank count of a matrix-map request: the
	// refinement is superlinear in ranks, and the synchronous budget must
	// hold even for dense matrices.
	MaxMatrixRanks = 1024
	// MaxMatrixDepth bounds the hierarchy depth of a matrix-map request —
	// the σ baseline enumerates k! digit orders (6! = 720).
	MaxMatrixDepth = 6
	// MaxMatrixEdges bounds the sparse matrix's edge count.
	MaxMatrixEdges = 1 << 14
	// MaxMatrixRounds bounds the requested refinement rounds.
	MaxMatrixRounds = 64
)

// ErrBadRequest marks a client error (HTTP 400). Every parse/validation
// failure wraps it.
var ErrBadRequest = errors.New("mapd: bad request")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// parseHierarchy parses and bounds a hierarchy description.
func parseHierarchy(s string) (topology.Hierarchy, error) {
	if len(s) > 256 {
		return topology.Hierarchy{}, badf("hierarchy description longer than 256 bytes")
	}
	h, err := topology.Parse(s)
	if errors.Is(err, topology.ErrTooLarge) {
		return topology.Hierarchy{}, badf("hierarchy enumerates more than %d cores", MaxCores)
	}
	if err != nil {
		return topology.Hierarchy{}, badf("%v", err)
	}
	if h.Depth() > MaxDepth {
		return topology.Hierarchy{}, badf("hierarchy depth %d exceeds %d", h.Depth(), MaxDepth)
	}
	if h.Size() > MaxCores {
		return topology.Hierarchy{}, badf("hierarchy enumerates more than %d cores", MaxCores)
	}
	return h, nil
}

// parseOrder parses an order for a depth-k hierarchy; empty means the
// identity order (initial enumeration).
func parseOrder(s string, k int) ([]int, error) {
	if s == "" {
		return perm.Reversed(k), nil // mixedradix.IdentityOrder
	}
	if len(s) > 256 {
		return nil, badf("order description longer than 256 bytes")
	}
	sigma, err := perm.Parse(s)
	if err != nil {
		return nil, badf("%v", err)
	}
	if len(sigma) != k {
		return nil, badf("order %s has %d levels, hierarchy has %d", perm.Format(sigma), len(sigma), k)
	}
	return sigma, nil
}

// parsedMap is the canonical form of a MapRequest.
type parsedMap struct {
	h       topology.Hierarchy
	arities []int
	sigma   []int
	rank    *int
	coords  []int
	table   bool
}

func (r *MapRequest) parse() (Query, error) {
	h, err := parseHierarchy(r.Hierarchy)
	if err != nil {
		return nil, err
	}
	sigma, err := parseOrder(r.Order, h.Depth())
	if err != nil {
		return nil, err
	}
	q := &parsedMap{h: h, arities: h.Arities(), sigma: sigma, table: r.Table}
	modes := 0
	if r.Rank != nil {
		modes++
		if *r.Rank < 0 || *r.Rank >= h.Size() {
			return nil, badf("rank %d outside [0, %d)", *r.Rank, h.Size())
		}
		rk := *r.Rank
		q.rank = &rk
	}
	if r.Coords != nil {
		modes++
		if len(r.Coords) != h.Depth() {
			return nil, badf("%d coordinates for %d levels", len(r.Coords), h.Depth())
		}
		for i, c := range r.Coords {
			if c < 0 || c >= q.arities[i] {
				return nil, badf("coordinate %d is %d, want [0, %d)", i, c, q.arities[i])
			}
		}
		q.coords = append([]int(nil), r.Coords...)
	}
	if r.Table {
		if h.Size() > MaxTable {
			return nil, badf("table for %d ranks exceeds the %d-rank limit", h.Size(), MaxTable)
		}
	} else if modes == 0 {
		return nil, badf("one of rank, coords, or table is required")
	}
	if modes > 1 {
		return nil, badf("rank and coords are mutually exclusive")
	}
	return q, nil
}

// parsedAdvise is the canonical form of an AdviseRequest.
type parsedAdvise struct {
	machine      string
	nodes        int
	nics         int
	depth        int // cloud only; 0 for the fixed-shape machines
	coll         advisor.Collective
	comm         int
	bytes        int64
	simultaneous bool
	top          int
	spec         netmodel.Spec
}

func (r *AdviseRequest) parse() (Query, error) {
	q := &parsedAdvise{
		machine:      r.Machine,
		nodes:        r.Nodes,
		nics:         r.NICs,
		depth:        r.Depth,
		comm:         r.CommSize,
		bytes:        r.Bytes,
		simultaneous: r.Simultaneous,
		top:          r.Top,
	}
	if q.machine != "cloud" && r.Depth != 0 {
		return nil, badf("depth applies only to machine cloud")
	}
	if q.nodes == 0 {
		q.nodes = 16
	}
	if q.nodes < 2 || q.nodes > MaxAdviseNodes {
		return nil, badf("nodes %d outside [2, %d]", q.nodes, MaxAdviseNodes)
	}
	if q.nics == 0 {
		q.nics = 1
	}
	if q.nics < 1 || q.nics > 8 {
		return nil, badf("nics %d outside [1, 8]", q.nics)
	}
	switch q.machine {
	case "hydra":
		q.spec = cluster.Hydra(q.nodes, q.nics)
	case "hydra-real":
		q.spec = cluster.HydraReal(q.nodes, q.nics)
	case "lumi":
		if r.NICs != 0 && r.NICs != 1 {
			return nil, badf("machine lumi has a fixed NIC configuration")
		}
		q.spec = cluster.LUMI(q.nodes)
	case "cloud":
		if r.Nodes != 0 {
			return nil, badf("machine cloud is sized by depth, not nodes")
		}
		if r.NICs != 0 && r.NICs != 1 {
			return nil, badf("machine cloud has a fixed NIC configuration")
		}
		if q.depth == 0 {
			q.depth = 10
		}
		if q.depth < cluster.CloudMinDepth || q.depth > cluster.CloudMaxDepth {
			return nil, badf("cloud depth %d outside [%d, %d]",
				q.depth, cluster.CloudMinDepth, cluster.CloudMaxDepth)
		}
		// Canonical form: nodes/nics are meaningless for cloud, so zero
		// them out of the cache key.
		q.nodes, q.nics = 0, 0
		q.spec = cluster.Cloud(q.depth)
	case "":
		return nil, badf("machine is required (hydra, hydra-real, lumi, or cloud)")
	default:
		return nil, badf("unknown machine %q (want hydra, hydra-real, lumi, or cloud)", q.machine)
	}
	h := q.spec.Hierarchy()
	if h.Depth() > MaxAdviseDepth {
		return nil, badf("advise hierarchy depth %d exceeds %d", h.Depth(), MaxAdviseDepth)
	}
	switch advisor.Collective(r.Collective) {
	case advisor.Alltoall, advisor.Allgather, advisor.Allreduce:
		q.coll = advisor.Collective(r.Collective)
	default:
		return nil, badf("unknown collective %q (want alltoall, allgather, or allreduce)", r.Collective)
	}
	if q.comm < 2 || q.comm > h.Size() {
		return nil, badf("comm_size %d outside [2, %d]", q.comm, h.Size())
	}
	if h.Size()%q.comm != 0 {
		return nil, badf("comm_size %d does not divide %d", q.comm, h.Size())
	}
	if q.bytes == 0 {
		q.bytes = 16 << 20
	}
	if q.bytes < 1 || q.bytes > 1<<40 {
		return nil, badf("bytes %d outside [1, 2^40]", q.bytes)
	}
	if q.top == 0 {
		q.top = 5
	}
	if q.top < 1 || q.top > MaxTop {
		return nil, badf("top %d outside [1, %d]", q.top, MaxTop)
	}
	return q, nil
}

func (q *parsedAdvise) scenario() advisor.Scenario {
	return advisor.Scenario{
		Spec:         q.spec,
		Hierarchy:    q.spec.Hierarchy(),
		Coll:         q.coll,
		CommSize:     q.comm,
		Simultaneous: q.simultaneous,
		Bytes:        q.bytes,
	}
}

// parsedSelect is the canonical form of a SelectRequest.
type parsedSelect struct {
	h       topology.Hierarchy
	arities []int
	sigma   []int
	n       int
}

func (r *SelectRequest) parse() (Query, error) {
	h, err := parseHierarchy(r.Hierarchy)
	if err != nil {
		return nil, err
	}
	sigma, err := parseOrder(r.Order, h.Depth())
	if err != nil {
		return nil, err
	}
	if r.N <= 0 || r.N > h.Size() {
		return nil, badf("cannot select %d cores from %d", r.N, h.Size())
	}
	if r.N > MaxTable {
		return nil, badf("selection of %d cores exceeds the %d-core limit", r.N, MaxTable)
	}
	return &parsedSelect{h: h, arities: h.Arities(), sigma: sigma, n: r.N}, nil
}

// parsedMatrixMap is the canonical form of a MatrixMapRequest.
type parsedMatrixMap struct {
	h       topology.Hierarchy
	arities []int
	matrix  commmatrix.Sparse // canonical; indexed into a procmap.Graph only on a miss
	digest  string
	seed    int64
	rounds  int
	refine  bool
}

func (r *MatrixMapRequest) parse() (Query, error) {
	h, err := parseHierarchy(r.Hierarchy)
	if err != nil {
		return nil, err
	}
	if h.Depth() > MaxMatrixDepth {
		return nil, badf("matrix-map hierarchy depth %d exceeds %d", h.Depth(), MaxMatrixDepth)
	}
	if h.Size() > MaxMatrixRanks {
		return nil, badf("matrix-map hierarchy enumerates %d ranks, limit %d", h.Size(), MaxMatrixRanks)
	}
	if len(r.Matrix.Edges) > MaxMatrixEdges {
		return nil, badf("matrix has %d edges, limit %d", len(r.Matrix.Edges), MaxMatrixEdges)
	}
	// One validation and one sort; the digest and the search both read
	// the canonical edges.
	matrix, err := r.Matrix.Canonical()
	if err != nil {
		return nil, badf("%v", err)
	}
	if matrix.Ranks != h.Size() {
		return nil, badf("matrix covers %d ranks, hierarchy enumerates %d", matrix.Ranks, h.Size())
	}
	if r.MaxRounds < 0 || r.MaxRounds > MaxMatrixRounds {
		return nil, badf("max_rounds %d outside [0, %d]", r.MaxRounds, MaxMatrixRounds)
	}
	// Finite volumes can still sum past the float range, and a cost of
	// +Inf turns swap gains into Inf−Inf. No placement costs more than
	// every byte crossing the outermost level, weight Depth; half the
	// range leaves room for the rounding of sums taken in another order.
	var volume float64
	for _, e := range matrix.Edges {
		volume += e.Bytes
	}
	if worst := volume * float64(h.Depth()); worst > math.MaxFloat64/2 {
		return nil, badf("matrix volume %g overflows the cost of a depth-%d placement", volume, h.Depth())
	}
	q := &parsedMatrixMap{
		h:       h,
		arities: h.Arities(),
		matrix:  matrix,
		digest:  matrix.Digest(),
		seed:    r.Seed,
		rounds:  r.MaxRounds,
		refine:  true,
	}
	if r.Refine != nil {
		q.refine = *r.Refine
	}
	return q, nil
}

// parsedOrderMetrics is the canonical form of an OrderMetricsRequest.
type parsedOrderMetrics struct {
	h       topology.Hierarchy
	arities []int
	sigma   []int
	comm    int
}

func (r *OrderMetricsRequest) parse() (Query, error) {
	h, err := parseHierarchy(r.Hierarchy)
	if err != nil {
		return nil, err
	}
	sigma, err := parseOrder(r.Order, h.Depth())
	if err != nil {
		return nil, err
	}
	comm := r.CommSize
	if comm == 0 {
		comm = h.Level(h.Depth() - 1).Arity
	}
	if comm < 2 || comm > h.Size() {
		return nil, badf("comm_size %d outside [2, %d]", comm, h.Size())
	}
	// PairsPerLevel is O(comm²); bound the quadratic work.
	if comm > 1<<12 {
		return nil, badf("comm_size %d exceeds the %d-rank metrics limit", comm, 1<<12)
	}
	return &parsedOrderMetrics{h: h, arities: h.Arities(), sigma: sigma, comm: comm}, nil
}
