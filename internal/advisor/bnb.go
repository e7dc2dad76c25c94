// SearchOrders, the one front door of the order search, and its one
// engine: a depth-first walk of the prefix tree of digit orders, with a
// bounded-width beam fallback. The walk uses two structural facts from
// §3.3 (internal/metrics/prefix.go):
//
//  1. A prefix whose radix product covers the communicator size fully
//     determines the first subcommunicator — placement and internal
//     ordering. When only the first communicator runs (!Simultaneous),
//     every completion of such a prefix therefore has the *same*
//     predicted cost: the whole (k−t)!-order subtree collapses into one
//     leaf evaluation, composed with the PR 4 equivalence-class memo so
//     distinct evaluations ≈ distinct placement signatures.
//
//  2. For any prefix, the deepest crossing level any completion can
//     achieve is closed-form (metrics.BestCompletionCrossLevel), which
//     yields an admissible lower bound on the cost of every completion:
//     rounds × the cheapest latency at or outside that level, plus — for
//     covered prefixes under Simultaneous — the first communicator's
//     exact traffic term, which only grows as the remaining world
//     communicators tile in.
//
// Up to ExactDepth, and in Rank, the walk is exhaustive: with no pruning
// and no node budget it visits every class (ModeExact, or ModePruned when
// classes shared evaluations). Deeper, subtrees whose bound exceeds the
// top-T incumbent threshold are pruned with proof, so a completed run
// returns exactly the orders Rank would (ModeBnB, gap 0); past the node
// budget a level-synchronous beam of bounded width answers, with an
// optimality gap from the smallest bound it discarded (ModeBeam).
//
// A node costs O(1) amortized and no allocation: what a node needs from
// its path is carried down it (pathState). Fact 1 settles the first
// communicator — its signature, interned to a small id, and under
// Simultaneous its bound — once, at the covering ancestor. A covering
// prefix that is a box settles it by its level set alone when the
// signature has no ring component, so the id of a box is memoized by the
// levels used. With one communicator the id is the leaf's class: its
// prediction sits in a table indexed by the id. The world
// tiling a Simultaneous leaf adds depends at permuted position t only on
// the prefix product P_t (the carry chain of metrics/fastpath.go), so a
// step down adds one division's worth of crossings to a shared profile
// and a multiply-add to its fingerprint, and a step up undoes them; the
// DFS and the beam share that step. A leaf finds its class by the
// fingerprint and verifies it; one that cannot enter the incumbents is
// rejected before their sort.
//
// Fact 3 joins the two: a settled subtree is one class. Under
// Simultaneous, once a covered prefix has used a level outer to every
// level still free, each step below it adds its crossings to that level's
// profile entry, and they telescope to the prefix's carries (a full order
// carries none), so all (k−t)! completions share one memo key and one
// prediction, and none of them can be pruned. The DFS walks and evaluates
// the canonical completion, files the next completions the incumbents can
// still take, and counts the subtree's other nodes and leaves in closed
// form (treeSize, leavesBefore), firing the heartbeats they cross and
// stopping where the node budget does: O(top + k + heartbeats) instead of
// O(subtree), with every count and event the node-by-node walk produces.

package advisor

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/perm"
)

// Search modes, as labeled on the advisor metrics and reported in
// SearchResult.Mode.
const (
	// ModeExact and ModePruned: the exhaustive walk, "pruned" when
	// equivalence classes shared evaluations.
	ModeExact  = "exact"
	ModePruned = "pruned"
	// ModeBnB: the branch-and-bound completed within its node budget; the
	// returned best orders are provably identical to the exhaustive
	// ranking (OptimalityGap 0).
	ModeBnB = "bnb"
	// ModeBeam: the node budget ran out and the bounded-width beam
	// answered instead, with a reported OptimalityGap.
	ModeBeam = "beam"
	// ModeFallback is never produced by the search: it marks the
	// service's breaker-open heuristic ranking.
	ModeFallback = "fallback"
)

// Bounded-search defaults. How many nodes a search visits depends on how
// soon a prefix covers the communicator, hence on its size, not only on
// the depth. Measured on the cloud machine (alltoall): a 16-rank
// communicator is covered after three or four levels and depth 12
// completes exactly in 10 375 nodes; 64 ranks take 49 912 nodes at depth
// 10 and 161 290 at depth 12, still exact. A communicator no proper prefix
// covers (all the cores), or every communicator running at once, makes
// every full order a leaf: depth 10 is already a tree of 9.9 M prefixes,
// spends the budget and is answered by the beam. nodeBudget caps the
// prefix-tree nodes the branch-and-bound visits before degrading to the
// beam, beamWidth is the beam's frontier width, and progressEvery is the
// node interval between coverage events. unlimited is the budget of the
// exhaustive walk, which prunes nothing either.
const (
	nodeBudget    = 400_000
	beamWidth     = 32
	progressEvery = 10_000
	unlimited     = math.MaxInt64
)

// Progress event kinds.
const (
	// progressIncumbent: the best evaluated completion time strictly
	// improved. Within one search phase (mode) the IncumbentTime sequence
	// of these events is strictly decreasing.
	progressIncumbent = "incumbent"
	// progressCoverage: a periodic heartbeat every progressEvery visited
	// nodes, carrying the covered/pruned/evaluated tallies.
	progressCoverage = "coverage"
)

// searchProgress is one live progress event of a search, delivered
// synchronously from the search goroutine to the advisor.search span.
type searchProgress struct {
	// Kind is progressIncumbent or progressCoverage.
	Kind string
	// Mode is the phase emitting the event (ModeExact for the exhaustive
	// walk, ModeBnB, or ModeBeam after the node budget forced the fallback).
	Mode string
	// Nodes/Evaluated/Covered/Pruned mirror the SearchResult tallies at
	// the instant of the event.
	Nodes, Evaluated, Covered, Pruned int64
	// IncumbentTime is the best evaluated completion time so far in
	// seconds (0 before the first leaf evaluation of the phase).
	IncumbentTime float64
	// BoundGap bounds the remaining optimality headroom against the root
	// admissible lower bound: the true optimum is ≥ IncumbentTime ×
	// (1 − BoundGap). It shrinks as incumbents improve.
	BoundGap float64
}

// SearchOptions shapes SearchOrders' answer and its observability.
type SearchOptions struct {
	// Top is how many best orders the result carries; 0 means 1.
	Top int
	// Registry is RankOptions' observability hook, labeled with the mode
	// of the engine that ran.
	Registry *obs.Registry
}

// SearchResult is the outcome of one search.
type SearchResult struct {
	// Best holds the top orders, ranked exactly as Rank ranks (bandwidth
	// descending, lexicographic tie-break). In every mode but ModeBeam it
	// is the head of the exhaustive ranking, in ModeBnB provably so.
	Best []Prediction
	// Worst is the worst *evaluated* class: the last entry of the ranking
	// in the exhaustive modes; under ModeBnB the true global worst can
	// live in a pruned subtree.
	Worst Prediction
	// Mode is ModeExact or ModePruned up to ExactDepth (the exhaustive
	// walk), ModeBnB or ModeBeam beyond.
	Mode string
	// Evaluated counts model evaluations actually performed (distinct
	// placement signatures predicted) — the honest "orders evaluated".
	Evaluated int64
	// Covered counts full orders represented by evaluated leaves; Pruned
	// counts orders discarded with a bound proof. Covered+Pruned equals
	// k! in every mode but ModeBeam.
	Covered, Pruned int64
	// Nodes is the number of prefix-tree nodes visited, in every mode
	// (both phases of a search that fell back to the beam).
	Nodes int64
	// OptimalityGap g guarantees the true optimum time is at least
	// Best[0].Time × (1−g). In [0, 1) in ModeBeam, zero otherwise.
	OptimalityGap float64
}

// errNodeBudget aborts the branch-and-bound descent when the node budget
// is exhausted; answer catches it and runs the beam.
var errNodeBudget = errors.New("advisor: search node budget exhausted")

// ExactDepth is the deepest hierarchy SearchOrders searches exhaustively:
// 7! = 5040 orders is the largest space the exhaustive walk answers
// comfortably within a request budget.
const ExactDepth = 7

// SearchOrders returns the top opts.Top orders for the scenario. The
// search is a property of the scenario, not of the caller: up to
// ExactDepth the walk is exhaustive (Mode exact or pruned, Worst the true
// last entry of the ranking), deeper it is the branch-and-bound and, past
// the node budget, the beam. A communicator of fewer than two ranks is an
// error.
func SearchOrders(ctx context.Context, sc Scenario, opts SearchOptions) (*SearchResult, error) {
	budget := int64(unlimited)
	if sc.Hierarchy.Depth() > ExactDepth {
		budget = nodeBudget
	}
	return search(ctx, sc, opts, budget, beamWidth, progressEvery)
}

// search runs the walk: exhaustive with an unlimited budget, else the
// branch-and-bound for at most budget nodes and then the beam of width
// orders per level, with a coverage event every every nodes. A
// communicator of fewer than two ranks runs no collective: an error. The
// walk is sequential: the incumbent set makes pruning stateful, and
// determinism wins over parallel speedup. The registry counts evaluations
// as class misses and the other orders covered as hits.
func search(ctx context.Context, sc Scenario, opts SearchOptions, budget int64, width int, every int64) (*SearchResult, error) {
	if sc.CommSize < 2 {
		return nil, fmt.Errorf("advisor: communicator size %d: a collective needs at least 2 ranks", sc.CommSize)
	}
	opts.Top = max(opts.Top, 1)
	start := time.Now()
	ctx, span := rt.StartSpan(ctx, "advisor.search")
	span.SetAttr("depth", int64(sc.Hierarchy.Depth()))
	defer span.End()

	e, err := newBnbEngine(ctx, sc, opts.Top, budget, every)
	if err != nil {
		span.SetError()
		return nil, err
	}
	if span != nil {
		e.progress = progressSink(span)
	}
	res, err := e.run(width)
	if err != nil {
		span.SetError()
		return nil, err
	}
	span.SetAttr("nodes", res.Nodes)
	span.SetAttr("evaluated", res.Evaluated)

	if reg := opts.Registry; reg != nil {
		ml := obs.L("mode", res.Mode)
		reg.Counter("advisor_class_misses_total", ml).AddInt(res.Evaluated)
		reg.Counter("advisor_class_hits_total", ml).AddInt(max(res.Covered-res.Evaluated, 0))
		reg.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).Observe(time.Since(start).Seconds())
	}
	return res, nil
}

// run walks the prefix tree and, once a node budget is spent, answers
// from a beam of width orders per level.
func (e *bnbEngine) run(width int) (*SearchResult, error) {
	return e.answer(e.dfs(0), width)
}

// answer turns the walk's outcome err into the result, running the beam
// of width orders per level when the budget was spent.
func (e *bnbEngine) answer(err error, width int) (*SearchResult, error) {
	gap := 0.0
	if errors.Is(err, errNodeBudget) {
		// Budget spent: discard the partial branch-and-bound incumbents
		// (their pruning accounting is no longer meaningful) and answer
		// from the beam. The class memo is kept — re-encountered
		// signatures stay free. The incumbent progress stream restarts
		// with the phase: each mode's event sequence is monotone on its
		// own.
		e.inc.reset()
		e.covered, e.pruned = 0, 0
		e.mode, e.best = ModeBeam, math.Inf(1)
		gap, err = e.beam(width)
	}
	if err != nil {
		return nil, err
	}
	if len(e.inc.leaves) == 0 {
		return nil, fmt.Errorf("advisor: search found no orders for depth %d", e.k)
	}
	mode := e.mode
	if mode == ModeExact && e.evals < e.covered {
		mode = ModePruned
	}
	return &SearchResult{
		Best:          e.results(e.inc.top),
		Worst:         e.worst,
		Mode:          mode,
		Evaluated:     e.evals,
		Covered:       e.covered,
		Pruned:        e.pruned,
		Nodes:         e.nodes,
		OptimalityGap: gap,
	}, nil
}

// progressSink records each progress event as a search_progress instant
// event on the advisor.search span.
func progressSink(span *rt.Span) func(searchProgress) {
	return func(p searchProgress) {
		span.Event("search_progress",
			obs.Arg{Key: "improvement", Val: obs.Bool(p.Kind == progressIncumbent)},
			obs.Arg{Key: "nodes", Val: p.Nodes},
			obs.Arg{Key: "covered", Val: p.Covered},
			obs.Arg{Key: "pruned", Val: p.Pruned},
			obs.Arg{Key: "incumbent_us", Val: int64(p.IncumbentTime * 1e6)},
			obs.Arg{Key: "gap_bp", Val: int64(p.BoundGap * 1e4)},
		)
	}
}

// classLeaf is one evaluated equivalence node of the prefix tree: a
// covering prefix (or, under Simultaneous, a full order) together with
// the shared prediction of all (k−t)! completions it represents. pr.Order
// is the canonical completion — the prefix followed by the remaining
// levels ascending — which is the lexicographically smallest member.
type classLeaf struct {
	pr    Prediction
	split int   // prefix length; pr.Order[split:] is the ascending remainder
	size  int64 // (k-split)! orders represented
}

// incumbents keeps the running best class leaves, trimmed to what the
// top-T answer can still need: as they come until they account for top
// orders (a full ranking costs one sort), then in ranking order. Their
// orders live in buffers of the set — one a trim dropped, or one carved
// from an arena — so filing a leaf rarely allocates.
type incumbents struct {
	top    int
	leaves []classLeaf
	// thr is the pruning cutoff, valid when full: the worst Time among the
	// retained leaves once they account for at least top orders. Subtrees
	// whose lower bound strictly exceeds it cannot affect the answer (ties
	// are kept for the lexicographic merge). Recomputed by insert, so the
	// per-node test reads two fields.
	thr  float64
	full bool
	cum  int64 // orders the leaves account for, until full
	head int   // the leaf the ranking puts first
	// arena backs the orders of leaves that found no dropped buffer.
	arena []int
}

// byRanking orders leaves as the final ranking does: bandwidth descending,
// then canonical order (perm.Less).
func byRanking(a, b *classLeaf) int {
	if a.pr.Bandwidth != b.pr.Bandwidth {
		return cmp.Compare(b.pr.Bandwidth, a.pr.Bandwidth)
	}
	return slices.Compare(a.pr.Order, b.pr.Order)
}

// insert files a leaf whose order is the engine's scratch buffer, copying
// it into a buffer of the set. Once the set is full, a leaf trim would drop
// at the end — below the last leaf's bandwidth, or tying it behind a tail
// tie group of top classes — returns at once.
func (in *incumbents) insert(l classLeaf) {
	n := len(in.leaves)
	if !in.full {
		l.pr.Order = in.extend(l.pr.Order)
		in.leaves[n] = l
		if byRanking(&l, &in.leaves[in.head]) < 0 {
			in.head = n
		}
		if in.cum += l.size; in.cum >= int64(in.top) {
			in.sort()
			in.trim()
		}
		return
	}
	last := &in.leaves[n-1]
	if bw := last.pr.Bandwidth; l.pr.Bandwidth < bw || l.pr.Bandwidth == bw && n >= in.top &&
		in.leaves[n-in.top].pr.Bandwidth == bw && perm.Less(last.pr.Order, l.pr.Order) {
		return
	}
	i := sort.Search(n, func(i int) bool { return byRanking(&in.leaves[i], &l) >= 0 })
	l.pr.Order = in.extend(l.pr.Order)
	copy(in.leaves[i+1:], in.leaves[i:n])
	in.leaves[i] = l
	in.trim()
}

// extend lengthens the leaves by one and returns order copied into the
// buffer a trim or reset left in the new slot, or one from the arena.
func (in *incumbents) extend(order []int) []int {
	n, k := len(in.leaves), len(order)
	if n == cap(in.leaves) {
		in.leaves = push(in.leaves, classLeaf{})
	}
	in.leaves = in.leaves[:n+1]
	buf, a := in.leaves[n].pr.Order, len(in.arena)
	if cap(buf) < k {
		if cap(in.arena)-a < k {
			in.arena, a = make([]int, 0, max(2*cap(in.arena), min(in.top, 32)*k)), 0
		}
		buf, in.arena = in.arena[a:a+k:a+k], in.arena[:a+k]
	}
	return append(buf[:0], order...)
}

// reset empties the set for the next search phase.
func (in *incumbents) reset() {
	in.leaves, in.thr, in.full, in.cum, in.head = in.leaves[:0], 0, false, 0, 0
}

// sort puts the leaves in ranking order. A leaf is large, so it sorts their
// indices and then moves each leaf once, along the cycles of the
// permutation.
func (in *incumbents) sort() {
	idx := make([]int32, len(in.leaves))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return byRanking(&in.leaves[a], &in.leaves[b]) })
	for i := range idx {
		if idx[i] < 0 {
			continue
		}
		l, j := in.leaves[i], i
		for int(idx[j]) != i {
			next := int(idx[j])
			in.leaves[j], idx[j], j = in.leaves[next], -1, next
		}
		in.leaves[j], idx[j] = l, -1
	}
	in.head = 0
}

// trim drops from the sorted set that accounts for top orders every leaf
// past the class where the cumulative order count reaches top, but keeps
// up to top classes of the cutoff bandwidth-tie group (only the smallest
// canonicals of a tie group reach the final merge); it resets the cutoff.
func (in *incumbents) trim() {
	var cum int64
	for i := range in.leaves {
		cum += in.leaves[i].size
		if cum < int64(in.top) {
			continue
		}
		bw := in.leaves[i].pr.Bandwidth
		g := i
		for g > 0 && in.leaves[g-1].pr.Bandwidth == bw {
			g--
		}
		end := i + 1
		for end < len(in.leaves) && end < g+in.top && in.leaves[end].pr.Bandwidth == bw {
			end++
		}
		in.leaves = in.leaves[:end]
		break
	}
	in.thr = 0
	for i := range in.leaves {
		in.thr = max(in.thr, in.leaves[i].pr.Time)
	}
	in.full, in.head = true, 0
}

// fpMul are the fingerprint's multipliers, one per level (a hierarchy
// has at most 32) and one for the first communicator's id: odd splitmix64
// outputs, so that distinct keys rarely collide.
var fpMul = func() (m [33]uint64) {
	for i := range m {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		m[i] = (x^x>>27)*0x94d049bb133111eb | 1
	}
	return m
}()

// fpIndex numbers keys 0, 1, … as they are added, all of them in one
// arena; the zero value is empty. A key is found through its fingerprint
// in an open-addressing table and verified, so colliding keys only probe
// further.
type fpIndex[T int | byte] struct {
	slots []int32  // 1 + an id, 0 empty: a power of two, at most half full
	fps   []uint64 // id j's fingerprint
	ends  []int32  // id j's key is keys[ends[j-1]:ends[j]], from 0 for j = 0
	keys  []T
}

// key returns id j's key.
func (m *fpIndex[T]) key(j int) []T {
	if j == 0 {
		return m.keys[:m.ends[0]]
	}
	return m.keys[m.ends[j-1]:m.ends[j]]
}

// id returns the key's id and whether it was there already, numbering it
// next when it was not.
func (m *fpIndex[T]) id(fp uint64, key []T) (int, bool) {
	if 2*(len(m.fps)+1) > len(m.slots) {
		m.rehash(max(2*len(m.slots), 64))
	}
	i := m.slot(fp)
	for ; m.slots[i] != 0; i = (i + 1) & (len(m.slots) - 1) {
		if j := int(m.slots[i]) - 1; m.fps[j] == fp && slices.Equal(m.key(j), key) {
			return j, true
		}
	}
	j := len(m.fps)
	m.slots[i] = int32(j + 1)
	m.fps = push(m.fps, fp)
	m.keys = push(m.keys, key...)
	m.ends = push(m.ends, int32(len(m.keys)))
	return j, false
}

// slot is the fingerprint's home slot, from its top bits spread by a
// multiplier so that fingerprints differing only high up land apart.
func (m *fpIndex[T]) slot(fp uint64) int {
	return int((fp * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(m.slots)))))
}

// rehash moves every id to a table of n slots.
func (m *fpIndex[T]) rehash(n int) {
	m.slots = make([]int32, n)
	for j, fp := range m.fps {
		i := m.slot(fp)
		for m.slots[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		m.slots[i] = int32(j + 1)
	}
}

// push appends to a table that only grows, doubling its capacity (from
// 32) when full: n entries cost under 2n in all, where append's slower
// growth past a few hundred entries allocates about 5n.
func push[T any](s []T, v ...T) []T {
	if len(s)+len(v) > cap(s) {
		s = slices.Grow(s, max(len(s), len(v), 32))
	}
	return append(s, v...)
}

// keyFingerprint is Σ w_i·fpMul[i mod 33] over a byte key's little-endian
// 8-byte words w_i, the last one zero-padded.
func keyFingerprint(key []byte) (fp uint64) {
	for i := 0; i < len(key); i += 8 {
		var w [8]byte
		copy(w[:], key[i:])
		fp += binary.LittleEndian.Uint64(w[:]) * fpMul[i/8%len(fpMul)]
	}
	return fp
}

type bnbEngine struct {
	ctx  context.Context
	sc   Scenario
	ar   []int
	k    int
	p    int
	n    int    // hierarchy size: the "communicator" of the world tiling
	ring bool   // the schedule walks the communicator as a ring
	all  uint32 // every level's bit

	pd   *predictor // the scenario's model
	fcPd *predictor // its first communicator alone (bounded Simultaneous only)

	// latFloor[v] = rounds × the cheapest latency at any level in [0, v]
	// (levels past the spec cost 0, mirroring Predict). Admissible
	// because every completion crosses at level ≤ v for
	// v = BestCompletionCrossLevel.
	latFloor []float64

	// ids interns the first communicator's signature, rendered by
	// AppendKey, at covering nodes; boxes memoizes the id of a box prefix
	// by the levels it uses when the signature has no ring component.
	// comm[id] is the communicator's prediction alone, Time 0 until a leaf
	// (one communicator) or an interior node's bound (Simultaneous) needs
	// it; predict never answers a Time of 0. The tables grow as they are
	// read (slot).
	ids   fpIndex[byte]
	boxes map[uint32]int32
	comm  []estimate
	// memo numbers the Simultaneous leaf classes by leafKey's key; preds[j]
	// is entry j's prediction, Time 0 like comm's until evaluated.
	memo  fpIndex[int]
	preds []estimate

	inc   incumbents
	worst Prediction // its Order is nil until a leaf is evaluated

	// Per-node scratch, so that a node allocates nothing: sigma[:t] is the
	// prefix of the node in hand (the DFS path; the beam copies its
	// candidate in) and leaves complete it in place; path[t] is what the
	// path carries to it and prof[:k] the world profile of sigma[:t], with
	// prof[k] free for a leaf's key; pairs and cross take the signature
	// kernels' output; key takes its rendering.
	sigma        []int
	path         []pathState
	prof         []int
	pairs, cross []int64
	key          []byte

	nodes, evals, covered, pruned int64
	budget                        int64

	// Progress stream state: the sink (nil when nobody listens), the
	// coverage heartbeat interval and the nodes left to the next beat, the
	// phase label, the best incumbent time seen this phase, and the root
	// admissible lower bound the gap is measured against.
	progress    func(searchProgress)
	every, tick int64
	mode        string
	best        float64
	rootLB      float64
}

// pathState is what the path carries to a node: the levels used, their
// radix product P and the outermost of them; the (n−1)/P world ranks whose
// carry passes them all, and the fingerprint of the world crossings they
// take; and what the shortest covering prefix settles for every order
// below it (§3.3) — the first communicator's interned signature id (−1
// until a prefix covers it) and, when all world communicators run at
// once, the bound lb every completion shares: the communicator's exact
// traffic term, which only grows as the others tile in, plus the latency
// floor of its settled crossing level.
type pathState struct {
	used                    uint32
	prod, minLevel, carries int
	fp                      uint64
	id                      int32
	lb                      float64
}

func newBnbEngine(ctx context.Context, sc Scenario, top int, budget, every int64) (*bnbEngine, error) {
	pd, err := newPredictor(sc)
	if err != nil {
		return nil, err
	}
	h := sc.Hierarchy
	ar := h.Arities()
	k := len(ar)
	latFloor := make([]float64, k+1)
	minLat := math.Inf(1)
	for v := 0; v <= k; v++ {
		if v < len(sc.Spec.Levels) {
			if l := sc.Spec.Levels[v].Latency; l < minLat {
				minLat = l
			}
		} else {
			minLat = 0 // Predict charges no latency past the spec'd levels
		}
		latFloor[v] = pd.rounds * minLat
	}
	ints, counts := make([]int, 2*k+1), make([]int64, 2*k)
	e := &bnbEngine{
		ctx:      ctx,
		sc:       sc,
		ar:       ar,
		k:        k,
		p:        sc.CommSize,
		n:        h.Size(),
		ring:     sc.Coll != Alltoall,
		all:      1<<uint(k) - 1,
		pd:       pd,
		latFloor: latFloor,
		boxes:    make(map[uint32]int32),
		inc:      incumbents{top: top, leaves: make([]classLeaf, 0, min(top, 32))},
		sigma:    ints[:k:k],
		path:     make([]pathState, k+1),
		prof:     ints[k:],
		pairs:    counts[:k:k],
		cross:    counts[k:],
		key:      make([]byte, 0, 3+2*k*binary.MaxVarintLen64),
		budget:   budget,
		every:    every,
		tick:     every,
		mode:     ModeBnB,
		best:     math.Inf(1),
		rootLB:   latFloor[metrics.BestCompletionCrossLevel(ar, nil, sc.CommSize)],
	}
	e.path[0] = pathState{prod: 1, minLevel: k, carries: e.n - 1, id: -1}
	if budget == unlimited {
		e.mode = ModeExact
	} else if sc.Simultaneous { // the bounds alone read the first communicator's time
		fcSc := sc
		fcSc.Simultaneous = false
		if e.fcPd, err = newPredictor(fcSc); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// emit delivers one progress event to the configured sink.
func (e *bnbEngine) emit(kind string) {
	if e.progress == nil {
		return
	}
	p := searchProgress{
		Kind:      kind,
		Mode:      e.mode,
		Nodes:     e.nodes,
		Evaluated: e.evals,
		Covered:   e.covered,
		Pruned:    e.pruned,
	}
	if !math.IsInf(e.best, 1) {
		p.IncumbentTime = e.best
		if e.best > 0 && e.rootLB < e.best {
			p.BoundGap = (e.best - e.rootLB) / e.best
		}
	}
	e.progress(p)
}

// visit counts one prefix-tree node against the context, the heartbeat
// and (in the branch-and-bound phase) the node budget. The context is
// polled every 1 024 nodes here and before every evaluation (leafPred).
func (e *bnbEngine) visit() error {
	e.nodes++
	if e.nodes&1023 == 0 {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if e.tick--; e.tick == 0 {
		e.tick = e.every
		e.emit(progressCoverage)
	}
	if e.mode == ModeBnB && e.nodes > e.budget {
		return errNodeBudget
	}
	return nil
}

// descend steps from the node e.sigma[:t] to its child through level l,
// in the DFS and the beam alike: the world ranks whose carry reaches the
// new position but not past it cross at the outermost level used so far.
func (e *bnbEngine) descend(t, l int) {
	s, c := &e.path[t], &e.path[t+1]
	*c = *s
	e.sigma[t] = l
	c.used, c.prod, c.minLevel = s.used|1<<uint(l), s.prod*e.ar[l], min(s.minLevel, l)
	c.carries = (e.n - 1) / c.prod
	d := s.carries - c.carries
	e.prof[c.minLevel] += d
	c.fp += uint64(d) * fpMul[c.minLevel]
}

// ascend undoes descend(t, ·).
func (e *bnbEngine) ascend(t int) {
	c := &e.path[t+1]
	e.prof[c.minLevel] -= e.path[t].carries - c.carries
}

// dfs walks the prefix tree depth-first from the node e.sigma[:t],
// children in ascending level order so leaves arrive in canonical
// (lexicographic) order; a settled subtree is collapsed. Only the
// branch-and-bound prunes.
func (e *bnbEngine) dfs(t int) error {
	if err := e.visit(); err != nil {
		return err
	}
	if err := e.cover(t); err != nil {
		return err
	}
	if e.isLeaf(t) {
		_, err := e.evalLeaf(t, t)
		return err
	}
	if e.mode == ModeBnB && t > 0 && e.inc.full && e.bound(t) > e.inc.thr {
		e.pruned += perm.Factorial(e.k - t)
		return nil
	}
	if e.settled(t) {
		return e.collapse(t)
	}
	for free := e.all &^ e.path[t].used; free != 0; free &= free - 1 {
		e.descend(t, bits.TrailingZeros32(free))
		err := e.dfs(t + 1)
		e.ascend(t)
		if err != nil {
			return err
		}
	}
	return nil
}

// settled reports whether the interior node e.sigma[:t], not pruned, is
// one class (fact 3): every world communicator runs at once, a prefix
// covers the first, and the outermost level used is outer to every free
// level, so every step below adds its crossings to the same profile entry.
func (e *bnbEngine) settled(t int) bool {
	s := &e.path[t]
	return e.sc.Simultaneous && s.id >= 0 && bits.TrailingZeros32(e.all&^s.used) > s.minLevel
}

// collapse searches the settled node e.sigma[:t]'s subtree as the DFS
// would, in O(top + k + heartbeats): it walks and evaluates the canonical
// completion, files the next completions the incumbents can still take
// with the shared prediction, and counts the other nodes and leaves in
// closed form, firing every heartbeat they cross and stopping where the
// node budget does. Nothing below the node is pruned: a retained leaf
// keeps thr at or above its Time, which the admissible lb bounds, and a
// rejected one leaves the incumbents as they were. The exhaustive walk's
// worst candidate is the subtree's last leaf, the bounded walk's its
// first.
func (e *bnbEngine) collapse(t int) error {
	r := e.k - t
	base, covered := e.nodes-1, e.covered // before the node and its leaves
	u := t
	var err error
	for ; u < e.k && err == nil; u++ {
		e.descend(u, bits.TrailingZeros32(e.all&^e.path[u].used))
		err = e.visit()
	}
	var pr Prediction
	if err == nil {
		from := e.k
		if e.mode == ModeExact {
			from = t
		}
		pr, err = e.evalLeaf(e.k, from)
	}
	for u--; u >= t; u-- {
		e.ascend(u)
	}
	if err != nil {
		return err
	}
	for m := 1; m < e.inc.top && nextPermutation(e.sigma[t:]); m++ {
		e.inc.insert(classLeaf{pr: pr, split: e.k, size: 1})
	}
	size := treeSize(r)
	stop := e.budget + 1
	if size <= e.budget-base {
		stop = base + size
	}
	for e.tick <= stop-e.nodes {
		e.nodes += e.tick
		e.tick = e.every
		e.covered = covered + leavesBefore(r, e.nodes-base-1)
		e.emit(progressCoverage)
	}
	e.tick -= stop - e.nodes
	e.nodes = stop
	if stop > e.budget {
		return errNodeBudget
	}
	e.covered = covered + perm.Factorial(r)
	return e.ctx.Err()
}

// treeSize is the node count of a prefix subtree with r free levels,
// Σ_{j=0..r} r!/(r−j)! = 1 + r·treeSize(r−1), saturating at MaxInt64.
func treeSize(r int) int64 {
	n := int64(1)
	for j := int64(1); j <= int64(r); j++ {
		if n > (math.MaxInt64-1)/j {
			return math.MaxInt64
		}
		n = 1 + j*n
	}
	return n
}

// leavesBefore counts the leaves at preorder indices below i in a prefix
// subtree with r free levels, its root at index 0.
func leavesBefore(r int, i int64) int64 {
	var n int64
	for ; r > 0 && i > 0; r-- {
		i-- // the root
		sub := treeSize(r - 1)
		if q := i / sub; q > 0 {
			n += q * perm.Factorial(r-1)
		}
		i %= sub
	}
	if r == 0 && i > 0 {
		n++
	}
	return n
}

// isLeaf: a covering prefix is a leaf unless every world communicator
// runs at once — the world tiling needs the full order.
func (e *bnbEngine) isLeaf(t int) bool {
	return (e.path[t].prod >= e.p && !e.sc.Simultaneous) || t == e.k
}

// cover settles the first communicator at the first node e.sigma[:t] of
// the path to cover it: the signature's id and, for an interior node, the
// bound of its subtree. A box prefix (its radix product is the
// communicator size) places pairs by the levels it uses alone, so without
// a ring component its id is memoized by them; the memo only caches what
// interning answers, so ids keep their first-appearance numbering.
func (e *bnbEngine) cover(t int) error {
	s := &e.path[t]
	if s.id >= 0 || s.prod < e.p {
		return nil
	}
	if !e.ring && s.prod == e.p {
		id, ok := e.boxes[s.used]
		if !ok {
			id = e.intern()
			e.boxes[s.used] = id
		}
		s.id = id
	} else {
		s.id = e.intern()
	}
	if e.isLeaf(t) || e.mode == ModeExact { // the exhaustive walk reads no bound
		return nil
	}
	pr := slot(&e.comm, int(s.id))
	if pr.Time == 0 {
		p, err := e.fcPd.predict(e.complete(t, s.used))
		if err != nil {
			return err
		}
		*pr = estimate{p.Time, p.Bandwidth, p.Latency, p.BottleneckLevel}
	}
	s.lb = pr.Time - pr.Latency + e.latFloor[metrics.BestCompletionCrossLevel(e.ar, e.sigma[:t], e.p)]
	return nil
}

// intern returns the id of the first communicator's signature under the
// covering prefix in e.sigma, which is all its kernels read, numbering a
// new one next.
func (e *bnbEngine) intern() int32 {
	sig := metrics.SearchSignature{CommPairs: e.pairs}
	metrics.PairCountsPerLevelInto(e.pairs, e.ar, e.sigma, e.p)
	if e.ring {
		sig.CommCross = e.cross
		metrics.CrossingsPerLevelInto(e.cross, e.ar, e.sigma, e.p)
	}
	e.key = sig.AppendKey(e.key[:0])
	id, _ := e.ids.id(keyFingerprint(e.key), e.key)
	return int32(id)
}

// estimate is a Prediction without its order, as the class tables hold
// it: with no pointer in it, the collector does not scan them.
type estimate struct {
	Time, Bandwidth, Latency float64
	BottleneckLevel          int
}

// slot returns entry j of a prediction table, growing the table to hold it.
func slot(tab *[]estimate, j int) *estimate {
	for len(*tab) <= j {
		*tab = push(*tab, estimate{})
	}
	return &(*tab)[j]
}

// bound returns an admissible lower bound on the predicted time of every
// completion of the interior node e.sigma[:t].
func (e *bnbEngine) bound(t int) float64 {
	if s := &e.path[t]; s.id >= 0 {
		return s.lb
	}
	return e.latFloor[metrics.BestCompletionCrossLevel(e.ar, e.sigma[:t], e.p)]
}

// complete fills e.sigma[t:] with the levels the prefix leaves unused,
// ascending — the canonical completion, lexicographically smallest of the
// orders below the node — and returns the full order.
func (e *bnbEngine) complete(t int, used uint32) []int {
	for free := e.all &^ used; free != 0; free &= free - 1 {
		e.sigma[t] = bits.TrailingZeros32(free)
		t++
	}
	return e.sigma
}

// evalLeaf predicts the (shared) cost of all completions of the leaf
// e.sigma[:t], memoized by placement signature, feeds the incumbents and
// the worst-evaluated tracker, and returns the prediction. The worst
// candidate is e.sigma with e.sigma[from:] reversed.
func (e *bnbEngine) evalLeaf(t, from int) (Prediction, error) {
	sigma := e.complete(t, e.path[t].used)
	pr, err := e.leafPred(t, sigma)
	if err != nil {
		return Prediction{}, err
	}
	size := perm.Factorial(e.k - t)
	e.covered += size
	e.inc.insert(classLeaf{pr: pr, split: t, size: size})
	if best := e.inc.leaves[e.inc.head].pr.Time; best < e.best {
		e.best = best
		e.emit(progressIncumbent)
	}
	// The exhaustive walk keeps the ranking's last entry, on a tie the
	// later leaf's last member (prefix + descending rest); the bounded
	// walk keeps the first leaf of the longest Time.
	worse := pr.Time > e.worst.Time
	if e.mode == ModeExact {
		worse = pr.Bandwidth <= e.worst.Bandwidth
	}
	if e.worst.Order == nil || worse {
		order := e.worst.Order
		e.worst = pr
		e.worst.Order = append(order[:0], sigma...)
		slices.Reverse(e.worst.Order[from:])
	}
	return pr, nil
}

// leafPred returns the prediction of the leaf e.sigma[:t], completed to
// sigma (its Order), from its class's slot: with one communicator the
// first communicator's id is the class and comm[id] the slot, under
// Simultaneous the memo numbers the class by leafKey.
func (e *bnbEngine) leafPred(t int, sigma []int) (Prediction, error) {
	var pr *estimate
	if e.sc.Simultaneous {
		j, _ := e.memo.id(e.leafKey(t))
		pr = slot(&e.preds, j)
	} else {
		pr = slot(&e.comm, int(e.path[t].id))
	}
	if pr.Time == 0 {
		if err := e.ctx.Err(); err != nil {
			return Prediction{}, err
		}
		p, err := e.pd.predict(sigma)
		if err != nil {
			return Prediction{}, err
		}
		*pr = estimate{p.Time, p.Bandwidth, p.Latency, p.BottleneckLevel}
		e.evals++
	}
	return Prediction{Order: sigma, Time: pr.Time, Bandwidth: pr.Bandwidth, BottleneckLevel: pr.BottleneckLevel, Latency: pr.Latency}, nil
}

// leafKey returns the fingerprint and memo key of the Simultaneous leaf
// e.sigma[:t]: its world profile, then its first communicator's id.
func (e *bnbEngine) leafKey(t int) (uint64, []int) {
	s := &e.path[t]
	e.prof[e.k] = int(s.id)
	return uint64(s.id)*fpMul[e.k] + s.fp, e.prof
}

// beam is the budget-exhausted fallback: a level-synchronous search that
// keeps the width most promising prefixes per depth (ranked by lower
// bound, deterministic lexicographic tie-break) and folds every dropped
// candidate's bound into the optimality gap.
func (e *bnbEngine) beam(width int) (float64, error) {
	// A candidate carries its prefix, then its world profile, and its
	// state. A level's candidates are carved from one arena; the next
	// level's come from the other, so the two are swapped between levels.
	type cand struct {
		node []int
		st   pathState
		lb   float64
	}
	frontier, next := []cand{{node: make([]int, e.k), st: e.path[0]}}, []cand(nil)
	var arena, spare []int
	globalLB := math.Inf(1)
	for t := 0; len(frontier) > 0; t++ {
		next, arena = next[:0], arena[:0]
		for _, c := range frontier {
			copy(e.sigma, c.node[:t])
			copy(e.prof[:e.k], c.node[t:])
			e.path[t] = c.st
			for free := e.all &^ c.st.used; free != 0; free &= free - 1 {
				if err := e.visit(); err != nil {
					return 0, err
				}
				e.descend(t, bits.TrailingZeros32(free))
				err := e.cover(t + 1)
				if err == nil && e.isLeaf(t+1) {
					_, err = e.evalLeaf(t+1, t+1)
				} else if err == nil {
					at := len(arena)
					arena = append(append(arena, e.sigma[:t+1]...), e.prof[:e.k]...)
					next = append(next, cand{node: arena[at:len(arena):len(arena)], st: e.path[t+1], lb: e.bound(t + 1)})
				}
				e.ascend(t)
				if err != nil {
					return 0, err
				}
			}
		}
		slices.SortFunc(next, func(a, b cand) int {
			if a.lb != b.lb {
				return cmp.Compare(a.lb, b.lb)
			}
			return slices.Compare(a.node[:t+1], b.node[:t+1])
		})
		if len(next) > width {
			for _, d := range next[width:] {
				if d.lb < globalLB {
					globalLB = d.lb
				}
			}
			next = next[:width]
		}
		frontier, next = next, frontier
		arena, spare = spare, arena
	}
	if len(e.inc.leaves) == 0 {
		return 0, fmt.Errorf("advisor: beam search found no orders")
	}
	best := e.inc.leaves[e.inc.head].pr.Time
	if globalLB >= best {
		// Nothing promising was ever dropped: the beam was exhaustive.
		return 0, nil
	}
	return (best - globalLB) / best, nil
}

// results expands the retained class leaves, in ranking order, into the
// final top-N full orders. Within a bandwidth-tie group the members of
// several classes interleave lexicographically, so each class lists as
// many of its first completions (next-permutation over the suffix) as the
// answer can still take, and the group is sorted by perm.Less. The orders
// share one backing array.
func (e *bnbEngine) results(topN int) []Prediction {
	topN = int(min(int64(topN), e.covered))
	out := make([]Prediction, 0, topN)
	orders := make([]int, 0, topN*e.k)
	if !e.inc.full {
		e.inc.sort()
	}
	leaves := e.inc.leaves
	for i, j := 0, 0; i < len(leaves) && len(out) < topN; i = j {
		g := len(out)
		for j = i; j < len(leaves) && leaves[j].pr.Bandwidth == leaves[i].pr.Bandwidth; j++ {
			cur := append(e.sigma[:0], leaves[j].pr.Order...)
			for m, more := g, true; m < topN && more; m++ {
				orders = append(orders, cur...)
				pr := leaves[j].pr
				pr.Order = slices.Clip(orders[len(orders)-e.k:])
				out = append(out, pr)
				more = nextPermutation(cur[leaves[j].split:])
			}
		}
		slices.SortFunc(out[g:], func(a, b Prediction) int { return slices.Compare(a.Order, b.Order) })
		out = out[:min(len(out), topN)]
	}
	return out
}

// nextPermutation advances s to its next lexicographic permutation in
// place, returning false when s was already the last one.
func nextPermutation(s []int) bool {
	i := len(s) - 2
	for i >= 0 && s[i] >= s[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(s) - 1
	for s[j] <= s[i] {
		j--
	}
	s[i], s[j] = s[j], s[i]
	for a, b := i+1, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
	return true
}
