// The reference the refinement is held to: the implementation of commit
// 7843a36, verbatim but for the oracle prefix on its names — pairCost as a
// division loop over the suffix products, tentative swaps in two maps, a KL
// chain that rescans all s² gains at every step, the greedy construction
// over a dense n×n copy, one matrix scan per phase. The production code
// must find the same placements bit for bit (TestRefineMatchesOracle).

package procmap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

// matrixEdges calls fn for every nonzero unordered pair (a < b) in (a, b)
// order, as the Matrix.Edges the reference was written against did.
func matrixEdges(m *commmatrix.Matrix, fn func(a, b int, bytes float64)) {
	for _, e := range m.Sparse().Edges {
		fn(e.A, e.B, e.Bytes)
	}
}

// oracleCostModel evaluates pair costs without per-call allocation: suffix[l] is
// the core count of one level-l domain (suffix[k] = 1), so the first
// differing level of two cores falls out of repeated division.
type oracleCostModel struct {
	suffix []int
	w      []float64
}

func newOracleCostModel(h topology.Hierarchy, weights []float64) (*oracleCostModel, error) {
	ar := h.Arities()
	k := len(ar)
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
	return &oracleCostModel{suffix: suffix, w: append([]float64(nil), weights...)}, nil
}

// pairCost returns the weight of the outermost level cores a and b differ
// in, or 0 when they are the same core.
func (c *oracleCostModel) pairCost(a, b int) float64 {
	if a == b {
		return 0
	}
	for l := 0; l < len(c.w); l++ {
		s := c.suffix[l+1]
		if a/s != b/s {
			return c.w[l]
		}
		a, b = a%s, b%s
	}
	return 0
}

// oracleMap computes a matrix-aware rank→core placement: greedy bottom-up
// construction, then parallel local-search refinement from the better of
// the greedy and best-σ-order starting points (so the result never loses
// to the mixed-radix baseline the endpoint falls back to). The matrix size
// must equal the hierarchy's core count. The context cancels the
// refinement; the greedy phase is fast enough to always run to completion.
func oracleMap(ctx context.Context, m *commmatrix.Matrix, h topology.Hierarchy, opts Options) (*Result, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = defaultMaxRounds
	}
	if opts.Weights == nil {
		opts.Weights = DefaultWeights(h)
	}
	cm, err := newOracleCostModel(h, opts.Weights)
	if err != nil {
		return nil, err
	}
	placement, err := oracleBuild(m, h)
	if err != nil {
		return nil, err
	}
	res := &Result{Placement: placement}
	res.GreedyCost = oracleCostOf(m, cm, placement)
	res.Cost = res.GreedyCost
	if opts.NoRefine {
		return res, nil
	}
	init := opts.InitPlacement
	if init == nil && !opts.NoOrderInit && h.Depth() <= orderInitMaxDepth {
		if _, inv, _, _, oerr := oracleBestOrder(m, h, opts.Weights); oerr == nil {
			init = inv
		}
	}
	if init != nil && len(init) == m.Size() {
		if ic := oracleCostOf(m, cm, init); ic < res.GreedyCost {
			copy(res.Placement, init)
			res.Cost = ic
		}
	}
	rounds, swaps, err := oracleRefine(ctx, m, cm, placement, opts)
	if err != nil {
		return nil, err
	}
	res.Rounds, res.Swaps = rounds, swaps
	res.Cost = oracleCostOf(m, cm, placement)
	return res, nil
}

func oracleCostOf(m *commmatrix.Matrix, cm *oracleCostModel, placement []int) float64 {
	var total float64
	matrixEdges(m, func(a, b int, v float64) {
		total += v * cm.pairCost(placement[a], placement[b])
	})
	return total
}

// oracleBuild computes the greedy bottom-up placement (rank → core). The matrix
// size must equal the hierarchy's core count.
func oracleBuild(m *commmatrix.Matrix, h topology.Hierarchy) ([]int, error) {
	n := m.Size()
	if n != h.Size() {
		return nil, fmt.Errorf("procmap: %d ranks for a machine with %d cores", n, h.Size())
	}
	ar := h.Arities()
	// groups[i] is the ordered member-rank list of group i; coarse is the
	// dense group×group volume matrix of the current level.
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	coarse := make([]float64, n*n)
	matrixEdges(m, func(a, b int, v float64) {
		coarse[a*n+b] = v
		coarse[b*n+a] = v
	})
	g := n
	for l := len(ar) - 1; l >= 0; l-- {
		k := ar[l]
		if k == 1 {
			continue
		}
		ng := g / k
		used := make([]bool, g)
		superOf := make([]int, g)
		// tot[i] is group i's remaining volume to other unused groups — the
		// seed-selection score, maintained incrementally as groups are taken.
		tot := make([]float64, g)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if j != i {
					tot[i] += coarse[i*g+j]
				}
			}
		}
		take := func(i int) {
			used[i] = true
			for j := 0; j < g; j++ {
				if !used[j] {
					tot[j] -= coarse[j*g+i]
				}
			}
		}
		newGroups := make([][]int, 0, ng)
		gain := make([]float64, g) // volume from each unused group to the growing super
		for s := 0; s < ng; s++ {
			// Seed: the unused group with the most remaining traffic.
			seed := -1
			for i := 0; i < g; i++ {
				if used[i] {
					continue
				}
				if seed < 0 || tot[i] > tot[seed] {
					seed = i
				}
			}
			take(seed)
			members := append(make([]int, 0, k), seed)
			for i := 0; i < g; i++ {
				gain[i] = coarse[i*g+seed]
			}
			for len(members) < k {
				pick := -1
				for i := 0; i < g; i++ {
					if used[i] {
						continue
					}
					if pick < 0 || gain[i] > gain[pick] {
						pick = i
					}
				}
				take(pick)
				members = append(members, pick)
				for i := 0; i < g; i++ {
					if !used[i] {
						gain[i] += coarse[i*g+pick]
					}
				}
			}
			for _, i := range members {
				superOf[i] = s
			}
			var merged []int
			for _, i := range members {
				merged = append(merged, groups[i]...)
			}
			newGroups = append(newGroups, merged)
		}
		// Coarsen the volume matrix onto the supers.
		nc := make([]float64, ng*ng)
		for i := 0; i < g; i++ {
			for j := i + 1; j < g; j++ {
				v := coarse[i*g+j]
				if v == 0 {
					continue
				}
				si, sj := superOf[i], superOf[j]
				if si == sj {
					continue
				}
				nc[si*ng+sj] += v
				nc[sj*ng+si] += v
			}
		}
		coarse, groups, g = nc, newGroups, ng
	}
	// One group remains; its member order enumerates the cores. Because
	// each merge keeps deeper groups contiguous, positions nest correctly
	// into the hierarchy's domains.
	placement := make([]int, n)
	for pos, r := range groups[0] {
		placement[r] = pos
	}
	return placement, nil
}

// oracleBestOrder evaluates every mixed-radix order of the hierarchy and returns
// the order with the lowest weighted cost, the placement it induces
// (rank i runs on core InverseTable[i]), that cost, and the number of
// orders actually evaluated — callers report the engine's own count
// instead of recomputing k! (which overflows int at depth ≥ 21/13 on
// 64/32-bit). Nil weights select DefaultWeights. Ties resolve to the
// first order perm.All yields — Heap's order, which is not lexicographic.
func oracleBestOrder(m *commmatrix.Matrix, h topology.Hierarchy, weights []float64) (sigma []int, placement []int, cost float64, evaluated int64, err error) {
	n := m.Size()
	if n != h.Size() {
		return nil, nil, 0, 0, fmt.Errorf("procmap: %d ranks for a machine with %d cores", n, h.Size())
	}
	if weights == nil {
		weights = DefaultWeights(h)
	}
	cm, err := newOracleCostModel(h, weights)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	edges := m.Sparse().Edges
	ar := h.Arities()
	inv := make([]int, n)
	best := -1.0
	var bestSigma, bestInv []int
	for _, s := range perm.All(h.Depth()) {
		ro, rerr := mixedradix.NewReorderer(ar, s)
		if rerr != nil {
			return nil, nil, 0, 0, rerr
		}
		ro.InverseTableInto(inv)
		evaluated++
		var c float64
		for _, e := range edges {
			c += e.Bytes * cm.pairCost(inv[e.A], inv[e.B])
		}
		// Strict < keeps the first of tied orders in perm.All's Heap order.
		if best < 0 || c < best {
			best = c
			bestSigma = append(bestSigma[:0], s...)
			bestInv = append(bestInv[:0], inv...)
		}
	}
	return bestSigma, bestInv, best, evaluated, nil
}

// oracleProposal is a worker's swap sequence for one domain. The commit pass
// replays it against the live placement and applies the best prefix.
type oracleProposal struct {
	chain []swapPair
	ok    bool
}

// oracleRefine improves placement in place and reports the rounds and swaps
// performed. It honors ctx between domains.
func oracleRefine(ctx context.Context, m *commmatrix.Matrix, cm *oracleCostModel, placement []int, opts Options) (rounds, swaps int, err error) {
	n := m.Size()
	adj := make([][]neighbor, n)
	matrixEdges(m, func(a, b int, v float64) {
		adj[a] = append(adj[a], neighbor{b, v})
		adj[b] = append(adj[b], neighbor{a, v})
	})
	owner := make([]int, n) // core → rank
	for r, c := range placement {
		owner[c] = r
	}
	workers := runtime.GOMAXPROCS(0)
	k := len(cm.w)
	for round := 0; round < opts.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return rounds, swaps, err
		}
		roundSwaps := 0
		for l := 0; l < k; l++ {
			size := cm.suffix[l]    // cores per enclosing domain
			child := cm.suffix[l+1] // cores per child domain
			arity := size / child
			if arity < 2 {
				continue
			}
			domains := n / size
			proposals := make([]oracleProposal, domains)
			var wg sync.WaitGroup
			for w := 0; w < workers && w < domains; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for d := w; d < domains; d += workers {
						if ctx.Err() != nil {
							return
						}
						proposals[d] = oraclePropose(adj, cm, placement, owner,
							opts.Seed, round, l, d, size, child)
					}
				}(w)
			}
			wg.Wait()
			if err := ctx.Err(); err != nil {
				return rounds, swaps, err
			}
			// Sequential commit in domain order: replay each oracleProposal against
			// the current placement (an earlier commit this level may have
			// changed a neighbor's position) and apply the best prefix that
			// still improves.
			for d := 0; d < domains; d++ {
				p := proposals[d]
				if !p.ok {
					continue
				}
				roundSwaps += oracleCommitChain(adj, cm, placement, owner, p.chain)
			}
		}
		rounds++
		swaps += roundSwaps
		if roundSwaps == 0 {
			break
		}
	}
	return rounds, swaps, nil
}

// oraclePropose builds one domain's swap sequence: the better of the best single
// cross-child swap and a Kernighan–Lin chain on a rotating pair of child
// domains (when the children are small enough for exhaustive chain steps).
func oraclePropose(adj [][]neighbor, cm *oracleCostModel, placement, owner []int, seed int64, round, level, dom, size, child int) oracleProposal {
	best, bestGain := oracleProposeSwap(adj, cm, placement, owner, seed, round, level, dom, size, child)
	if child >= 2 && child <= klMaxChild {
		arity := size / child
		npairs := arity * (arity - 1) / 2
		a, b := unrankPair((round+dom)%npairs, arity)
		base := dom * size
		st := newOracleTentState(placement, owner)
		chain, gain := oracleKLChain(adj, cm, st, base+a*child, base+b*child, child)
		if len(chain) > 0 && gain > bestGain {
			return oracleProposal{chain: chain, ok: true}
		}
	}
	return best
}

// oracleProposeSwap scans candidate cross-child core pairs of one domain and
// returns the pair with the largest gain (if any improves). Domains whose
// cross pair count is small are scanned exhaustively; larger ones draw a
// deterministic sample from the (seed, round, level, domain) RNG.
func oracleProposeSwap(adj [][]neighbor, cm *oracleCostModel, placement, owner []int, seed int64, round, level, dom, size, child int) (oracleProposal, float64) {
	base := dom * size
	arity := size / child
	crossPairs := size * size * (arity - 1) / arity / 2
	var best oracleProposal
	bestGain := improveEps
	consider := func(c1, c2 int) {
		if g := oracleSwapGain(adj, cm, placement, owner, c1, c2); g > bestGain {
			bestGain = g
			best = oracleProposal{chain: []swapPair{{c1, c2}}, ok: true}
		}
	}
	if crossPairs <= exhaustivePairLimit {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if i/child != j/child {
					consider(base+i, base+j)
				}
			}
		}
		return best, bestGain
	}
	rng := rand.New(rand.NewSource(mix(seed, round, level, dom)))
	samples := sampleFactor * size
	if samples < sampleFloor {
		samples = sampleFloor
	}
	for s := 0; s < samples; s++ {
		i := rng.Intn(size)
		j := rng.Intn(size)
		if i/child == j/child {
			continue
		}
		consider(base+i, base+j)
	}
	return best, bestGain
}

// oracleTentState overlays tentative swaps on a read-only placement/owner
// snapshot, so KL chains can be explored (and later replayed during
// commit) without mutating shared state.
type oracleTentState struct {
	placement, owner []int
	tp               map[int]int // rank → core overrides
	to               map[int]int // core → rank overrides
}

func newOracleTentState(placement, owner []int) *oracleTentState {
	return &oracleTentState{placement: placement, owner: owner,
		tp: make(map[int]int), to: make(map[int]int)}
}

func (t *oracleTentState) place(r int) int {
	if c, ok := t.tp[r]; ok {
		return c
	}
	return t.placement[r]
}

func (t *oracleTentState) own(c int) int {
	if r, ok := t.to[c]; ok {
		return r
	}
	return t.owner[c]
}

func (t *oracleTentState) swap(c1, c2 int) {
	u, v := t.own(c1), t.own(c2)
	t.tp[u], t.tp[v] = c2, c1
	t.to[c1], t.to[c2] = v, u
}

// gain is oracleSwapGain evaluated on the tentative state.
func (t *oracleTentState) gain(adj [][]neighbor, cm *oracleCostModel, c1, c2 int) float64 {
	u, v := t.own(c1), t.own(c2)
	var delta float64
	for _, nb := range adj[u] {
		if nb.to == v {
			continue
		}
		pc := t.place(nb.to)
		delta += nb.vol * (cm.pairCost(c1, pc) - cm.pairCost(c2, pc))
	}
	for _, nb := range adj[v] {
		if nb.to == u {
			continue
		}
		pc := t.place(nb.to)
		delta += nb.vol * (cm.pairCost(c2, pc) - cm.pairCost(c1, pc))
	}
	return delta
}

// oracleKLChain runs a bounded Kernighan–Lin exchange between two sibling child
// domains of s cores each (bases baseA, baseB): repeatedly apply the best
// available swap — even at a loss — locking the touched cores, and return
// the prefix with the largest positive cumulative gain (empty if none).
func oracleKLChain(adj [][]neighbor, cm *oracleCostModel, st *oracleTentState, baseA, baseB, s int) ([]swapPair, float64) {
	lockedA := make([]bool, s)
	lockedB := make([]bool, s)
	var chain []swapPair
	cum, bestCum := 0.0, improveEps
	bestLen := 0
	for step := 0; step < s; step++ {
		bg := math.Inf(-1)
		bi, bj := -1, -1
		for i := 0; i < s; i++ {
			if lockedA[i] {
				continue
			}
			for j := 0; j < s; j++ {
				if lockedB[j] {
					continue
				}
				if g := st.gain(adj, cm, baseA+i, baseB+j); g > bg {
					bg, bi, bj = g, i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		st.swap(baseA+bi, baseB+bj)
		lockedA[bi], lockedB[bj] = true, true
		cum += bg
		chain = append(chain, swapPair{baseA + bi, baseB + bj})
		if cum > bestCum {
			bestCum = cum
			bestLen = len(chain)
		}
	}
	if bestLen == 0 {
		return nil, 0
	}
	return chain[:bestLen], bestCum
}

// oracleCommitChain replays a proposed swap sequence against the live placement,
// finds the prefix with the best cumulative gain under current conditions,
// and applies it for real. Returns the number of swaps applied.
func oracleCommitChain(adj [][]neighbor, cm *oracleCostModel, placement, owner []int, chain []swapPair) int {
	st := newOracleTentState(placement, owner)
	cum, bestCum := 0.0, improveEps
	bestLen := 0
	for i, sp := range chain {
		cum += st.gain(adj, cm, sp.c1, sp.c2)
		st.swap(sp.c1, sp.c2)
		if cum > bestCum {
			bestCum = cum
			bestLen = i + 1
		}
	}
	for _, sp := range chain[:bestLen] {
		u, v := owner[sp.c1], owner[sp.c2]
		placement[u], placement[v] = sp.c2, sp.c1
		owner[sp.c1], owner[sp.c2] = v, u
	}
	return bestLen
}

// oracleSwapGain returns the cost decrease of exchanging the ranks on cores c1
// and c2 (positive = improvement). The c1↔c2 edge itself is unaffected:
// pair costs are symmetric.
func oracleSwapGain(adj [][]neighbor, cm *oracleCostModel, placement, owner []int, c1, c2 int) float64 {
	u, v := owner[c1], owner[c2]
	var delta float64
	for _, nb := range adj[u] {
		if nb.to == v {
			continue
		}
		pc := placement[nb.to]
		delta += nb.vol * (cm.pairCost(c1, pc) - cm.pairCost(c2, pc))
	}
	for _, nb := range adj[v] {
		if nb.to == u {
			continue
		}
		pc := placement[nb.to]
		delta += nb.vol * (cm.pairCost(c2, pc) - cm.pairCost(c1, pc))
	}
	return delta
}

// randomTraffic draws a sparse matrix of float volumes on n ranks: a ring
// so no rank is isolated, plus random chords.
func randomTraffic(rng *rand.Rand, n int) *commmatrix.Matrix {
	m := commmatrix.New(n)
	for i := 0; i < n; i++ {
		m.Add(i, (i+1)%n, rng.Float64()*1e4)
	}
	for e := rng.Intn(6 * n); e > 0; e-- {
		m.Add(rng.Intn(n), rng.Intn(n), rng.ExpFloat64()*1e3)
	}
	return m
}

// TestRefineMatchesOracle holds Map to the reference on random traffic:
// float volumes and weights (so that a gain patched by deltas, or summed in
// another order, would show in the last bit), arities that are not powers
// of two, both starts, and one and three workers. A refine of three or more
// rounds committed swaps in round 2, so its later rounds reused the scans
// of domains whose cores no commit swapped and rescanned the others: the
// cases must include such refines, or a stale reuse would go unseen.
func TestRefineMatchesOracle(t *testing.T) {
	shapes := [][]int{
		{3, 5, 2, 4}, {6, 7}, {3, 3, 3, 3}, {4, 2, 4, 2, 8}, {4, 2, 2, 8},
		{2, 2, 2, 8}, {2, 4, 16}, {5, 3, 8}, {2, 3, 2, 3, 2}, {12, 12}, {2, 2, 2, 2, 2, 2, 2},
	}
	rng := rand.New(rand.NewSource(22))
	cases := 66
	if testing.Short() {
		cases = 22
	}
	multiRound := 0
	for c := 0; c < cases; c++ {
		h := topology.MustNew(shapes[c%len(shapes)]...)
		m := randomTraffic(rng, h.Size())
		opts := Options{Seed: rng.Int63(), NoOrderInit: c%2 == 1}
		switch c % 3 {
		case 1:
			opts.Weights = make([]float64, h.Depth())
			for l := range opts.Weights {
				opts.Weights[l] = rng.Float64() * 10
			}
		case 2:
			if h.Depth() == 4 && h.Level(3).Arity == 8 { // a Hydra-shaped machine
				opts.Weights = SpecWeights(cluster.Hydra(h.Level(0).Arity, 1), float64(rng.Intn(1<<20)))
			}
		}
		name := fmt.Sprintf("case %d %s seed %d weights %v", c, h, opts.Seed, opts.Weights)
		want, err := oracleMap(context.Background(), m, h, opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if want.Rounds >= 3 {
			multiRound++
		}
		for _, workers := range []int{1, 3} {
			prev := runtime.GOMAXPROCS(workers)
			got, err := Map(context.Background(), m, h, opts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got.Placement, want.Placement) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
				math.Float64bits(got.GreedyCost) != math.Float64bits(want.GreedyCost) ||
				got.Rounds != want.Rounds || got.Swaps != want.Swaps {
				t.Errorf("%s, %d workers: cost %v greedy %v rounds %d swaps %d, oracle %v %v %d %d (placements equal: %v)",
					name, workers, got.Cost, got.GreedyCost, got.Rounds, got.Swaps,
					want.Cost, want.GreedyCost, want.Rounds, want.Swaps,
					reflect.DeepEqual(got.Placement, want.Placement))
			}
		}
		// BestOrder on its own, as the endpoint calls it.
		ws, wp, wc, wn, err := oracleBestOrder(m, h, opts.Weights)
		if err != nil {
			t.Fatalf("%s: oracle BestOrder: %v", name, err)
		}
		if h.Depth() <= orderInitMaxDepth {
			gs, gp, gc, gn, err := BestOrder(m, h, opts.Weights)
			if err != nil {
				t.Fatalf("%s: BestOrder: %v", name, err)
			}
			if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gp, wp) ||
				math.Float64bits(gc) != math.Float64bits(wc) || gn != wn {
				t.Errorf("%s: BestOrder = %v at %v after %d, oracle %v at %v after %d", name, gs, gc, gn, ws, wc, wn)
			}
		}
	}
	if multiRound < cases/3 {
		t.Errorf("only %d of %d cases refine for three or more rounds, want ≥ %d", multiRound, cases, cases/3)
	}
}

// TestMapAllocs bounds what one Map allocates on the three matrix shapes
// the serving benchmark sends (halo-8x16 allocated 1 171 times at commit
// 7843a36): the searchers' arrays, the KL scratch and the sampling
// generator are per worker, and the scan tables are carved from one arena
// per refine, not allocated per domain or round, at every worker count
// refine takes from GOMAXPROCS. The bounds sit a few percent above the
// counts measured at 16 workers: 220, 506 and 144.
func TestMapAllocs(t *testing.T) {
	for _, s := range []struct {
		name  string
		h     topology.Hierarchy
		gen   func() (*commmatrix.Matrix, error)
		bound uint64
	}{
		{"halo-8x16", topology.MustNew(4, 2, 2, 8), func() (*commmatrix.Matrix, error) { return Halo(8, 16, 1024) }, 230},
		{"halo-16x32", topology.MustNew(4, 2, 4, 2, 8), func() (*commmatrix.Matrix, error) { return Halo(16, 32, 1024) }, 530},
		{"layers-4x4x4", topology.MustNew(2, 2, 2, 8), func() (*commmatrix.Matrix, error) {
			return GridLayers([3]int{4, 4, 4}, [3]float64{10, 1000, 10})
		}, 150},
	} {
		m, err := s.gen()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 1, NoOrderInit: true}
		for _, procs := range []int{1, 2, 7, 16} {
			allocs := mallocsAt(procs, func() {
				if _, err := Map(context.Background(), m, s.h, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > s.bound {
				t.Errorf("GOMAXPROCS %d: Map on %s allocates %d times, want ≤ %d", procs, s.name, allocs, s.bound)
			}
			t.Logf("%s, GOMAXPROCS %d: %d allocs/op", s.name, procs, allocs)
		}
	}
}

// mallocsAt reports the fewest heap allocations of five calls of f at the
// given GOMAXPROCS, read from the runtime's statistics, since
// testing.AllocsPerRun pins GOMAXPROCS to 1. A stray allocation elsewhere
// only raises a call's count, so the fewest is f's own.
func mallocsAt(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
