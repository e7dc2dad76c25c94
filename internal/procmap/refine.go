// The parallel local-search refinement, Schulz & Woydt style: sweep the
// hierarchy levels; at each level partition the enclosing domains among
// goroutines; each worker proposes a swap sequence for its domains against
// a read-only snapshot of the placement; then a sequential commit pass
// replays each proposal on the current state and applies the best
// still-improving prefix in domain order.
//
// Two proposal kinds run per domain: the best single cross-child swap
// (exhaustive for small domains, deterministically sampled for large
// ones), and — when the child domains are small enough — a bounded
// Kernighan–Lin chain between one rotating pair of sibling children.
// The KL chain applies the locally best swap even when its gain is
// negative and keeps the best cumulative prefix, so it escapes the
// single-swap local optima that digit-order placements often are
// (regrouping half a radix class requires several coordinated swaps whose
// first steps lose before the last ones win).
//
// What a step costs: a pair cost is one label XOR (costModel), so a gain
// is O(deg) table reads; tentative swaps live in two slice overlays per
// worker, allocated once per refine and emptied through a touched list;
// and a KL chain fills its s×s gain matrix once, then after each swap
// recomputes only the rows and columns whose rank neighbours a swapped
// rank (Schulz & Träff: update only what a swap touches). A cached gain is
// never patched by a delta — the one gain function recomputes it — so
// candidate order, strict > tie-breaks and every sum's operand order, and
// with them the placement, are bit for bit those of the full rescan that
// refine_oracle_test.go keeps as the reference.
//
// Determinism does not depend on the worker count, one per GOMAXPROCS:
// candidate sampling is driven by one RNG per (seed, round, level, domain),
// KL pair rotation by (round, domain), and the commit order is the domain
// order — so a 1-worker and a 16-worker run produce the same placement. Races cannot
// occur by construction: the propose phase only reads shared state and
// writes its own worker's overlays and disjoint proposal slots.

package procmap

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
)

const (
	// exhaustivePairLimit bounds the per-domain cross-child pair count up
	// to which the propose phase scans every pair; larger domains sample.
	exhaustivePairLimit = 1024
	// sampleFloor / sampleFactor size the sampled candidate set: at least
	// sampleFloor pairs, scaling with the domain's core count.
	sampleFloor  = 128
	sampleFactor = 2
	// klMaxChild caps the child-domain size the Kernighan–Lin chain runs
	// on: each chain starts from child² candidate gains, so chains stay
	// cheap exactly where the radix-class locks live (small inner levels).
	klMaxChild = 16
	// improveEps is the minimum absolute gain a swap must have; it guards
	// against oscillating on floating-point noise.
	improveEps = 1e-9
)

// swapPair exchanges the ranks on cores c1 and c2.
type swapPair struct{ c1, c2 int }

// refine improves placement in place and reports the rounds and swaps
// performed. It honors ctx between domains.
func refine(ctx context.Context, adj [][]neighbor, cm *costModel, placement []int, opts Options) (rounds, swaps int, err error) {
	n := len(placement)
	owner := make([]int, n) // core → rank
	for r, c := range placement {
		owner[c] = r
	}
	k := len(cm.suffix) - 1
	maxDomains := n / cm.suffix[k-1]
	searchers := make([]*searcher, min(runtime.GOMAXPROCS(0), maxDomains))
	for w := range searchers {
		searchers[w] = newSearcher(adj, cm, placement, owner)
	}
	// proposals[d] is a worker's swap sequence for domain d (empty: none
	// improves), which the commit pass replays against the live placement.
	proposals := make([][]swapPair, maxDomains)
	for round := 0; round < opts.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return rounds, swaps, err
		}
		roundSwaps := 0
		for l := 0; l < k; l++ {
			size := cm.suffix[l]    // cores per enclosing domain
			child := cm.suffix[l+1] // cores per child domain
			domains := n / size
			work := func(w int) {
				for d := w; d < domains; d += len(searchers) {
					if ctx.Err() != nil {
						return
					}
					proposals[d] = searchers[w].propose(opts.Seed, round, l, d, size, child)
				}
			}
			var wg sync.WaitGroup
			for w := 1; w < len(searchers) && w < domains; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					work(w)
				}()
			}
			work(0)
			wg.Wait()
			if err := ctx.Err(); err != nil {
				return rounds, swaps, err
			}
			// Sequential commit in domain order: replay each proposal against
			// the current placement (an earlier commit this level may have
			// changed a neighbor's position) and apply the best prefix that
			// still improves. Searcher 0's overlays are empty again, so it
			// serves the commit pass too.
			for _, p := range proposals[:domains] {
				roundSwaps += searchers[0].commit(p)
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

// searcher is one worker's view of the search: the shared placement and
// owner arrays, which it only reads while proposing, under overlays of its
// own that hold tentative swaps — so KL chains can be explored, and later
// replayed during commit, without mutating shared state.
type searcher struct {
	adj              [][]neighbor
	cm               *costModel
	placement, owner []int // rank → core, core → rank
	tp, to           []int // the same, where overridden; -1 elsewhere
	touched          []int // cores with an override
	rng              *rand.Rand
	gains            [klMaxChild * klMaxChild]float64
	chain            []swapPair
}

func newSearcher(adj [][]neighbor, cm *costModel, placement, owner []int) *searcher {
	s := &searcher{adj: adj, cm: cm, placement: placement, owner: owner}
	over := make([]int, 2*len(placement))
	for i := range over {
		over[i] = -1
	}
	s.tp, s.to = over[:len(placement)], over[len(placement):]
	return s
}

func (s *searcher) place(r int) int {
	if c := s.tp[r]; c >= 0 {
		return c
	}
	return s.placement[r]
}

func (s *searcher) own(c int) int {
	if r := s.to[c]; r >= 0 {
		return r
	}
	return s.owner[c]
}

func (s *searcher) swap(c1, c2 int) {
	u, v := s.own(c1), s.own(c2)
	s.tp[u], s.tp[v] = c2, c1
	s.to[c1], s.to[c2] = v, u
	s.touched = append(s.touched, c1, c2)
}

// reset drops every tentative swap. Swaps only permute ranks among the
// touched cores, so the overridden ranks are those cores' real owners.
func (s *searcher) reset() {
	for _, c := range s.touched {
		s.tp[s.owner[c]], s.to[c] = -1, -1
	}
	s.touched = s.touched[:0]
}

// gain returns the cost decrease of exchanging the ranks on cores c1 and
// c2 in the tentative state (positive = improvement). The c1↔c2 edge
// itself is unaffected: pair costs are symmetric.
func (s *searcher) gain(c1, c2 int) float64 {
	u, v := s.own(c1), s.own(c2)
	// cm.pairCost(c1, pc) − cm.pairCost(c2, pc), the two labels loaded once.
	label, byLen := s.cm.label, &s.cm.byLen
	l1, l2 := label[c1], label[c2]
	var delta float64
	for _, nb := range s.adj[u] {
		if nb.to == v {
			continue
		}
		lp := label[s.place(nb.to)]
		delta += nb.vol * (byLen[bits.Len64(l1^lp)] - byLen[bits.Len64(l2^lp)])
	}
	for _, nb := range s.adj[v] {
		if nb.to == u {
			continue
		}
		lp := label[s.place(nb.to)]
		delta += nb.vol * (byLen[bits.Len64(l2^lp)] - byLen[bits.Len64(l1^lp)])
	}
	return delta
}

// propose builds one domain's swap sequence: the better of the best single
// cross-child swap and a Kernighan–Lin chain on a rotating pair of child
// domains (when the children are small enough for exhaustive chain steps).
func (s *searcher) propose(seed int64, round, level, dom, size, child int) []swapPair {
	best, bestGain := s.proposeSwap(seed, round, level, dom, size, child)
	if child >= 2 && child <= klMaxChild {
		arity := size / child
		npairs := arity * (arity - 1) / 2
		a, b := unrankPair((round+dom)%npairs, arity)
		base := dom * size
		chain, gain := s.klChain(base+a*child, base+b*child, child)
		s.reset()
		if len(chain) > 0 && gain > bestGain {
			return append([]swapPair(nil), chain...)
		}
	}
	return best
}

// unrankPair maps an index in [0, arity·(arity−1)/2) to the idx-th pair
// (a, b) with a < b < arity, in lexicographic order.
func unrankPair(idx, arity int) (int, int) {
	for a := 0; a < arity-1; a++ {
		row := arity - 1 - a
		if idx < row {
			return a, a + 1 + idx
		}
		idx -= row
	}
	return arity - 2, arity - 1 // unreachable for valid idx
}

// proposeSwap scans candidate cross-child core pairs of one domain and
// returns the pair with the largest gain (if any improves). Domains whose
// cross pair count is small are scanned exhaustively; larger ones draw a
// deterministic sample from the (seed, round, level, domain) RNG.
func (s *searcher) proposeSwap(seed int64, round, level, dom, size, child int) ([]swapPair, float64) {
	base := dom * size
	arity := size / child
	crossPairs := size * size * (arity - 1) / arity / 2
	var best []swapPair
	bestGain := improveEps
	consider := func(c1, c2 int) {
		if g := s.gain(c1, c2); g > bestGain {
			bestGain = g
			best = append(best[:0], swapPair{c1, c2})
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
	} else {
		// Re-seeding one generator per worker draws the stream a fresh
		// rand.NewSource of the same seed would.
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(0))
		}
		s.rng.Seed(mix(seed, round, level, dom))
		for n := max(sampleFloor, sampleFactor*size); n > 0; n-- {
			i := s.rng.Intn(size)
			j := s.rng.Intn(size)
			if i/child == j/child {
				continue
			}
			consider(base+i, base+j)
		}
	}
	return best, bestGain
}

// klChain runs a bounded Kernighan–Lin exchange between two sibling child
// domains of n cores each (bases baseA, baseB): repeatedly apply the best
// available swap — even at a loss — locking the touched cores, and return
// the prefix with the largest positive cumulative gain (empty if none).
// The chain is the searcher's scratch and the tentative swaps stay in its
// overlays: the caller copies the one and resets the other.
func (s *searcher) klChain(baseA, baseB, n int) ([]swapPair, float64) {
	// g[i·n+j] is the gain of swapping cores baseA+i and baseB+j in the
	// tentative state, for every unlocked i and j.
	g := s.gains[:n*n]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g[i*n+j] = s.gain(baseA+i, baseB+j)
		}
	}
	var lockedA, lockedB [klMaxChild]bool
	s.chain = s.chain[:0]
	cum, bestCum := 0.0, improveEps
	bestLen := 0
	for step := 0; step < n; step++ {
		bg := math.Inf(-1)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if lockedA[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if !lockedB[j] && g[i*n+j] > bg {
					bg, bi, bj = g[i*n+j], i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		u, v := s.own(baseA+bi), s.own(baseB+bj)
		s.swap(baseA+bi, baseB+bj)
		lockedA[bi], lockedB[bj] = true, true
		cum += bg
		s.chain = append(s.chain, swapPair{baseA + bi, baseB + bj})
		if cum > bestCum {
			bestCum = cum
			bestLen = len(s.chain)
		}
		// A gain reads its two cores' owners and the places of those ranks'
		// neighbours; the swap changed the owners of two now locked cores
		// and the places of u and v. So the stale entries are the rows and
		// columns whose owner is a neighbour of u or v.
		var dirtyA, dirtyB [klMaxChild]bool
		for _, r := range [2]int{u, v} {
			for _, nb := range s.adj[r] {
				c := s.place(nb.to)
				if i := c - baseA; i >= 0 && i < n {
					dirtyA[i] = true
				} else if j := c - baseB; j >= 0 && j < n {
					dirtyB[j] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if lockedA[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if !lockedB[j] && (dirtyA[i] || dirtyB[j]) {
					g[i*n+j] = s.gain(baseA+i, baseB+j)
				}
			}
		}
	}
	if bestLen == 0 {
		return nil, 0
	}
	return s.chain[:bestLen], bestCum
}

// commit replays a proposed swap sequence against the live placement,
// finds the prefix with the best cumulative gain under current conditions,
// and applies it for real. Returns the number of swaps applied.
func (s *searcher) commit(chain []swapPair) int {
	cum, bestCum := 0.0, improveEps
	bestLen := 0
	for i, sp := range chain {
		cum += s.gain(sp.c1, sp.c2)
		s.swap(sp.c1, sp.c2)
		if cum > bestCum {
			bestCum = cum
			bestLen = i + 1
		}
	}
	s.reset()
	for _, sp := range chain[:bestLen] {
		u, v := s.owner[sp.c1], s.owner[sp.c2]
		s.placement[u], s.placement[v] = sp.c2, sp.c1
		s.owner[sp.c1], s.owner[sp.c2] = v, u
	}
	return bestLen
}

// mix hashes the sampling coordinates into an RNG seed (splitmix64-style
// finalizer over the packed words).
func mix(seed int64, round, level, dom int) int64 {
	z := uint64(seed)
	for _, v := range [3]uint64{uint64(round), uint64(level), uint64(dom)} {
		z += 0x9e3779b97f4a7c15 + v
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
