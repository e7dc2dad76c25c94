// The parallel local-search refinement, Schulz & Woydt style: sweep the
// hierarchy levels; at each level partition the enclosing domains among
// goroutines; each worker proposes a swap sequence for its domains against
// its own copy of the placement; then a sequential commit pass replays
// each proposal on the current state and applies the best still-improving
// prefix in domain order.
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
// What a step costs: a pair cost is one label XOR (costModel), and a gain
// O(deg) loads from the worker's private rank→core, core→rank and
// rank→label arrays, which tentative swaps edit and undo. A gain is
// computed once per state (Schulz & Träff: update only what a swap
// touches): an exhaustive scan keeps its domain's gains, which seed the KL
// chain and stand until a commit swaps one of the domain's cores, and a KL
// step recomputes only the rows and columns whose rank neighbours a
// swapped rank. No held gain is patched by a delta, so candidate order,
// strict > tie-breaks, every sum's operand order and the placement are bit
// for bit those of the full rescan that refine_oracle_test.go keeps.
//
// Determinism does not depend on the worker count, one per GOMAXPROCS:
// candidate sampling is driven by one RNG per (seed, round, level, domain),
// KL pair rotation by (round, domain), and the commit order is the domain
// order — so a 1-worker and a 16-worker run produce the same placement.
// Races cannot occur by construction: a proposing worker writes only its
// own arrays (worker 0's hold the live placement, which the others copy
// before each level) and its domains' proposal and scan slots; only the
// sequential commit marks scans stale.

package procmap

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
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
	// The innermost level is not searched: a swap inside a leaf domain
	// changes no pair's level, so all its gains are exact zeros.
	k := len(cm.suffix) - 2
	maxDomains := n / cm.suffix[max(k-1, 0)]
	searchers := make([]*searcher, min(runtime.GOMAXPROCS(0), maxDomains))
	for w := range searchers {
		searchers[w] = newSearcher(adj, cm, placement)
	}
	scans := newScans(cm, n)
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
					proposals[d] = searchers[w].propose(proposals[d][:0], &scans[l][d], opts.Seed, round, l, d, size, child)
				}
			}
			var wg sync.WaitGroup
			for w := 1; w < len(searchers) && w < domains; w++ {
				copy(searchers[w].place, searchers[0].place)
				copy(searchers[w].owner, searchers[0].owner)
				copy(searchers[w].label, searchers[0].label)
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
			// still improves. Searcher 0 has undone its tentative swaps, so
			// its arrays hold the live placement.
			for _, p := range proposals[:domains] {
				roundSwaps += searchers[0].commit(p, scans)
			}
		}
		rounds++
		swaps += roundSwaps
		if roundSwaps == 0 {
			break
		}
	}
	copy(placement, searchers[0].place)
	return rounds, swaps, nil
}

// domainScan holds an exhaustively scanned domain's cross-child gains,
// gains[i·size+j] for i < j, fresh until a commit swaps one of its cores.
type domainScan struct {
	fresh bool
	gains []float64
}

// newScans returns scans[l][d] for domain d of every searched level l,
// the gain tables of the exhaustively scanned levels carved from one arena.
func newScans(cm *costModel, n int) [][]domainScan {
	scans := make([][]domainScan, len(cm.suffix)-2)
	cells, total := make([]int, len(scans)), 0 // cells per domain: 0 when sampled
	for l := range scans {
		size, arity := cm.suffix[l], cm.suffix[l]/cm.suffix[l+1]
		if size*size*(arity-1)/arity/2 <= exhaustivePairLimit {
			cells[l] = size * size
			total += n * size
		}
	}
	arena := make([]float64, total)
	for l := range scans {
		scans[l] = make([]domainScan, n/cm.suffix[l])
		for d := range scans[l] {
			scans[l][d].gains, arena = arena[:cells[l]:cells[l]], arena[cells[l]:]
		}
	}
	return scans
}

// searcher is one worker's copy of the placement: it tries swaps on its
// own arrays and undoes them, so KL chains can be explored, and later
// replayed during commit, without touching what other workers read.
type searcher struct {
	adj          [][]neighbor
	cm           *costModel
	place, owner []int    // rank → core, core → rank
	label        []uint64 // rank → its core's level-oracle label
	rng          *rand.Rand
	gains        [klMaxChild * klMaxChild]float64
	chain        []swapPair
}

func newSearcher(adj [][]neighbor, cm *costModel, placement []int) *searcher {
	n := len(placement)
	s := &searcher{adj: adj, cm: cm, place: slices.Clone(placement), owner: make([]int, n), label: make([]uint64, n)}
	for r, c := range placement {
		s.owner[c], s.label[r] = r, cm.label[c]
	}
	return s
}

func (s *searcher) swap(c1, c2 int) {
	u, v := s.owner[c1], s.owner[c2]
	s.place[u], s.place[v] = c2, c1
	s.owner[c1], s.owner[c2] = v, u
	s.label[u], s.label[v] = s.cm.label[c2], s.cm.label[c1]
}

// undo reverts swaps applied in order: each swap is its own inverse.
func (s *searcher) undo(swaps []swapPair) {
	for i := len(swaps) - 1; i >= 0; i-- {
		s.swap(swaps[i].c1, swaps[i].c2)
	}
}

// gain returns the cost decrease of exchanging the ranks on cores c1 and
// c2 in the tentative state (positive = improvement). The c1↔c2 edge
// itself is unaffected: pair costs are symmetric.
func (s *searcher) gain(c1, c2 int) float64 {
	u, v := s.owner[c1], s.owner[c2]
	// cm.pairCost(c1, pc) − cm.pairCost(c2, pc), the two labels loaded once.
	label, byLen := s.label, &s.cm.byLen
	l1, l2 := label[u], label[v]
	var delta float64
	for _, nb := range s.adj[u] {
		if nb.to == v {
			continue
		}
		lp := label[nb.to]
		delta += nb.vol * (byLen[bits.Len64(l1^lp)] - byLen[bits.Len64(l2^lp)])
	}
	for _, nb := range s.adj[v] {
		if nb.to == u {
			continue
		}
		lp := label[nb.to]
		delta += nb.vol * (byLen[bits.Len64(l2^lp)] - byLen[bits.Len64(l1^lp)])
	}
	return delta
}

// propose appends to dst one domain's swap sequence: the better of the
// best single cross-child swap and a Kernighan–Lin chain on a rotating pair
// of small enough child domains, seeded from the scan's gains if it has
// them. A fresh domain proposed nothing last round on the gains it still
// has (a proposed swap would have been committed, swapping its cores), so
// only a chain on another pair of children can find a swap there.
func (s *searcher) propose(dst []swapPair, sc *domainScan, seed int64, round, level, dom, size, child int) []swapPair {
	arity := size / child
	npairs := arity * (arity - 1) / 2
	kl := child >= 2 && child <= klMaxChild && (!sc.fresh || npairs > 1)
	best, bestGain := swapPair{}, improveEps
	if !sc.fresh {
		best, bestGain = s.proposeSwap(sc, seed, round, level, dom, size, child)
	}
	if kl {
		a, b := unrankPair((round+dom)%npairs, arity)
		baseA, baseB := dom*size+a*child, dom*size+b*child
		for i := 0; i < child; i++ {
			for j := 0; j < child; j++ {
				if sc.fresh {
					s.gains[i*child+j] = sc.gains[(a*child+i)*size+b*child+j]
				} else {
					s.gains[i*child+j] = s.gain(baseA+i, baseB+j)
				}
			}
		}
		chain, gain := s.klChain(baseA, baseB, child)
		s.undo(s.chain)
		if len(chain) > 0 && gain > bestGain {
			return append(dst, chain...)
		}
	}
	if bestGain > improveEps {
		dst = append(dst, best)
	}
	return dst
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
// returns the pair with the largest gain (if any improves): exhaustively
// into the domain's gain table if it has one, making it fresh, else by a
// deterministic sample from the (seed, round, level, domain) RNG.
func (s *searcher) proposeSwap(sc *domainScan, seed int64, round, level, dom, size, child int) (swapPair, float64) {
	base := dom * size
	var best swapPair
	bestGain := improveEps
	consider := func(i, j int) float64 {
		g := s.gain(base+i, base+j)
		if g > bestGain {
			best, bestGain = swapPair{base + i, base + j}, g
		}
		return g
	}
	if len(sc.gains) > 0 {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if i/child == j/child {
					continue
				}
				sc.gains[i*size+j] = consider(i, j)
			}
		}
		sc.fresh = true
		return best, bestGain
	}
	// Re-seeding one generator per worker draws the stream a fresh
	// rand.NewSource of the same seed would.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
	}
	s.rng.Seed(mix(seed, round, level, dom))
	for n := max(sampleFloor, sampleFactor*size); n > 0; n-- {
		i := s.rng.Intn(size)
		j := s.rng.Intn(size)
		if i/child != j/child {
			consider(i, j)
		}
	}
	return best, bestGain
}

// klChain runs a bounded Kernighan–Lin exchange between two sibling child
// domains of n cores each (bases baseA, baseB): repeatedly apply the best
// available swap — even at a loss — locking the touched cores, and return
// the prefix with the largest positive cumulative gain (empty if none).
// s.gains holds the pair's n×n gains on entry; every step stays applied
// and listed in s.chain for the caller to copy from and undo.
func (s *searcher) klChain(baseA, baseB, n int) ([]swapPair, float64) {
	// g[i·n+j] is the gain of swapping cores baseA+i and baseB+j in the
	// tentative state, for every unlocked i and j.
	g := s.gains[:n*n]
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
		u, v := s.owner[baseA+bi], s.owner[baseB+bj]
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
				c := s.place[nb.to]
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
// and keeps it, marking stale every scan that holds a gain it changed.
// Returns the number of swaps applied.
func (s *searcher) commit(chain []swapPair, scans [][]domainScan) int {
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
	s.undo(chain[bestLen:])
	// A gain of two cores of one domain reads their owners and where their
	// ranks' neighbours sit, but a neighbour outside the domain costs both
	// cores the same level, an exact zero term, wherever it sits: so only a
	// swap of one of its own cores changes a domain's gains.
	for _, sp := range chain[:bestLen] {
		for l, ls := range scans {
			ls[sp.c1/s.cm.suffix[l]].fresh = false
			ls[sp.c2/s.cm.suffix[l]].fresh = false
		}
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
