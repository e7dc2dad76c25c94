// Closed-form §3.3 kernels: ring cost and pairs-per-level computed
// directly from the arities and σ, without materializing the reorder
// table or running the O(n²) pair loop.
//
// Both kernels exploit the structure of the first subcommunicator, which
// occupies the reordered ranks [0, m). In the permuted mixed-radix system
// (position 0 = level σ(0), the fastest-varying), stepping from reordered
// rank r to r+1 changes exactly the digits touched by the carry chain:
// positions 0…t wrap or increment, where t is the first position whose
// digit is below its radix. The hierarchy level at which the two cores
// first differ is therefore min(σ(0), …, σ(t)), and counting ranks by
// carry-chain length is a matter of divisibility — floor((m-1)/P_t)
// ranks carry through the first t positions, where P_t is the product of
// the first t permuted radices. That turns the ring cost into an O(k)
// sum.
//
// Pair counts per level reduce to counting rank pairs that agree on a
// subset Q of permuted digit positions: pairs crossing no deeper than
// level l are exactly those agreeing on every position j with σ(j) < l.
// The number of ordered pairs (r, s) ∈ [0, m)² agreeing on Q is computed
// by a digit DP over the permuted system that tracks whether r and s are
// still clamped to the digits of m-1, giving O(k) per level and O(k²)
// overall — independent of the hierarchy size.
//
// The table-based path (the tests' FirstComm + RingCost + PairsPerLevel,
// which their CharacterizeTable combines) remains the reference
// implementation: differential tests prove the two agree on randomized
// hierarchies, and degraded or masked placements — which are not a clean
// mixed-radix space — must still use the tables.

package metrics

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mixedradix"
	"repro/internal/topology"
)

// scratch returns a zeroed k-entry slice, backed by the caller's buf when
// it fits — orders are a handful of levels long — so the kernels below
// stay off the heap.
func scratch(buf *[16]int64, k int) []int64 {
	if k <= len(buf) {
		return buf[:k]
	}
	return make([]int64, k)
}

// CrossingsPerLevelInto writes into out (length k, overwritten), for each
// hierarchy level l (outermost = 0), how many consecutive reordered-rank
// pairs (r, r+1) with r ∈ [0, m-1) first differ at level l. The ring cost
// follows as Σ_l out[l] · (k - l). Only the shortest prefix of sigma whose
// radix product reaches m is read, so a covering prefix may stand in for
// the order. The inputs are not validated: OrderSignature and Characterize do.
func CrossingsPerLevelInto(out []int64, ar, sigma []int, m int) {
	k := len(ar)
	clear(out[:k])
	if m <= 1 {
		return
	}
	minLevel := k
	pref := 1               // P_t: product of the first t permuted radices
	carries := int64(m - 1) // ranks whose carry chain reaches position t
	for t := 0; t < k && carries > 0; t++ {
		if sigma[t] < minLevel {
			minLevel = sigma[t]
		}
		pref *= ar[sigma[t]]
		next := int64((m - 1) / pref)
		out[minLevel] += carries - next
		carries = next
	}
}

// ringCostClosed is the closed-form §3.3 ring cost of the first
// subcommunicator of size m.
func ringCostClosed(ar, sigma []int, m int) int {
	k := len(ar)
	var buf [16]int64
	crossings := scratch(&buf, k)
	CrossingsPerLevelInto(crossings, ar, sigma, m)
	cost := int64(0)
	for l, c := range crossings {
		cost += c * int64(k-l)
	}
	return int(cost)
}

// PairCountsPerLevelInto writes into out (length k, overwritten), indexed
// like PairsPerLevel (element 0 the innermost level), the number of
// unordered process pairs of the first subcommunicator of size m ≤ n whose
// first differing coordinate is at each level. The counts sum to
// m·(m-1)/2. Like CrossingsPerLevelInto it reads only the covering prefix
// of sigma and validates nothing. A covering prefix that is a box is
// answered in closed form (boxPairCounts), any other by the digit DP.
func PairCountsPerLevelInto(out []int64, ar, sigma []int, m int) {
	if boxPairCounts(out, ar, sigma, m) {
		return
	}
	k := len(ar)
	// Permuted radices and the digits of the inclusive bound m-1, up to its
	// leading digit: the positions past the covering prefix hold zeros and
	// leave every state of the digit DP as it is. Each covering position
	// marks its level in out.
	var bufB, bufG [16]int64
	b, g := scratch(&bufB, k), scratch(&bufG, k)
	clear(out[:k])
	t := 0
	for rem := m - 1; rem > 0 && t < k; t++ {
		b[t] = int64(ar[sigma[t]])
		g[t] = int64(rem) % b[t]
		rem /= int(b[t])
		out[k-1-sigma[t]] = 1
	}
	// E(l) = unordered pairs of distinct ranks in [0, m) agreeing on every
	// covering position j with σ(j) < l. E(0) = C(m, 2); E(k) = 0; and
	// E(l) = E(l+1) unless l is the level of a covering position, so only
	// the marked levels hold pairs and cost a run of the DP.
	next := int64(0)
	for l := k - 1; l >= 0; l-- {
		if out[k-1-l] == 0 {
			continue
		}
		e := (agreeingOrderedPairs(b[:t], g[:t], sigma, l) - int64(m)) / 2
		out[k-1-l] = e - next // first-diff level l
		next = e
	}
}

// boxPairCounts reports whether the covering prefix of sigma is a box —
// every digit of m-1 at its maximum, so m is the prefix's radix product
// and the communicator holds every digit combination — and if so writes
// PairCountsPerLevelInto's out. A rank pairs with the ranks that agree
// with it on the covering levels outer to l and differ at l: the pairs
// first differing at covering level l are m·(a_l−1)·∏(arities of the
// deeper covering levels)/2, in O(k), and depend on which levels the
// prefix holds, not on their order. Otherwise out is left as it was.
func boxPairCounts(out []int64, ar, sigma []int, m int) bool {
	k, t, prod := len(ar), 0, 1
	for ; prod < m && t < k; t++ {
		prod *= ar[sigma[t]]
	}
	if prod != m {
		return false
	}
	clear(out[:k])
	for _, l := range sigma[:t] {
		out[k-1-l] = 1
	}
	deeper := int64(1) // out[j] is level k-1-j, innermost first
	for j, marked := range out[:k] {
		if marked == 0 {
			continue
		}
		a := int64(ar[k-1-j])
		out[j] = int64(m) * (a - 1) * deeper / 2
		deeper *= a
	}
	return true
}

// agreeingOrderedPairs counts the ordered pairs (r, s) ∈ [0, m)² whose
// permuted digits match at every position j with σ(j) < level, via a
// most-significant-first digit DP against the inclusive bound m-1 (digits
// g, radices b). State: both prefixes clamped to the bound (tt), exactly
// one clamped (tf, counted one-sided — the transposed states mirror it),
// neither (ff).
func agreeingOrderedPairs(b, g []int64, sigma []int, level int) int64 {
	tt, tf, ff := int64(1), int64(0), int64(0)
	for j := len(b) - 1; j >= 0; j-- {
		bj, gj := b[j], g[j]
		if sigma[j] < level { // digits must match: tt, tf unchanged
			ff = ff*bj + tt*gj + 2*tf*gj
		} else { // digits independent: tt unchanged
			tf, ff = tt*gj+tf*bj, tt*gj*gj+2*tf*gj*bj+ff*bj*bj
		}
	}
	return tt + 2*tf + ff
}

// SearchSignature is the integer-exact placement fingerprint the order
// search prunes with: two orders with equal signatures place the first
// subcommunicator identically level by level (same §3.3 ring cost and
// pair percentages, resolved per level rather than aggregated) and, when
// the optional components are included, share the ring traversal and the
// whole-world tiling too. It is computed in O(k²) from the arities alone.
type SearchSignature struct {
	// CommPairs[j] counts the communicator's process pairs first differing
	// j levels above the innermost (the integer numerators of
	// PairsPerLevel). Always present: it pins down the per-level domain
	// occupancy profile of the communicator.
	CommPairs []int64
	// CommCross[l] counts consecutive-rank boundary crossings of the first
	// subcommunicator at hierarchy level l (outermost first). The ring
	// cost is Σ_l CommCross[l]·(k-l). Only ring-schedule collectives
	// (allgather, allreduce) depend on the traversal, so the component is
	// optional (SignatureOpts.Ring); dropping it merges orders whose
	// communicators occupy the same domains in a different ring order.
	CommCross []int64
	// WorldCross[l] is CommCross for the whole world enumeration,
	// capturing how the full rank sequence — hence every subcommunicator
	// block — tiles the hierarchy (SignatureOpts.World).
	WorldCross []int64
}

// SignatureOpts selects the optional SearchSignature components. The
// zero value — pair counts only — is the coarsest (fastest) signature;
// each enabled component refines the classes, never coarsens them.
type SignatureOpts struct {
	// Ring includes the communicator's per-level crossing counts. Needed
	// when the predicted schedule walks the communicator as a ring
	// (allgather, allreduce); irrelevant for pairwise exchanges whose
	// traffic depends only on domain occupancy (alltoall).
	Ring bool
	// World includes the whole-world crossing profile. Needed when every
	// subcommunicator runs simultaneously and the signature must pin down
	// the full tiling, not just the first block.
	World bool
}

// Key renders the signature as a compact map key.
func (s SearchSignature) Key() string { return string(s.AppendKey(nil)) }

// AppendKey appends the Key bytes to dst, for callers that look a
// signature up without building a string (m[string(buf)] does not
// allocate). Each component is length-prefixed, so the concatenation of
// the keys of two partial signatures is as injective as one key.
func (s SearchSignature) AppendKey(dst []byte) []byte {
	for _, part := range [...][]int64{s.CommPairs, s.CommCross, s.WorldCross} {
		dst = binary.AppendUvarint(dst, uint64(len(part)))
		for _, v := range part {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

// OrderSignature computes the SearchSignature of an order for the first
// subcommunicator of size commSize, with the optional components selected
// by opts.
func OrderSignature(h topology.Hierarchy, sigma []int, commSize int, opts SignatureOpts) (SearchSignature, error) {
	ar := h.Arities()
	if err := mixedradix.CheckOrder(ar, sigma); err != nil {
		return SearchSignature{}, err
	}
	n := h.Size()
	if commSize <= 0 || commSize > n {
		return SearchSignature{}, fmt.Errorf("metrics: communicator size %d out of range (0, %d]", commSize, n)
	}
	// One backing array for the selected components.
	k := len(ar)
	buf := make([]int64, 3*k)
	sig := SearchSignature{CommPairs: buf[:k:k]}
	PairCountsPerLevelInto(sig.CommPairs, ar, sigma, commSize)
	if opts.Ring {
		sig.CommCross = buf[k : 2*k : 2*k]
		CrossingsPerLevelInto(sig.CommCross, ar, sigma, commSize)
	}
	if opts.World {
		sig.WorldCross = buf[2*k:]
		CrossingsPerLevelInto(sig.WorldCross, ar, sigma, n)
	}
	return sig, nil
}
