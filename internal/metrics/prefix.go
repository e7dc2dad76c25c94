// Prefix kernels for the branch-and-bound order search: closed-form
// facts about *partial* orders (digit-order prefixes), derived from the
// same §3.3 structure as fastpath.go.
//
// The key observation is that the first subcommunicator of size m is
// fully determined by the shortest prefix of σ whose radix product
// reaches m (the "covering prefix"): reordered ranks [0, m) decompose
// entirely inside those positions, so every completion of a covering
// prefix places the communicator on the same cores. CrossingsPerLevelInto
// already exploits this — its loop stops once the prefix product covers
// m — and the functions here expose the prefix structure directly so a
// search over prefixes can bound the cost of all completions without
// enumerating them.

package metrics

// BestCompletionCrossLevel returns the deepest (largest-index, i.e.
// cheapest) outermost-crossing level that any completion of the given
// prefix can achieve for the first subcommunicator of size m.
//
// The outermost level a communicator of size m crosses under a full
// order σ is min(σ(0), …, σ(s-1)), where s is the covering-prefix
// length. For a fixed prefix the min over the prefix part is settled;
// a completion only chooses which remaining levels join the covering
// span. Taking the innermost (largest-index) remaining levels first
// maximizes the min, so the greedy fill below is exact: any completion
// crosses at level BestCompletionCrossLevel or further out (smaller
// index). That makes it an admissible input to latency lower bounds.
//
// When the prefix already covers m the answer is exact — the crossing
// level of every completion. A return of len(ar) means no crossing
// (m ≤ 1).
func BestCompletionCrossLevel(ar, prefix []int, m int) int {
	k := len(ar)
	minLvl := k
	if m <= 1 {
		return minLvl
	}
	prod := 1
	var used uint32
	for _, l := range prefix {
		used |= 1 << uint(l)
		if l < minLvl {
			minLvl = l
		}
		prod *= ar[l]
		if prod >= m {
			return minLvl
		}
	}
	for l := k - 1; l >= 0; l-- {
		if used&(1<<uint(l)) != 0 {
			continue
		}
		if l < minLvl {
			minLvl = l
		}
		prod *= ar[l]
		if prod >= m {
			return minLvl
		}
	}
	return minLvl
}
