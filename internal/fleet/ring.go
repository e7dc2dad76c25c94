// Package fleet shards the mapping-advisory service across N mrserved
// replicas: a consistent-hash router sends every canonical request key to
// the same replica (so each replica's LRU stays warm for its slice of the
// key space), an active health checker deprioritizes degraded and
// draining replicas and ejects dead ones, failed attempts fail over along
// the ring under a global retry budget, and with the whole fleet down the
// router still answers from a local σ-order fallback, flagged degraded.
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per replica: enough that the
// key space splits evenly across small fleets (the imbalance at 128
// vnodes is a few percent) while keeping the ring tiny.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over replica indices
// [0, n). Each replica owns VNodes points on a 64-bit circle; a key is
// served by the first point at or after its hash. Because points move
// only when the replica set changes, killing one replica of N reassigns
// only that replica's keys — the other replicas' caches stay warm.
type Ring struct {
	points []ringPoint // sorted by hash
	n      int
}

type ringPoint struct {
	hash    uint64
	replica int
}

// NewRing builds the ring for n replicas with vnodes virtual nodes each
// (vnodes <= 0 selects DefaultVNodes).
func NewRing(n, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{n: n}
	if n <= 0 {
		return r
	}
	r.points = make([]ringPoint, 0, n*vnodes)
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashKey("replica-" + strconv.Itoa(rep) + "#" + strconv.Itoa(v)),
				replica: rep,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.replica < b.replica
	})
	return r
}

// Replicas returns the replica count the ring was built for.
func (r *Ring) Replicas() int { return r.n }

// Sequence returns all replicas in the key's preference order: the
// ring-walk order starting at the key's point, with duplicates removed.
// Index 0 is the key's home replica; the rest are its failover chain.
// The order is deterministic per (key, ring), so every router instance
// agrees on where a key lives and where it fails over to.
func (r *Ring) Sequence(key string) []int {
	if r.n <= 0 {
		return nil
	}
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// hashKey maps a string onto the ring's 64-bit circle: FNV-1a for the
// byte mixing, then a splitmix64 finalizer. The finalizer matters — raw
// FNV avalanches poorly on the short, nearly-identical vnode labels, and
// the resulting clustered points skew key ownership badly (one replica of
// three owned 2/3 of the key space without it).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
