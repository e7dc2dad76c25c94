// Cardinality-bounded workload analytics. The service sees an unbounded
// stream of (shape, collective, search mode) request classes; operators
// want "what is this daemon actually serving" without an unbounded
// per-class metric explosion. The aggregator keeps exactly three bounded
// structures:
//
//   - a Space-Saving top-K summary of request counts (and cache hit rate
//     plus latency percentiles) by canonical shape class — at most K
//     tracked classes, each carrying its overestimation bound, so a
//     reader can tell a solid count from one inflated by eviction churn;
//   - a small HyperLogLog-style register file estimating how many
//     distinct shape classes were seen in total, so "top-K of how many?"
//     is answerable even after heavy eviction;
//   - fixed-size histograms keyed by validated, bounded dimensions:
//     hierarchy depth (≤ MaxDepth), collective (parse admits three), and
//     search mode (exact/pruned/bnb/beam/fallback).
//
// Everything is O(K) memory regardless of workload, which is what lets
// GET /v1/stats stay safe against a hostile client inventing a new
// hierarchy per request.

package mapd

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultStatsClasses is the Space-Saving capacity K of a server's
// workload analytics: the maximum number of shape classes tracked
// individually.
const DefaultStatsClasses = 32

// statInfo is the per-request attribution a parsed Query hands to the
// aggregator: the canonical hierarchy shape and, for advise requests,
// the collective.
type statInfo struct {
	shape []int
	coll  string
}

// statLatBuckets are the per-class latency histogram bounds: log2 from
// 1µs to ~34s. 26 buckets per class keeps the whole top-K summary at a
// few kilobytes.
const statLatBuckets = 26

func statLatBound(i int) time.Duration { return time.Microsecond << i }

// classStat is one tracked shape class.
type classStat struct {
	key      string
	requests uint64
	overErr  uint64 // Space-Saving bound: true count ≥ requests − overErr
	hits     uint64
	lat      [statLatBuckets + 1]uint64
}

func (c *classStat) observe(hit bool, d time.Duration) {
	c.requests++
	if hit {
		c.hits++
	}
	b := 0
	for b < statLatBuckets && d > statLatBound(b) {
		b++
	}
	c.lat[b]++
}

// percentile returns the latency at quantile q in milliseconds, by upper
// bucket bound — an overestimate by at most one bucket width (2×).
func (c *classStat) percentile(q float64) float64 {
	var total uint64
	for _, n := range c.lat {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, n := range c.lat {
		cum += n
		if cum >= target {
			if b >= statLatBuckets {
				b = statLatBuckets - 1
			}
			return float64(statLatBound(b)) / float64(time.Millisecond)
		}
	}
	return float64(statLatBound(statLatBuckets-1)) / float64(time.Millisecond)
}

// sketchRegisters sizes the distinct-class estimator: 64 registers is
// ±~13% standard error, plenty for "hundreds vs. tens" answers.
const sketchRegisters = 64

// workloadStats is the request-stream aggregator. All methods are
// safe for concurrent use.
type workloadStats struct {
	mu        sync.Mutex
	k         int
	classes   map[string]*classStat
	depth     [MaxDepth + 1]uint64
	colls     map[string]uint64
	modes     map[string]uint64
	endpoints map[string]uint64
	total     uint64
	hits      uint64
	evictions uint64
	sketch    [sketchRegisters]uint8
}

func newWorkloadStats(k int) *workloadStats {
	return &workloadStats{
		k:         k,
		classes:   make(map[string]*classStat, k),
		colls:     make(map[string]uint64, 4),
		modes:     make(map[string]uint64, 4),
		endpoints: make(map[string]uint64, 8),
	}
}

// fnv64a matches hash/fnv without the allocation of the hash.Hash64
// interface on the request path. The avalanche finalizer matters: raw
// FNV's high bits barely disperse on short keys, and the sketch picks
// its register from exactly those bits.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// observe records one successfully served request. The endpoint name is
// bounded by the route table, so the endpoint mix needs no sketching.
func (st *workloadStats) observe(endpoint string, info *statInfo, hit bool, d time.Duration) {
	if st == nil || info == nil {
		return
	}
	key := intsKey(info.shape)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.total++
	if hit {
		st.hits++
	}
	if endpoint != "" {
		st.endpoints[endpoint]++
	}
	if depth := len(info.shape); depth >= 0 && depth <= MaxDepth {
		st.depth[depth]++
	}
	if info.coll != "" {
		st.colls[info.coll]++
	}
	// Distinct-class sketch: top 6 bits pick the register, the rank of
	// the remaining bits' leading zeros is the observation.
	h := fnv64a(key)
	reg := h >> (64 - 6)
	rest := h<<6 | 0x3f // low bits set so rank is bounded
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > st.sketch[reg] {
		st.sketch[reg] = rank
	}
	// Space-Saving: a known class updates in place; an unknown class
	// takes a free slot, or inherits (and overestimates by) the count of
	// the evicted minimum.
	c, ok := st.classes[key]
	if !ok {
		if len(st.classes) < st.k {
			c = &classStat{key: key}
		} else {
			var min *classStat
			for _, cand := range st.classes {
				if min == nil || cand.requests < min.requests ||
					(cand.requests == min.requests && cand.key > min.key) {
					min = cand
				}
			}
			delete(st.classes, min.key)
			st.evictions++
			c = &classStat{key: key, requests: min.requests, overErr: min.requests}
		}
		st.classes[key] = c
	}
	c.observe(hit, d)
}

// observeSearch attributes one order search to its mode
// (exact/pruned/bnb/beam/fallback).
func (st *workloadStats) observeSearch(mode string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.modes[mode]++
	st.mu.Unlock()
}

// distinctEstimate is the HyperLogLog estimator with the small-range
// linear-counting correction.
func (st *workloadStats) distinctEstimate() int {
	const m = float64(sketchRegisters)
	var sum float64
	zeros := 0
	for _, r := range st.sketch {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	e := 0.709 * m * m / sum // alpha for m=64
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return int(math.Round(e))
}

// ClassReport is one tracked shape class of a StatsReport.
type ClassReport struct {
	// Shape is the canonical comma-joined arity list, e.g. "2,4,2,8".
	Shape string `json:"shape"`
	// Requests counts requests attributed to the class; the true count is
	// at least Requests − CountErr (Space-Saving overestimation bound).
	Requests uint64 `json:"requests"`
	CountErr uint64 `json:"count_err,omitempty"`
	// CacheHits and CacheHitRate cover the requests observed since the
	// class entered the top-K: Requests − CountErr of them.
	CacheHits    uint64  `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// P50Ms / P99Ms are served-latency percentiles (log-bucket upper
	// bounds, so at most 2× above the true quantile).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// DepthCount is one bar of the depth histogram.
type DepthCount struct {
	Depth    int    `json:"depth"`
	Requests uint64 `json:"requests"`
}

// StatsReport is the GET /v1/stats answer.
type StatsReport struct {
	TotalRequests uint64  `json:"total_requests"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// TrackedClasses ≤ MaxClasses always; DistinctClassesEstimate is the
	// sketch's estimate of how many distinct classes were ever seen.
	TrackedClasses          int    `json:"tracked_classes"`
	MaxClasses              int    `json:"max_classes"`
	DistinctClassesEstimate int    `json:"distinct_classes_estimate"`
	Evictions               uint64 `json:"evictions"`
	// Classes is the top-K by request count, descending.
	Classes     []ClassReport     `json:"classes"`
	Depths      []DepthCount      `json:"depth_histogram"`
	Collectives map[string]uint64 `json:"collectives"`
	// SearchModes splits order searches into
	// exact / pruned / bnb / beam / matrix / fallback.
	SearchModes map[string]uint64 `json:"search_modes"`
	// Endpoints is the request mix by API endpoint (map, map_matrix,
	// advise, select, metrics_order).
	Endpoints map[string]uint64 `json:"endpoints"`
}

// report snapshots the aggregator.
func (st *workloadStats) report() StatsReport {
	st.mu.Lock()
	defer st.mu.Unlock()
	rep := StatsReport{
		TotalRequests:           st.total,
		TrackedClasses:          len(st.classes),
		MaxClasses:              st.k,
		DistinctClassesEstimate: st.distinctEstimate(),
		Evictions:               st.evictions,
		Collectives:             make(map[string]uint64, len(st.colls)),
		SearchModes:             make(map[string]uint64, len(st.modes)),
		Endpoints:               make(map[string]uint64, len(st.endpoints)),
	}
	if st.total > 0 {
		rep.CacheHitRate = float64(st.hits) / float64(st.total)
	}
	for k, v := range st.colls {
		rep.Collectives[k] = v
	}
	for k, v := range st.modes {
		rep.SearchModes[k] = v
	}
	for k, v := range st.endpoints {
		rep.Endpoints[k] = v
	}
	for d, n := range st.depth {
		if n > 0 {
			rep.Depths = append(rep.Depths, DepthCount{Depth: d, Requests: n})
		}
	}
	for _, c := range st.classes {
		cr := ClassReport{
			Shape:     c.key,
			Requests:  c.requests,
			CountErr:  c.overErr,
			CacheHits: c.hits,
			P50Ms:     c.percentile(0.50),
			P99Ms:     c.percentile(0.99),
		}
		if seen := c.requests - c.overErr; seen > 0 {
			cr.CacheHitRate = float64(c.hits) / float64(seen)
		}
		rep.Classes = append(rep.Classes, cr)
	}
	sort.Slice(rep.Classes, func(i, j int) bool {
		if rep.Classes[i].Requests != rep.Classes[j].Requests {
			return rep.Classes[i].Requests > rep.Classes[j].Requests
		}
		return rep.Classes[i].Shape < rep.Classes[j].Shape
	})
	return rep
}
