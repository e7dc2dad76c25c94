// Fleet-level merging of per-replica workload analytics. Each replica's
// GET /v1/stats answer is a mergeable summary: the Space-Saving top-K
// classes carry their own overestimation bound, the distinct-class
// sketch exports its raw registers, and the histograms are plain counts.
// MergeStats combines them under the standard mergeable-summaries rules
// so the rollup keeps the per-replica guarantees:
//
//   - For a class the merged report tracks, Requests ≥ the true fleet
//     count, and Requests − CountErr ≤ the true fleet count. A replica
//     that does not track the class contributes its minimum tracked
//     count to both sides when its summary is full (an untracked item's
//     true count is bounded by the minimum), and zero when it is not
//     (every seen item is tracked, so absence means a true zero).
//   - Distinct-class registers merge by per-register max — exactly the
//     sketch a single aggregator observing the union stream would hold.
//   - Depth/collective/search-mode/endpoint histograms are exact sums.

package mapd

import "sort"

// MergeStats merges per-replica stats reports into one fleet-level
// report. Merged per-class latency percentiles are the max across the
// replicas that track the class (a conservative fleet-tail bound; the
// raw buckets are not exported). The merged top-K capacity is the
// largest input capacity.
func MergeStats(reports []StatsReport) StatsReport {
	out := StatsReport{
		Collectives: map[string]uint64{},
		SearchModes: map[string]uint64{},
		Endpoints:   map[string]uint64{},
	}
	if len(reports) == 0 {
		out.MaxClasses = DefaultStatsClasses
		return out
	}

	var hits float64
	var depth [MaxDepth + 1]uint64
	var sketch [sketchRegisters]uint8
	sketched := false
	estimateMax := 0
	for _, r := range reports {
		out.TotalRequests += r.TotalRequests
		out.Evictions += r.Evictions
		hits += r.CacheHitRate * float64(r.TotalRequests)
		if r.MaxClasses > out.MaxClasses {
			out.MaxClasses = r.MaxClasses
		}
		if r.DistinctClassesEstimate > estimateMax {
			estimateMax = r.DistinctClassesEstimate
		}
		if len(r.DistinctSketch) == sketchRegisters {
			sketched = true
			// The registers come from a scraped replica's JSON: one
			// outside what a sketch can hold is ignored, not truncated.
			for i, v := range r.DistinctSketch {
				if v > int(sketch[i]) && v <= sketchMaxRank {
					sketch[i] = uint8(v)
				}
			}
		}
		for _, d := range r.Depths {
			if d.Depth >= 0 && d.Depth <= MaxDepth {
				depth[d.Depth] += d.Requests
			}
		}
		for k, v := range r.Collectives {
			out.Collectives[k] += v
		}
		for k, v := range r.SearchModes {
			out.SearchModes[k] += v
		}
		for k, v := range r.Endpoints {
			out.Endpoints[k] += v
		}
	}
	if out.MaxClasses == 0 {
		out.MaxClasses = DefaultStatsClasses
	}
	if out.TotalRequests > 0 {
		out.CacheHitRate = hits / float64(out.TotalRequests)
	}
	if sketched {
		out.DistinctSketch = make([]int, sketchRegisters)
		for i, v := range sketch {
			out.DistinctSketch[i] = int(v)
		}
		out.DistinctClassesEstimate = estimateDistinct(sketch[:])
	} else {
		// No replica exported registers (e.g. an older build): the max of
		// the estimates is the best available lower bound on the union.
		out.DistinctClassesEstimate = estimateMax
	}
	for d, n := range depth {
		if n > 0 {
			out.Depths = append(out.Depths, DepthCount{Depth: d, Requests: n})
		}
	}

	// Space-Saving merge: union the classes; a replica not tracking a
	// shape charges its eviction floor to both the estimate and the error
	// bound when (and only when) its summary is full.
	byReplica := make([]map[string]ClassReport, len(reports))
	floors := make([]uint64, len(reports))
	union := map[string]bool{}
	for i, r := range reports {
		byReplica[i] = make(map[string]ClassReport, len(r.Classes))
		for _, c := range r.Classes {
			byReplica[i][c.Shape] = c
			union[c.Shape] = true
		}
		floors[i] = evictionFloor(r)
	}
	merged := make([]ClassReport, 0, len(union))
	for shape := range union {
		m := ClassReport{Shape: shape}
		for i := range reports {
			c, ok := byReplica[i][shape]
			if !ok {
				m.Requests += floors[i]
				m.CountErr += floors[i]
				continue
			}
			m.Requests += c.Requests
			m.CountErr += c.CountErr
			m.CacheHits += c.CacheHits
			if c.P50Ms > m.P50Ms {
				m.P50Ms = c.P50Ms
			}
			if c.P99Ms > m.P99Ms {
				m.P99Ms = c.P99Ms
			}
		}
		if m.Requests > 0 {
			m.CacheHitRate = float64(m.CacheHits) / float64(m.Requests)
		}
		merged = append(merged, m)
	}

	out.Classes = merged
	sort.Slice(out.Classes, func(i, j int) bool {
		if out.Classes[i].Requests != out.Classes[j].Requests {
			return out.Classes[i].Requests > out.Classes[j].Requests
		}
		return out.Classes[i].Shape < out.Classes[j].Shape
	})
	if len(out.Classes) > out.MaxClasses {
		out.Classes = out.Classes[:out.MaxClasses]
	}
	out.TrackedClasses = len(out.Classes)
	return out
}

// evictionFloor is the per-replica bound on the true count of any shape
// the replica does not track: when its Space-Saving summary is full, the
// minimum tracked count (an untracked item can never exceed the minimum,
// or it would have evicted it); when the summary never filled, zero —
// every shape the replica ever saw is in its class list.
func evictionFloor(r StatsReport) uint64 {
	if r.MaxClasses <= 0 || r.TrackedClasses < r.MaxClasses {
		return 0
	}
	var min uint64
	first := true
	for _, c := range r.Classes {
		if first || c.Requests < min {
			min = c.Requests
			first = false
		}
	}
	if first {
		return 0
	}
	return min
}
