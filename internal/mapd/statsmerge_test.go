package mapd

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// genShape deterministically makes the i-th distinct shape of a pool.
func genShape(i int) []int {
	return []int{2 + i%7, 2 + (i/7)%5, 2 + (i/35)%4}
}

// TestMergeStatsHeavyHitterBound is the property test of the mergeable
// Space-Saving form: partition one request stream across R replicas with
// small summaries, merge their reports, and check that for every class
// the merged report tracks, the interval [Requests − CountErr, Requests]
// still brackets the true fleet count — i.e. the merge never
// under-reports a heavy hitter beyond the combined error bound — and
// that the true heaviest class is always tracked.
func TestMergeStatsHeavyHitterBound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		k        int
		pool     int
		requests int
	}{
		{name: "no-churn", replicas: 3, k: 16, pool: 12, requests: 4000},
		{name: "churn", replicas: 3, k: 8, pool: 64, requests: 6000},
		{name: "heavy-churn", replicas: 4, k: 4, pool: 128, requests: 8000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			stats := make([]*workloadStats, tc.replicas)
			for i := range stats {
				stats[i] = newWorkloadStats(tc.k)
			}
			truth := map[string]uint64{}
			zipf := rand.NewZipf(rng, 1.3, 4, uint64(tc.pool-1))
			for n := 0; n < tc.requests; n++ {
				shape := genShape(int(zipf.Uint64()))
				truth[intsKey(shape)]++
				r := rng.Intn(tc.replicas)
				stats[r].observe("advise", &statInfo{shape: shape, coll: "alltoall"},
					rng.Intn(2) == 0, time.Duration(rng.Intn(1000))*time.Microsecond)
			}
			reports := make([]StatsReport, tc.replicas)
			for i, st := range stats {
				reports[i] = st.report()
			}
			merged := MergeStats(reports)

			if merged.TotalRequests != uint64(tc.requests) {
				t.Fatalf("total %d, want %d", merged.TotalRequests, tc.requests)
			}
			if len(merged.Classes) == 0 {
				t.Fatal("no merged classes")
			}
			if got := len(merged.Classes); got > merged.MaxClasses {
				t.Fatalf("merged tracks %d classes, cap %d", got, merged.MaxClasses)
			}
			for _, c := range merged.Classes {
				true_ := truth[c.Shape]
				if c.Requests < true_ {
					t.Errorf("class %s under-reported: %d < true %d", c.Shape, c.Requests, true_)
				}
				if c.Requests-c.CountErr > true_ {
					t.Errorf("class %s error bound broken: %d − %d > true %d",
						c.Shape, c.Requests, c.CountErr, true_)
				}
			}
			// The true heaviest class must survive the merge and the trim.
			var topShape string
			var topCount uint64
			for shape, n := range truth {
				if n > topCount || (n == topCount && shape < topShape) {
					topShape, topCount = shape, n
				}
			}
			found := false
			for _, c := range merged.Classes {
				if c.Shape == topShape {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("true heavy hitter %s (%d requests) missing from merged top-K", topShape, topCount)
			}
		})
	}
}

// TestMergeStatsAggregates pins the deterministic aggregate merges:
// totals, weighted hit rate, histogram sums, sketch union, and the
// eviction floor charged to classes absent from a full summary.
func TestMergeStatsAggregates(t *testing.T) {
	a := StatsReport{
		TotalRequests:           100,
		CacheHitRate:            0.5,
		TrackedClasses:          2,
		MaxClasses:              2, // full: floor = min tracked = 40
		DistinctClassesEstimate: 3,
		Evictions:               7,
		DistinctSketch:          make([]int, sketchRegisters),
		Classes: []ClassReport{
			{Shape: "2,2", Requests: 60, CacheHits: 30, P50Ms: 1, P99Ms: 4},
			{Shape: "4,4", Requests: 40, CacheHits: 20, P50Ms: 2, P99Ms: 2},
		},
		Depths:      []DepthCount{{Depth: 2, Requests: 100}},
		Collectives: map[string]uint64{"alltoall": 100},
		SearchModes: map[string]uint64{"exact": 10},
		Endpoints:   map[string]uint64{"advise": 100},
	}
	a.DistinctSketch[0] = 3
	b := StatsReport{
		TotalRequests:           50,
		CacheHitRate:            0.2,
		TrackedClasses:          1,
		MaxClasses:              4, // not full: floor = 0
		DistinctClassesEstimate: 1,
		DistinctSketch:          make([]int, sketchRegisters),
		Classes: []ClassReport{
			{Shape: "2,2", Requests: 50, CacheHits: 10, P50Ms: 3, P99Ms: 3},
		},
		Depths:      []DepthCount{{Depth: 2, Requests: 30}, {Depth: 3, Requests: 20}},
		Collectives: map[string]uint64{"allgather": 50},
		SearchModes: map[string]uint64{"exact": 5, "bnb": 1},
		Endpoints:   map[string]uint64{"advise": 50},
	}
	b.DistinctSketch[0] = 1
	b.DistinctSketch[5] = 2

	m := MergeStats([]StatsReport{a, b})
	if m.TotalRequests != 150 {
		t.Fatalf("total %d", m.TotalRequests)
	}
	if want := (0.5*100 + 0.2*50) / 150; m.CacheHitRate < want-1e-9 || m.CacheHitRate > want+1e-9 {
		t.Fatalf("hit rate %v, want %v", m.CacheHitRate, want)
	}
	if m.Evictions != 7 || m.MaxClasses != 4 {
		t.Fatalf("evictions %d maxclasses %d", m.Evictions, m.MaxClasses)
	}
	if m.DistinctSketch[0] != 3 || m.DistinctSketch[5] != 2 {
		t.Fatalf("sketch not max-merged: %v %v", m.DistinctSketch[0], m.DistinctSketch[5])
	}
	if len(m.Classes) != 2 {
		t.Fatalf("classes %v", m.Classes)
	}
	// "2,2" tracked by both: exact sum. "4,4" absent from b, whose
	// summary is not full: no floor charged.
	if m.Classes[0].Shape != "2,2" || m.Classes[0].Requests != 110 || m.Classes[0].CountErr != 0 {
		t.Fatalf("merged 2,2 = %+v", m.Classes[0])
	}
	if m.Classes[0].P50Ms != 3 || m.Classes[0].P99Ms != 4 {
		t.Fatalf("percentile merge = %+v", m.Classes[0])
	}
	if m.Classes[1].Shape != "4,4" || m.Classes[1].Requests != 40 || m.Classes[1].CountErr != 0 {
		t.Fatalf("merged 4,4 = %+v", m.Classes[1])
	}
	if len(m.Depths) != 2 || m.Depths[0].Requests != 130 || m.Depths[1].Requests != 20 {
		t.Fatalf("depths = %+v", m.Depths)
	}
	if m.SearchModes["exact"] != 15 || m.SearchModes["bnb"] != 1 {
		t.Fatalf("modes = %+v", m.SearchModes)
	}

	// Flip b to a full summary: "4,4" must now absorb b's floor (50) in
	// both count and error.
	b.MaxClasses = 1
	m = MergeStats([]StatsReport{a, b})
	var c44 *ClassReport
	for i := range m.Classes {
		if m.Classes[i].Shape == "4,4" {
			c44 = &m.Classes[i]
		}
	}
	if c44 == nil || c44.Requests != 90 || c44.CountErr != 50 {
		t.Fatalf("floored 4,4 = %+v", c44)
	}

	// Hostile registers from a scraped replica: 300 would truncate to 44
	// and 255 drive the estimate past the int range. Both are outside
	// what a sketch can hold, so the merge is the honest replica's.
	honest := MergeStats([]StatsReport{a})
	for _, reg := range []int{300, 255, sketchMaxRank + 1, -1} {
		hostile := StatsReport{DistinctSketch: make([]int, sketchRegisters)}
		for i := range hostile.DistinctSketch {
			hostile.DistinctSketch[i] = reg
		}
		m = MergeStats([]StatsReport{a, hostile})
		if !reflect.DeepEqual(m.DistinctSketch, honest.DistinctSketch) ||
			m.DistinctClassesEstimate != honest.DistinctClassesEstimate {
			t.Errorf("registers of %d leaked into the merge: sketch %v, estimate %d (honest %d)",
				reg, m.DistinctSketch, m.DistinctClassesEstimate, honest.DistinctClassesEstimate)
		}
	}
	// The largest legal register everywhere is accepted and still yields
	// a positive estimate.
	full := StatsReport{DistinctSketch: make([]int, sketchRegisters)}
	for i := range full.DistinctSketch {
		full.DistinctSketch[i] = sketchMaxRank
	}
	if m = MergeStats([]StatsReport{a, full}); m.DistinctSketch[0] != sketchMaxRank || m.DistinctClassesEstimate <= 0 {
		t.Errorf("all-max sketch: register %d, estimate %d", m.DistinctSketch[0], m.DistinctClassesEstimate)
	}
}
