package advisor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

// predictOracle is the model as it was written before the predictor: the
// whole inverse table, a map of occupancies per communicator and level, a
// rescan of the communicator per occupied domain. The differential tests
// hold the predictor to it bit for bit.
func predictOracle(sc Scenario, sigma []int) (Prediction, error) {
	h := sc.Hierarchy
	n := h.Size()
	p := sc.CommSize
	if p <= 0 || n%p != 0 {
		return Prediction{}, fmt.Errorf("advisor: communicator size %d does not divide %d", p, n)
	}
	if sc.Bytes <= 0 {
		return Prediction{}, fmt.Errorf("advisor: non-positive size")
	}
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Prediction{}, err
	}
	// Built from the forward point query, so the oracle shares no table
	// code with the predictor's InverseRangeInto.
	inv := make([]int, n)
	for r := range inv {
		inv[ro.NewRank(r)] = r
	}
	nComms := n / p
	if !sc.Simultaneous {
		nComms = 1
	}
	ar := h.Arities()
	k := h.Depth()
	// suffix[l] = cores per level-l domain.
	suffix := make([]int, k+1)
	suffix[k] = 1
	for l := k - 1; l >= 0; l-- {
		suffix[l] = suffix[l+1] * ar[l]
	}

	// traffic[l][d] accumulates bytes crossing the egress uplink of domain
	// d at level l; busTraffic[d] the innermost-domain (memory) traffic.
	traffic := make([]map[int]float64, k)
	for l := range traffic {
		traffic[l] = make(map[int]float64)
	}
	busTraffic := make(map[int]float64)
	inner := k - 2

	B := float64(sc.Bytes)
	maxCrossLevel := k // outermost level any comm pair crosses (lower = farther)
	for comm := 0; comm < nComms; comm++ {
		cores := inv[comm*p : (comm+1)*p]
		// Per-level occupancy of the communicator.
		for l := 0; l < k-1; l++ {
			if len(sc.Spec.Levels) <= l || sc.Spec.Levels[l].UpBandwidth <= 0 {
				continue
			}
			occ := map[int]int{}
			for _, c := range cores {
				occ[c/suffix[l+1]]++
			}
			for d, a := range occ {
				if a == p {
					continue // communicator fully inside: no crossing
				}
				traffic[l][d] += oracleCrossingBytes(sc.Coll, cores, suffix[l+1], d, a, p, B)
			}
		}
		// Innermost memory buses: every byte a rank sends or receives.
		if inner >= 0 && len(sc.Spec.Levels) > inner && sc.Spec.Levels[inner].BusBandwidth > 0 {
			occ := map[int]int{}
			for _, c := range cores {
				occ[c/suffix[inner+1]]++
			}
			perRankVolume := perRankBytes(sc.Coll, p, B)
			for d, a := range occ {
				busTraffic[d] += float64(a) * perRankVolume
			}
		}
		// Latency class: the outermost level any pair of this comm crosses.
		for i := 0; i+1 < len(cores); i++ {
			d := h.FirstDiffLevel(cores[i], cores[i+1])
			if d < maxCrossLevel {
				maxCrossLevel = d
			}
		}
	}

	// Bottleneck: the most loaded link.
	worst := 0.0
	level := -1
	nics := sc.Spec.NICsPerNode
	if nics <= 0 {
		nics = 1
	}
	for l := 0; l < k-1; l++ {
		if len(sc.Spec.Levels) <= l {
			continue
		}
		cap := sc.Spec.Levels[l].UpBandwidth
		if cap <= 0 {
			continue
		}
		if l == 0 {
			cap *= float64(nics)
		}
		for _, bytes := range traffic[l] {
			if t := bytes / cap; t > worst {
				worst = t
				level = l
			}
		}
	}
	if inner >= 0 && len(sc.Spec.Levels) > inner {
		cap := sc.Spec.Levels[inner].BusBandwidth
		if cap > 0 {
			for _, bytes := range busTraffic {
				if t := bytes / cap; t > worst {
					worst = t
					level = inner
				}
			}
		}
	}
	// Latency term: rounds × latency of the widest crossing.
	lat := 0.0
	if maxCrossLevel < len(sc.Spec.Levels) {
		lat = sc.Spec.Levels[maxCrossLevel].Latency
	}
	rounds := float64(p - 1)
	if sc.Coll == Allreduce {
		rounds = 2 * float64(p-1)
	}
	latTime := rounds * lat
	total := worst + latTime
	if latTime > worst {
		level = -1
	}
	if total <= 0 {
		return Prediction{}, fmt.Errorf("advisor: degenerate prediction")
	}
	return Prediction{
		Order:           append([]int(nil), sigma...),
		Time:            total,
		Bandwidth:       B / total,
		BottleneckLevel: level,
		Latency:         latTime,
	}, nil
}

// oracleCrossingBytes is the egress traffic of a domain holding a of the comm's
// p ranks during one operation.
func oracleCrossingBytes(coll Collective, cores []int, domSize, dom, a, p int, B float64) float64 {
	switch coll {
	case Alltoall:
		// Every ordered pair exchanges B/p².
		return float64(a) * float64(p-a) * B / float64(p) / float64(p)
	case Allgather, Allreduce:
		// Ring edges (i, i+1 mod p): each edge carries (p-1) blocks of B/p
		// (allgather) or 2(p-1) chunks of B/p (allreduce phases).
		perEdge := B * float64(p-1) / float64(p)
		if coll == Allreduce {
			perEdge = 2 * B * float64(p-1) / float64(p) / float64(p) * float64(p-1)
		}
		edges := 0
		for i := 0; i < p; i++ {
			next := (i + 1) % p
			if cores[i]/domSize == dom && cores[next]/domSize != dom {
				edges++
			}
		}
		return float64(edges) * perEdge
	}
	return 0
}

// checkAgainstOracle compares one prediction with the oracle's, exactly.
func checkAgainstOracle(t *testing.T, pd *predictor, sc Scenario, sigma []int) {
	t.Helper()
	want, werr := predictOracle(sc, sigma)
	got, gerr := pd.predict(sigma)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%v %s p=%d sim=%v σ=%v: error %v, oracle %v",
			sc.Hierarchy.Arities(), sc.Coll, sc.CommSize, sc.Simultaneous, sigma, gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("error %q, oracle %q", gerr, werr)
		}
		return
	}
	if got.Time != want.Time || got.Bandwidth != want.Bandwidth || got.Latency != want.Latency ||
		got.BottleneckLevel != want.BottleneckLevel {
		t.Fatalf("%v %s p=%d sim=%v σ=%v:\n got %+v\nwant %+v",
			sc.Hierarchy.Arities(), sc.Coll, sc.CommSize, sc.Simultaneous, sigma, got, want)
	}
}

// TestPredictEqualsOracle is the differential proof of the predictor:
// seeded random hierarchies of depth 2–8 under the three machine specs,
// all collectives, one and all communicators, every dividing communicator
// size, random orders — Time, Bandwidth, Latency and BottleneckLevel must
// equal the oracle's exactly (same float operations in the same order),
// and one predictor must serve every order of its scenario.
func TestPredictEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specs := []netmodel.Spec{cluster.Hydra(16, 2), cluster.LUMI(16), cluster.Cloud(12), cluster.Cloud(6)}
	radices := []int{2, 2, 2, 3, 4, 5}
	for trial := 0; trial < 48; trial++ {
		k := 2 + rng.Intn(7)
		ar := make([]int, k)
		n := 1
		for i := range ar {
			ar[i] = radices[rng.Intn(len(radices))]
			if n*ar[i] > 512 {
				ar[i] = 2
			}
			n *= ar[i]
		}
		h := topology.MustNew(ar...)
		// A spec shallower or deeper than the hierarchy is legal: levels
		// past the spec carry no traffic and cost no latency.
		spec := specs[trial%len(specs)]
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(n) {
					sc := Scenario{Spec: spec, Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: sim,
						Bytes: 1 + rng.Int63n(1<<28-1)}
					pd, err := newPredictor(sc)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 3; i++ {
						checkAgainstOracle(t, pd, sc, rng.Perm(k))
					}
				}
			}
		}
	}
}

// TestPredictEqualsOracleOnMachines runs the same comparison on the
// machines the service answers for, with their own hierarchies.
func TestPredictEqualsOracleOnMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, spec := range []netmodel.Spec{cluster.Hydra(16, 1), cluster.LUMI(16), cluster.Cloud(8), cluster.Cloud(12)} {
		h := spec.Hierarchy()
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(h.Size()) {
					if p > 256 && coll != Alltoall {
						continue // the oracle rescans a ring per occupied domain: O(p²) a level
					}
					sc := Scenario{Spec: spec, Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: sim, Bytes: 256<<20 + int64(p)}
					pd, err := newPredictor(sc)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, pd, sc, rng.Perm(h.Depth()))
				}
			}
		}
	}
}

// TestPredictBoxEqualsLoop holds the closed form to the walk it replaces
// on boxes, bit for bit: every order of cloud depth 6–8, Hydra ⟦16,2,2,8⟧,
// LUMI ⟦4,2,4,2,8⟧ and the mixed radices ⟦3,3,3,2,2,2⟧, every
// communicator size from 1 up, the three collectives, one and all
// communicators, byte counts that are no multiple of 256. Every scenario
// of the served, power-of-two machines must take the box path, so a
// silent fall-back to the walk fails here instead of only slowing the
// search; their float sums are exact, so the mixed radices are the ones
// that hold the closed form to the walk's order of additions. The shapes
// after them are no boxes and must take the walk. Where the order spaces
// are large, each order is tried under a share of the scenarios, every
// scenario under hundreds of orders.
func TestPredictBoxEqualsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// check compares predict with the walk and reports whether it took
	// the box path.
	check := func(pd *predictor, sigma []int) bool {
		t.Helper()
		sc := pd.sc
		box := pd.box(sigma)
		got, gerr := pd.predict(sigma)
		want, werr := pd.walk(sigma)
		if (gerr != nil) != (werr != nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%v %s p=%d sim=%v σ=%v: error %v, walk %v",
				sc.Hierarchy.Arities(), sc.Coll, sc.CommSize, sc.Simultaneous, sigma, gerr, werr)
		}
		if got.Time != want.Time || got.Bandwidth != want.Bandwidth || got.Latency != want.Latency ||
			got.BottleneckLevel != want.BottleneckLevel {
			t.Fatalf("%v %s p=%d sim=%v σ=%v box=%v:\n got %+v\nwalk %+v",
				sc.Hierarchy.Arities(), sc.Coll, sc.CommSize, sc.Simultaneous, sigma, box, got, want)
		}
		return box
	}
	// machine runs every order under every scenario when stride is 1,
	// else order i under scenario s only where i+s is a multiple of it.
	machine := func(spec netmodel.Spec, h topology.Hierarchy, stride int, served bool) {
		orders := perm.All(h.Depth())
		s, boxes := 0, 0
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				for _, p := range append([]int{1}, divisorsOf(h.Size())...) {
					sc := Scenario{Spec: spec, Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: sim,
						Bytes: 1 + rng.Int63n(1<<28-1)}
					pd, err := newPredictor(sc)
					if err != nil {
						t.Fatal(err)
					}
					for i := (stride - s%stride) % stride; i < len(orders); i += stride {
						if check(pd, orders[i]) {
							boxes++
						} else if served {
							t.Fatalf("%v %s p=%d sim=%v σ=%v: walked, want the box path",
								h.Arities(), coll, p, sim, orders[i])
						}
					}
					s++
				}
			}
		}
		if boxes == 0 {
			t.Fatalf("%v: no scenario took the box path", h.Arities())
		}
	}
	for _, m := range []struct {
		spec   netmodel.Spec
		stride int
	}{{cluster.Cloud(6), 1}, {cluster.Cloud(7), 8}, {cluster.Cloud(8), 48}, {cluster.Hydra(16, 1), 1}, {cluster.LUMI(4), 1}} {
		machine(m.spec, m.spec.Hierarchy(), m.stride, true)
	}
	machine(cluster.Cloud(6), topology.MustNew(3, 3, 3, 2, 2, 2), 4, false)
	for _, tc := range []struct {
		ar    []int
		p     int
		sigma []int
	}{
		{[]int{3, 2}, 2, []int{0, 1}},
		{[]int{2, 3}, 3, []int{0, 1}},
		{[]int{2, 3, 2}, 3, []int{0, 1, 2}},
	} {
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				pd, err := newPredictor(Scenario{Spec: cluster.Cloud(6), Hierarchy: topology.MustNew(tc.ar...),
					Coll: coll, CommSize: tc.p, Simultaneous: sim, Bytes: 1 + rng.Int63n(1<<28-1)})
				if err != nil {
					t.Fatal(err)
				}
				if check(pd, tc.sigma) {
					t.Fatalf("%v p=%d σ=%v: took the box path, want the walk", tc.ar, tc.p, tc.sigma)
				}
			}
		}
	}
}

// TestPredictRejects pins the one-shot wrapper's validation.
func TestPredictRejects(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	ok := Scenario{Spec: cluster.Hydra(2, 1), Hierarchy: h, Coll: Alltoall, CommSize: 4, Bytes: 1 << 20}
	for name, tc := range map[string]struct {
		mut   func(*Scenario)
		sigma []int
	}{
		"comm size does not divide": {func(sc *Scenario) { sc.CommSize = 3 }, []int{0, 1, 2}},
		"zero comm size":            {func(sc *Scenario) { sc.CommSize = 0 }, []int{0, 1, 2}},
		"no bytes":                  {func(sc *Scenario) { sc.Bytes = 0 }, []int{0, 1, 2}},
		"short order":               {func(*Scenario) {}, []int{0, 1}},
		"not a permutation":         {func(*Scenario) {}, []int{0, 1, 1}},
	} {
		sc := ok
		tc.mut(&sc)
		_, err := Predict(sc, tc.sigma)
		_, werr := predictOracle(sc, tc.sigma)
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("%s: error %v, oracle %v", name, err, werr)
		}
	}
	pr, err := Predict(ok, []int{2, 0, 1})
	if err != nil || fmt.Sprint(pr.Order) != "[2 0 1]" {
		t.Fatalf("Predict = %+v, %v", pr, err)
	}
}
