package splatt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/tensor"
)

// testTensor is shared across tests: a nell-1-like synthetic with one huge
// mode (split 16 ways) whose hot band makes the first mode-0 layer carry a
// dominant share of the Alltoallv traffic, so that — as on the real input
// — the 16-process layer communicators drive the order sensitivity.
var (
	testTensorOnce sync.Once
	testTensorVal  *tensor.Tensor
)

func testTensor() *tensor.Tensor {
	testTensorOnce.Do(func() {
		testTensorVal = tensor.SyntheticNell([3]int{400000, 2000, 2000}, 1_000_000, 17)
	})
	return testTensorVal
}

// smallConfig is a scaled-down Figure 8: 8 Hydra nodes (256 cores), a
// 16×4×4 grid (16 mode-1 layers of 16 ranks).
func smallConfig(order []int) Config {
	return Config{
		Spec:      cluster.Hydra(8, 1),
		Hierarchy: cluster.HydraHierarchy(8),
		Order:     order,
		Grid:      tensor.Grid{16, 4, 4},
		Tensor:    testTensor(),
		Rank:      16,
		Iters:     2,
	}
}

// runScoped runs cfg under an obs scope and returns its collective spans,
// failing if the span cap dropped any.
func runScoped(t *testing.T, cfg Config) (*Result, []obs.Span) {
	t.Helper()
	sc := obs.New(obs.Options{})
	cfg.MPI = mpi.Config{Obs: sc}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := sc.DroppedSpans(); d > 0 {
		t.Fatalf("scope dropped %d spans past its cap", d)
	}
	var coll []obs.Span
	for _, sp := range sc.Spans() {
		if sp.Cat == "coll" {
			coll = append(coll, sp)
		}
	}
	return res, coll
}

// arg returns the span's integer arg named key.
func arg(t *testing.T, sp obs.Span, key string) int64 {
	t.Helper()
	for _, a := range sp.Args {
		if a.Key == key {
			return a.Val
		}
	}
	t.Fatalf("span %s has no %q arg", sp.Name, key)
	return 0
}

func TestRunProducesDuration(t *testing.T) {
	res, err := Run(smallConfig([]int{3, 2, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatalf("duration = %v", res.Duration)
	}
}

func TestCommunicatorCensus(t *testing.T) {
	// §4.2: on p ranks with grid (g1,4,4) the census is 3 world comms,
	// 4+4 comms of p/4, g1 comms of 16. The mpisee census counts the
	// distinct communicators of each size the run's collectives used.
	_, spans := runScoped(t, smallConfig([]int{3, 2, 1, 0}))
	comms := map[int64]map[int64]bool{}
	for _, sp := range spans {
		size := arg(t, sp, "comm_size")
		if comms[size] == nil {
			comms[size] = map[int64]bool{}
		}
		comms[size][arg(t, sp, "comm")] = true
	}
	census := map[int64]int{}
	for size, ids := range comms {
		census[size] = len(ids)
	}
	if census[256] < 2 {
		t.Errorf("world-sized comms in census: %d, want ≥ 2 (got %v)", census[256], census)
	}
	if census[64] != 8 {
		t.Errorf("64-rank comms: %d, want 8 (census %v)", census[64], census)
	}
	if census[16] != 16 {
		t.Errorf("16-rank comms: %d, want 16 (census %v)", census[16], census)
	}
}

// Result.Alltoall is what a per-communicator profiler reads off the
// collective spans: for each layer size, the largest per-rank sum of that
// rank's Alltoall span durations, summed in call order. On the 4×4×4 grid
// all three layers have 16 ranks, and for 9 of its 24 orders a per-mode
// sum rounds differently.
func TestAlltoallTimeEqualsSpans(t *testing.T) {
	cases := []Config{smallConfig([]int{1, 3, 2, 0})}
	hub := tensor.SyntheticNell([3]int{400, 40000, 400}, 100_000, 17)
	for _, sigma := range perm.All(4) {
		cases = append(cases, Config{
			Spec:      cluster.Hydra(2, 1),
			Hierarchy: cluster.HydraHierarchy(2),
			Order:     sigma,
			Grid:      tensor.Grid{4, 4, 4},
			Tensor:    hub,
			Rank:      8,
			Iters:     2,
		})
	}
	for _, cfg := range cases {
		res, spans := runScoped(t, cfg)
		perRank := map[int64]map[int]float64{}
		for _, sp := range spans {
			if sp.Name != "Alltoall" {
				continue
			}
			size := arg(t, sp, "comm_size")
			if perRank[size] == nil {
				perRank[size] = map[int]float64{}
			}
			perRank[size][sp.TID] += sp.End - sp.Start
		}
		if len(res.Alltoall) != len(perRank) {
			t.Errorf("grid %v order %v: Alltoall has sizes %v, spans have %d sizes", cfg.Grid, cfg.Order, res.Alltoall, len(perRank))
		}
		for size, ranks := range perRank {
			var want float64
			for _, v := range ranks {
				want = max(want, v)
			}
			got, ok := res.Alltoall[int(size)]
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("grid %v order %v: Alltoall[%d] = %v (present %v), spans give %v", cfg.Grid, cfg.Order, size, got, ok, want)
			}
		}
	}
}

func TestOrderAffectsDuration(t *testing.T) {
	// The rank order must matter for the CPD duration, with a spread of at
	// least ~10 % between the extremes (the paper sees 32 % on the real
	// cluster). In the simulator the ordering direction follows the
	// contention physics of its own Figure 3: packed layer communicators
	// beat spread ones under simultaneous Alltoallv — see EXPERIMENTS.md
	// for the discussion of the paper's inverted real-system direction.
	spread, err := Run(smallConfig([]int{0, 3, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Run(smallConfig([]int{3, 2, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if packed.Duration >= spread.Duration {
		t.Errorf("packed CPD (%v) should beat fully spread (%v) under the fluid contention model",
			packed.Duration, spread.Duration)
	}
	gap := (spread.Duration - packed.Duration) / spread.Duration
	if gap < 0.10 {
		t.Errorf("order sensitivity too weak: extremes differ by %.1f%%, want ≥ 10%%", gap*100)
	}
}

// §4.2's attribution: across orders, CPD duration correlates strongly with
// the time spent in Alltoallv on the 16-process communicators. The
// straggler (max-over-ranks) view is used because the dominant layer's
// cost is diluted 16× in a mean and leaks into the next collective as
// waiting time.
func TestSplattCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-order sweep")
	}
	orders := [][]int{
		{0, 1, 2, 3}, {1, 3, 2, 0}, {3, 2, 1, 0}, {2, 1, 0, 3}, {0, 3, 1, 2}, {3, 1, 0, 2},
	}
	var durations, alltoall16 []float64
	for _, sigma := range orders {
		res, err := Run(smallConfig(sigma))
		if err != nil {
			t.Fatalf("order %v: %v", sigma, err)
		}
		durations = append(durations, res.Duration)
		alltoall16 = append(alltoall16, res.Alltoall[16])
	}
	r := metrics.Pearson(durations, alltoall16)
	if r < 0.8 {
		t.Errorf("Pearson(CPD, Alltoallv@16) = %v, want ≥ 0.8 (durations %v, alltoallv %v)",
			r, durations, alltoall16)
	}
}

func TestTwoNICsFaster(t *testing.T) {
	cfg1 := smallConfig([]int{0, 1, 2, 3}) // spread: NIC-hungry
	cfg2 := cfg1
	cfg2.Spec = cluster.Hydra(8, 2)
	one, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if two.Duration >= one.Duration {
		t.Errorf("2 NICs (%v) should beat 1 NIC (%v) for a spread order", two.Duration, one.Duration)
	}
}

func TestGridMismatchRejected(t *testing.T) {
	cfg := smallConfig([]int{3, 2, 1, 0})
	cfg.Grid = tensor.Grid{4, 4, 4}
	if _, err := Run(cfg); err == nil {
		t.Error("mismatched grid accepted")
	}
	cfg = smallConfig([]int{3, 2, 1})
	if _, err := Run(cfg); err == nil {
		t.Error("short order accepted")
	}
}

func TestAllOrdersDistinctGroups(t *testing.T) {
	// Sanity: all 24 orders run without error on a tiny machine (2 nodes).
	if testing.Short() {
		t.Skip("24-order sweep")
	}
	for _, sigma := range perm.All(4) {
		cfg := Config{
			Spec:      cluster.Hydra(2, 1),
			Hierarchy: cluster.HydraHierarchy(2),
			Order:     sigma,
			Grid:      tensor.Grid{4, 4, 4},
			Tensor:    tensor.SyntheticNell([3]int{400, 400, 400}, 5000, 3),
			Rank:      8,
			Iters:     1,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("order %v: %v", sigma, err)
		}
	}
}
