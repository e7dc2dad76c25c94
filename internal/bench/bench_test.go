package bench

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// smallHydra is a 4-node Hydra (128 cores) keeping test runtimes short.
func smallHydra() (Config, topology.Hierarchy) {
	h := cluster.HydraHierarchy(4)
	return Config{
		Spec:      cluster.Hydra(4, 1),
		Hierarchy: h,
		CommSize:  16,
		Coll:      Alltoall,
		Iters:     2,
	}, h
}

func TestValidate(t *testing.T) {
	cfg, _ := smallHydra()
	cfg.Orders = [][]int{{0, 1, 2, 3}}
	cfg.Sizes = []int64{1 << 20}
	cfg.CommSize = 7
	if _, err := Run(cfg); err == nil {
		t.Error("non-dividing comm size accepted")
	}
	cfg.CommSize = 16
	cfg.Coll = "transmogrify"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown collective accepted")
	}
	cfg.Coll = Alltoall
	cfg.Orders = nil
	if _, err := Run(cfg); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestMeasureSingleVsSimultaneous(t *testing.T) {
	// The paper's Figure 3 setup: 16 Hydra nodes, 512 ranks, communicators
	// of 16. The spread order puts one rank of the first communicator on
	// each node (16 NICs available); the packed order fills one socket.
	cfg := Config{
		Spec:      cluster.Hydra(16, 1),
		Hierarchy: cluster.HydraHierarchy(16),
		CommSize:  16,
		Coll:      Alltoall,
		Iters:     2,
	}
	spread := []int{0, 1, 2, 3}
	packed := []int{3, 2, 1, 0}
	size := int64(8 << 20)

	spreadOne, err := Measure(cfg, spread, size, false)
	if err != nil {
		t.Fatal(err)
	}
	spreadAll, err := Measure(cfg, spread, size, true)
	if err != nil {
		t.Fatal(err)
	}
	packedOne, err := Measure(cfg, packed, size, false)
	if err != nil {
		t.Fatal(err)
	}
	packedAll, err := Measure(cfg, packed, size, true)
	if err != nil {
		t.Fatal(err)
	}

	// §4.1.3 shape 1: packed mappings have constant performance regardless
	// of the number of simultaneous communicators.
	ratio := packedAll.Bandwidth / packedOne.Bandwidth
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("packed bandwidth changed under contention: one=%.3g all=%.3g",
			packedOne.Bandwidth, packedAll.Bandwidth)
	}
	// §4.1.3 shape 2: the spread mapping wins when alone…
	if spreadOne.Bandwidth <= packedOne.Bandwidth {
		t.Errorf("spread one-comm (%.3g) should beat packed one-comm (%.3g)",
			spreadOne.Bandwidth, packedOne.Bandwidth)
	}
	// …and collapses when all communicators share the NICs.
	if spreadAll.Bandwidth >= packedAll.Bandwidth {
		t.Errorf("spread all-comms (%.3g) should lose to packed all-comms (%.3g)",
			spreadAll.Bandwidth, packedAll.Bandwidth)
	}
	// The spread mapping's own collapse should be large (about the number
	// of communicators per node in the ideal fluid model).
	if spreadAll.Bandwidth*2 > spreadOne.Bandwidth {
		t.Errorf("spread mapping barely degraded: one=%.3g all=%.3g",
			spreadOne.Bandwidth, spreadAll.Bandwidth)
	}
}

// TestOneCommIterationHistoryPinned pins the history term of a
// one-communicator cell (Hydra ⟦16,2,2,8⟧, 64 ranks per communicator,
// Alltoall at 1 MiB, so Bruck on 256-byte blocks). Runs are deterministic,
// so with T(k) = k·size/Bandwidth at Iters k, T(k) − T(k−1) is iteration
// k's time. Order 0-2-1-3's iterations oscillate; 0-1-2-3, the same cores
// and the same §3.3 class, takes the same time in every one. Whether the
// oscillation is a simulator artifact is open; a change that moves these
// sequences changes the model and must say so.
func TestOneCommIterationHistoryPinned(t *testing.T) {
	cfg := Config{
		Spec:      cluster.Hydra(16, 1),
		Hierarchy: cluster.HydraHierarchy(16),
		CommSize:  64,
		Coll:      Alltoall,
	}
	const size = 1 << 20
	for _, tc := range []struct {
		sigma []int
		want  string // µs per iteration, iterations 1–4
	}{
		{[]int{0, 2, 1, 3}, "18.203 17.368 45.035 27.989"},
		{[]int{0, 1, 2, 3}, "20.738 20.738 20.738 20.738"},
	} {
		got, prev := "", 0.0
		for k := 1; k <= 4; k++ {
			cfg.Iters = k
			pt, err := Measure(cfg, tc.sigma, size, false)
			if err != nil {
				t.Fatal(err)
			}
			total := float64(k) * size / pt.Bandwidth
			if k > 1 {
				got += " "
			}
			got += fmt.Sprintf("%.3f", (total-prev)*1e6)
			prev = total
		}
		if got != tc.want {
			t.Errorf("order %v: iterations 1–4 take %s µs, pinned %s", tc.sigma, got, tc.want)
		}
	}
}

func TestRunProducesSeries(t *testing.T) {
	cfg, _ := smallHydra()
	cfg.Orders = [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}}
	cfg.Sizes = []int64{256 << 10, 4 << 20}
	series, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.OneComm) != 2 || len(s.AllComms) != 2 {
			t.Fatalf("order %v: %d/%d points", s.Order, len(s.OneComm), len(s.AllComms))
		}
		for _, pt := range append(append([]Point{}, s.OneComm...), s.AllComms...) {
			if pt.Bandwidth <= 0 {
				t.Errorf("order %v size %d: bandwidth %v", s.Order, pt.Size, pt.Bandwidth)
			}
			// Tiny relative slack: with identical per-comm values the mean
			// can differ from the deciles by float rounding.
			if pt.P10 > pt.Bandwidth*(1+1e-12) || pt.P90 < pt.Bandwidth*(1-1e-12) {
				t.Errorf("order %v size %d: deciles %v %v around %v",
					s.Order, pt.Size, pt.P10, pt.P90, pt.Bandwidth)
			}
		}
		if s.Char.RingCost <= 0 {
			t.Errorf("order %v: missing characterization", s.Order)
		}
	}
}

func TestAllgatherAndAllreduceRun(t *testing.T) {
	cfg, _ := smallHydra()
	for _, coll := range []Collective{Allgather, Allreduce} {
		cfg.Coll = coll
		pt, err := Measure(cfg, []int{3, 2, 1, 0}, 1<<20, true)
		if err != nil {
			t.Fatalf("%s: %v", coll, err)
		}
		if pt.Bandwidth <= 0 {
			t.Errorf("%s: bandwidth %v", coll, pt.Bandwidth)
		}
	}
}

func TestSizes16KBto512MB(t *testing.T) {
	sizes := Sizes16KBto512MB()
	if sizes[0] != 16<<10 || sizes[len(sizes)-1] != 512<<20 {
		t.Errorf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Error("sizes not increasing")
		}
	}
}

func TestFormatMBps(t *testing.T) {
	if got := FormatMBps(7.731e9); got != "7731" {
		t.Errorf("FormatMBps = %q", got)
	}
}
