package metrics

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

// FirstComm returns the placement of the first subcommunicator (the one
// containing reordered ranks 0 … commSize-1) when hierarchy h is reordered
// with order sigma: the blue communicator of Figure 2.
func FirstComm(h topology.Hierarchy, sigma []int, commSize int) (Placement, error) {
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Placement{}, err
	}
	if commSize <= 0 || commSize > h.Size() {
		return Placement{}, fmt.Errorf("metrics: communicator size %d out of range (0, %d]", commSize, h.Size())
	}
	cores := make([]int, commSize)
	ro.InverseRangeInto(cores, 0)
	return Placement{H: h, Cores: cores}, nil
}

func mustChar(t *testing.T, h topology.Hierarchy, order string, commSize int) Characterization {
	t.Helper()
	sigma, err := perm.Parse(order)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Characterize(h, sigma, commSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func approxEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0.05 {
			return false
		}
	}
	return true
}

// §3.3 worked examples on the Figure 2 hierarchy ⟦2,2,4⟧ with
// communicators of 4 processes.
func TestSection33Examples(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	c012 := mustChar(t, h, "0-1-2", 4)
	if c012.RingCost != 9 {
		t.Errorf("[0,1,2] ring cost = %d, want 9", c012.RingCost)
	}
	c102 := mustChar(t, h, "1-0-2", 4)
	if c102.RingCost != 7 {
		t.Errorf("[1,0,2] ring cost = %d, want 7", c102.RingCost)
	}
	if !approxEq(c102.Pairs, []float64{0, 33.3, 66.7}) {
		t.Errorf("[1,0,2] pairs = %v, want [0 33.3 66.7]", c102.Pairs)
	}
	c210 := mustChar(t, h, "2-1-0", 4)
	if !approxEq(c210.Pairs, []float64{100, 0, 0}) {
		t.Errorf("[2,1,0] pairs = %v, want [100 0 0]", c210.Pairs)
	}
}

// Golden values from every figure legend of the paper (§4.1). These pin
// down the full Decompose/Compose/metric chain.
func TestFigureLegendMetrics(t *testing.T) {
	hydra := topology.MustNew(16, 2, 2, 8)
	lumi := topology.MustNew(16, 2, 4, 2, 8)
	cases := []struct {
		name     string
		h        topology.Hierarchy
		commSize int
		order    string
		ringCost int
		pairs    []float64
	}{
		// Figure 3: Hydra, Alltoall, 16 procs/comm.
		{"F3", hydra, 16, "0-1-2-3", 60, []float64{0, 0, 0, 100}},
		{"F3", hydra, 16, "2-1-0-3", 40, []float64{0, 6.7, 13.3, 80}},
		{"F3", hydra, 16, "1-3-0-2", 45, []float64{46.7, 0, 53.3, 0}},
		{"F3", hydra, 16, "1-3-2-0", 45, []float64{46.7, 0, 53.3, 0}},
		{"F3", hydra, 16, "3-1-0-2", 17, []float64{46.7, 0, 53.3, 0}},
		{"F3", hydra, 16, "3-2-1-0", 16, []float64{46.7, 53.3, 0, 0}},
		// Figure 4: Hydra, Alltoall, 128 procs/comm.
		{"F4", hydra, 128, "0-1-2-3", 508, []float64{0.8, 1.6, 3.1, 94.5}},
		{"F4", hydra, 128, "2-1-0-3", 348, []float64{0.8, 1.6, 3.1, 94.5}},
		{"F4", hydra, 128, "1-3-0-2", 388, []float64{5.5, 0, 6.3, 88.2}},
		{"F4", hydra, 128, "3-1-0-2", 164, []float64{5.5, 0, 6.3, 88.2}},
		{"F4", hydra, 128, "1-3-2-0", 384, []float64{5.5, 6.3, 12.6, 75.6}},
		{"F4", hydra, 128, "3-2-1-0", 152, []float64{5.5, 6.3, 12.6, 75.6}},
		// Figure 5: LUMI, Alltoall, 16 procs/comm.
		{"F5", lumi, 16, "0-1-2-3-4", 75, []float64{0, 0, 0, 0, 100}},
		{"F5", lumi, 16, "1-2-3-0-4", 60, []float64{0, 6.7, 40, 53.3, 0}},
		{"F5", lumi, 16, "3-2-1-4-0", 38, []float64{0, 6.7, 40, 53.3, 0}},
		{"F5", lumi, 16, "3-4-0-1-2", 30, []float64{46.7, 53.3, 0, 0, 0}},
		{"F5", lumi, 16, "4-3-2-1-0", 16, []float64{46.7, 53.3, 0, 0, 0}},
		// Figure 6: Hydra, Allreduce, 64 procs/comm.
		{"F6", hydra, 64, "0-1-2-3", 252, []float64{0, 1.6, 3.2, 95.2}},
		{"F6", hydra, 64, "2-1-0-3", 172, []float64{0, 1.6, 3.2, 95.2}},
		{"F6", hydra, 64, "1-3-0-2", 192, []float64{11.1, 0, 12.7, 76.2}},
		{"F6", hydra, 64, "3-1-0-2", 80, []float64{11.1, 0, 12.7, 76.2}},
		{"F6", hydra, 64, "1-3-2-0", 190, []float64{11.1, 12.7, 25.4, 50.8}},
		{"F6", hydra, 64, "3-2-1-0", 74, []float64{11.1, 12.7, 25.4, 50.8}},
		// Figure 7: LUMI, Allgather, 256 procs/comm.
		{"F7", lumi, 256, "0-1-2-3-4", 1275, []float64{0, 0.4, 2.4, 3.1, 94.1}},
		{"F7", lumi, 256, "1-2-3-0-4", 1035, []float64{0, 0.4, 2.4, 3.1, 94.1}},
		{"F7", lumi, 256, "3-4-0-1-2", 555, []float64{2.7, 3.1, 0, 0, 94.1}},
		{"F7", lumi, 256, "3-2-1-4-0", 669, []float64{2.7, 3.1, 18.8, 25.1, 50.2}},
		{"F7", lumi, 256, "4-3-2-1-0", 305, []float64{2.7, 3.1, 18.8, 25.1, 50.2}},
	}
	for _, c := range cases {
		got := mustChar(t, c.h, c.order, c.commSize)
		if got.RingCost != c.ringCost {
			t.Errorf("%s %s: ring cost %d, want %d", c.name, c.order, got.RingCost, c.ringCost)
		}
		if !approxEq(got.Pairs, c.pairs) {
			t.Errorf("%s %s: pairs %v, want %v", c.name, c.order, got.Pairs, c.pairs)
		}
	}
}

func TestRingCostBounds(t *testing.T) {
	// For any placement of n distinct cores: n-1 ≤ ring cost ≤ (n-1)·depth.
	h := topology.MustNew(4, 2, 2, 4)
	for _, sigma := range perm.All(4) {
		for _, size := range []int{2, 4, 8, 16, 32} {
			p, err := FirstComm(h, sigma, size)
			if err != nil {
				t.Fatal(err)
			}
			rc := RingCost(p)
			if rc < size-1 || rc > (size-1)*h.Depth() {
				t.Errorf("sigma=%v size=%d: ring cost %d outside [%d, %d]",
					sigma, size, rc, size-1, (size-1)*h.Depth())
			}
		}
	}
}

func TestPairsSumTo100(t *testing.T) {
	h := topology.MustNew(4, 2, 2, 4)
	for _, sigma := range perm.All(4) {
		for _, size := range []int{2, 4, 16, 64} {
			p, err := FirstComm(h, sigma, size)
			if err != nil {
				t.Fatal(err)
			}
			pairs := PairsPerLevel(p)
			sum := 0.0
			for _, v := range pairs {
				sum += v
			}
			if math.Abs(sum-100) > 1e-9 {
				t.Errorf("sigma=%v size=%d: pair percentages sum to %f", sigma, size, sum)
			}
		}
	}
}

func TestPairsSingleton(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	p, err := FirstComm(h, []int{2, 1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range PairsPerLevel(p) {
		if v != 0 {
			t.Errorf("singleton communicator has nonzero pair percentage %v", v)
		}
	}
	if RingCost(p) != 0 {
		t.Error("singleton ring cost nonzero")
	}
}

func TestCommPlacements(t *testing.T) {
	// Figure 2, order [2,0,1]: communicators {0..3} on node0/socket0,
	// {4..7} on node1/socket0, {8..11} on node0/socket1, {12..15} node1/socket1.
	h := topology.MustNew(2, 2, 4)
	sigma := []int{2, 0, 1}
	wantCores := [][]int{
		{0, 1, 2, 3},
		{8, 9, 10, 11},
		{4, 5, 6, 7},
		{12, 13, 14, 15},
	}
	for idx, want := range wantCores {
		p, err := Comm(h, sigma, 4, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p.Cores {
			if c != want[i] {
				t.Errorf("comm %d cores = %v, want %v", idx, p.Cores, want)
				break
			}
		}
	}
}

func TestCommErrors(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	if _, err := Comm(h, []int{2, 1, 0}, 3, 0); err == nil {
		t.Error("non-dividing comm size accepted")
	}
	if _, err := Comm(h, []int{2, 1, 0}, 4, 4); err == nil {
		t.Error("out-of-range comm index accepted")
	}
	if _, err := Comm(h, []int{0, 0, 1}, 4, 0); err == nil {
		t.Error("invalid order accepted")
	}
	if _, err := FirstComm(h, []int{2, 1, 0}, 0); err == nil {
		t.Error("zero comm size accepted")
	}
	if _, err := FirstComm(h, []int{2, 1, 0}, 17); err == nil {
		t.Error("oversized comm accepted")
	}
}

func TestCharacterizationString(t *testing.T) {
	h := topology.MustNew(16, 2, 2, 8)
	c := mustChar(t, h, "0-1-2-3", 16)
	want := "0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSpreadScore(t *testing.T) {
	h := topology.MustNew(16, 2, 2, 8)
	packed := mustChar(t, h, "3-2-1-0", 16)
	spread := mustChar(t, h, "0-1-2-3", 16)
	mid := mustChar(t, h, "2-1-0-3", 16)
	if spread.SpreadScore() != 1 {
		t.Errorf("fully spread score = %f, want 1", spread.SpreadScore())
	}
	if !(packed.SpreadScore() < mid.SpreadScore() && mid.SpreadScore() <= spread.SpreadScore()) {
		t.Errorf("spread ordering violated: packed=%f mid=%f spread=%f",
			packed.SpreadScore(), mid.SpreadScore(), spread.SpreadScore())
	}
}

func TestEquivalenceClasses(t *testing.T) {
	// §3.3: on ⟦2,2,4⟧ with comms of 4, orders [2,0,1] and [2,1,0] are
	// similar (same ring cost, same pairs); [0,1,2] and [1,0,2] are not
	// (same pairs, different ring cost).
	h := topology.MustNew(2, 2, 4)
	classes, err := EquivalenceClasses(h, perm.All(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	classOf := map[string]int{}
	for i, cls := range classes {
		for _, c := range cls {
			classOf[perm.Format(c.Order)] = i
		}
	}
	if classOf["2-0-1"] != classOf["2-1-0"] {
		t.Error("[2,0,1] and [2,1,0] should be equivalent")
	}
	if classOf["0-1-2"] == classOf["1-0-2"] {
		t.Error("[0,1,2] and [1,0,2] should be distinguished by ring cost")
	}
	total := 0
	for _, cls := range classes {
		total += len(cls)
	}
	if total != 6 {
		t.Errorf("classes cover %d orders, want 6", total)
	}
}

func TestSamePairsLengthMismatch(t *testing.T) {
	a := Characterization{Pairs: []float64{100, 0}}
	b := Characterization{Pairs: []float64{100, 0, 0}}
	if a.SamePairs(b) {
		t.Error("different depths reported as same pairs")
	}
}

func BenchmarkCharacterize(b *testing.B) {
	h := topology.MustNew(16, 2, 4, 2, 8)
	sigma := []int{3, 2, 1, 4, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(h, sigma, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommPlacementsOwnTheirCores: a placement holds the communicator's
// cores and nothing else — it used to be a window onto the whole inverse
// table, pinning n entries for the p it shows.
func TestCommPlacementsOwnTheirCores(t *testing.T) {
	h := topology.MustNew(4, 2, 4, 2)
	sigma := []int{2, 0, 3, 1}
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		t.Fatal(err)
	}
	inv := ro.InverseTable()
	for _, commSize := range []int{1, 4, 16, 64} {
		first, err := FirstComm(h, sigma, commSize)
		if err != nil {
			t.Fatal(err)
		}
		if cap(first.Cores) != commSize || !reflect.DeepEqual(first.Cores, inv[:commSize]) {
			t.Errorf("FirstComm(%d): cap %d, cores %v, want %v", commSize, cap(first.Cores), first.Cores, inv[:commSize])
		}
		for idx := 0; idx < h.Size()/commSize; idx++ {
			p, err := Comm(h, sigma, commSize, idx)
			if err != nil {
				t.Fatal(err)
			}
			want := inv[idx*commSize : (idx+1)*commSize]
			if cap(p.Cores) != commSize || !reflect.DeepEqual(p.Cores, want) {
				t.Errorf("Comm(%d, %d): cap %d, cores %v, want %v", commSize, idx, cap(p.Cores), p.Cores, want)
			}
		}
	}
}
