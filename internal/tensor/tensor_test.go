package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func smallTensor() *Tensor {
	return &Tensor{
		Dims: [Order]int{2, 3, 2},
		Inds: []Coord{{0, 0, 0}, {0, 2, 1}, {1, 1, 0}, {1, 2, 1}},
		Vals: []float64{1, 2, 3, 4},
	}
}

func TestCheck(t *testing.T) {
	ts := smallTensor()
	if err := ts.Check(); err != nil {
		t.Fatal(err)
	}
	bad := smallTensor()
	bad.Inds[0][1] = 5
	if err := bad.Check(); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad2 := smallTensor()
	bad2.Vals = bad2.Vals[:2]
	if err := bad2.Check(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad3 := smallTensor()
	bad3.Dims[0] = 0
	if err := bad3.Check(); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestNormSquared(t *testing.T) {
	if got := smallTensor().NormSquared(); got != 1+4+9+16 {
		t.Errorf("NormSquared = %v", got)
	}
}

func TestSort(t *testing.T) {
	ts := smallTensor()
	ts.Sort(1) // by mode 1, then 2, then 0
	for i := 1; i < ts.NNZ(); i++ {
		if ts.Inds[i-1][1] > ts.Inds[i][1] {
			t.Fatalf("not sorted by mode 1: %v", ts.Inds)
		}
	}
	// Values must travel with their coordinates.
	for i, c := range ts.Inds {
		switch c {
		case Coord{0, 0, 0}:
			if ts.Vals[i] != 1 {
				t.Error("value detached from coordinate")
			}
		case Coord{1, 2, 1}:
			if ts.Vals[i] != 4 {
				t.Error("value detached from coordinate")
			}
		}
	}
}

func TestSyntheticProperties(t *testing.T) {
	dims := [Order]int{50, 40, 30}
	ts := Synthetic(dims, 500, 42)
	if err := ts.Check(); err != nil {
		t.Fatal(err)
	}
	if ts.NNZ() != 500 {
		t.Errorf("NNZ = %d, want 500", ts.NNZ())
	}
	// Determinism.
	ts2 := Synthetic(dims, 500, 42)
	if ts2.NNZ() != ts.NNZ() {
		t.Error("generator not deterministic in nnz")
	}
	for i := range ts.Inds {
		if ts.Inds[i] != ts2.Inds[i] || ts.Vals[i] != ts2.Vals[i] {
			t.Fatal("generator not deterministic")
		}
	}
	// Skew: the top 5% most frequent mode-0 slices should hold far more
	// than 5% of nonzeros.
	counts := make([]int, dims[0])
	for _, c := range ts.Inds {
		counts[c[0]]++
	}
	sortedCounts := append([]int(nil), counts...)
	for i := 1; i < len(sortedCounts); i++ { // insertion sort descending
		for j := i; j > 0 && sortedCounts[j] > sortedCounts[j-1]; j-- {
			sortedCounts[j], sortedCounts[j-1] = sortedCounts[j-1], sortedCounts[j]
		}
	}
	hot := 0
	for i := 0; i < dims[0]/20; i++ {
		hot += sortedCounts[i]
	}
	if float64(hot) < 0.15*float64(ts.NNZ()) {
		t.Errorf("top slices hold only %d/%d nonzeros", hot, ts.NNZ())
	}
}

// naiveMTTKRP is the obvious reference implementation.
func naiveMTTKRP(ts *Tensor, mode int, factors [Order]*Matrix, r int) *Matrix {
	out := NewMatrix(ts.Dims[mode], r)
	m1 := (mode + 1) % Order
	m2 := (mode + 2) % Order
	for n, c := range ts.Inds {
		for q := 0; q < r; q++ {
			out.Data[int(c[mode])*r+q] += ts.Vals[n] *
				factors[m1].At(int(c[m1]), q) * factors[m2].At(int(c[m2]), q)
		}
	}
	return out
}

func TestMTTKRPMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := Synthetic([Order]int{12, 9, 7}, 150, 3)
	const r = 5
	var factors [Order]*Matrix
	for m := 0; m < Order; m++ {
		factors[m] = RandomMatrix(ts.Dims[m], r, rng)
	}
	for mode := 0; mode < Order; mode++ {
		out := NewMatrix(ts.Dims[mode], r)
		MTTKRP(ts, mode, factors, out)
		want := naiveMTTKRP(ts, mode, factors, r)
		for i := range out.Data {
			if math.Abs(out.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("mode %d: MTTKRP[%d] = %v, want %v", mode, i, out.Data[i], want.Data[i])
			}
		}
	}
}

func TestGram(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	g := m.Gram()
	// mᵀm = [[35, 44], [44, 56]]
	want := []float64{35, 44, 44, 56}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("Gram = %v, want %v", g.Data, want)
		}
	}
}

func TestHadamard(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	a.Hadamard(b)
	want := []float64{5, 12, 21, 32}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Hadamard = %v", a.Data)
		}
	}
}

func TestSolveSPD(t *testing.T) {
	// G = [[4,1],[1,3]], solve B·G⁻¹ for B = X·G so the answer is X.
	g := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 1, 1, 3}}
	x := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, -1, 0.5, 3, -2}}
	b := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			var s float64
			for k := 0; k < 2; k++ {
				s += x.At(i, k) * g.At(k, j)
			}
			b.Set(i, j, s)
		}
	}
	SolveSPD(g, b)
	for i := range b.Data {
		if math.Abs(b.Data[i]-x.Data[i]) > 1e-8 {
			t.Fatalf("SolveSPD = %v, want %v", b.Data, x.Data)
		}
	}
}

// Property: SolveSPD(G, B·G) ≈ B for random SPD G.
func TestSolveSPDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := 3
		a := RandomMatrix(r+2, r, rng)
		g := a.Gram() // SPD with prob. 1
		x := RandomMatrix(4, r, rng)
		b := NewMatrix(4, r)
		for i := 0; i < 4; i++ {
			for j := 0; j < r; j++ {
				var s float64
				for k := 0; k < r; k++ {
					s += x.At(i, k) * g.At(k, j)
				}
				b.Set(i, j, s)
			}
		}
		SolveSPD(g, b)
		for i := range b.Data {
			if math.Abs(b.Data[i]-x.Data[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCPALSRecoversLowRank(t *testing.T) {
	// Build an exactly rank-2 tensor and check CP-ALS reaches fit ≈ 1.
	lambda := []float64{3, 1.5}
	a := [][]float64{{0.9, 0.1, 0.4, 0.2}, {0.2, 0.8, 0.3, 0.7}}
	b := [][]float64{{0.5, 0.5, 0.1}, {0.9, 0.2, 0.6}}
	c := [][]float64{{0.3, 0.7, 0.2, 0.1, 0.5}, {0.6, 0.1, 0.8, 0.4, 0.2}}
	ts := FromRankOne([Order]int{4, 3, 5}, lambda, a, b, c)
	res, err := CPALS(ts, CPALSOptions{Rank: 2, MaxIters: 200, Tol: 1e-12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.9999 {
		t.Errorf("fit = %v, want ≈ 1 (fits: %v)", res.Fit(), res.Fits)
	}
}

func TestCPALSFitOnRealisticTensor(t *testing.T) {
	// A random sparse tensor is not low-rank; CP-ALS must still improve
	// the fit and stay within [0, 1].
	ts := Synthetic([Order]int{30, 25, 20}, 400, 9)
	res, err := CPALS(ts, CPALSOptions{Rank: 8, MaxIters: 25, Tol: 1e-9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) == 0 {
		t.Fatal("no iterations recorded")
	}
	final := res.Fit()
	if final <= res.Fits[0]-1e-9 {
		t.Errorf("fit decreased: first %v, final %v", res.Fits[0], final)
	}
	if final < 0 || final > 1 {
		t.Errorf("fit %v outside [0, 1]", final)
	}
}

func TestCPALSErrors(t *testing.T) {
	ts := smallTensor()
	if _, err := CPALS(ts, CPALSOptions{Rank: 0}); err == nil {
		t.Error("rank 0 accepted")
	}
	zero := &Tensor{Dims: [Order]int{2, 2, 2}}
	if _, err := CPALS(zero, CPALSOptions{Rank: 2}); err == nil {
		t.Error("zero tensor accepted")
	}
}

func TestCostEstimates(t *testing.T) {
	if FlopsPerMTTKRP(1000, 16) != 48000 {
		t.Error("FlopsPerMTTKRP")
	}
	if BytesPerMTTKRP(1, 1) != 20+24 {
		t.Errorf("BytesPerMTTKRP(1,1) = %v", BytesPerMTTKRP(1, 1))
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	g := Grid{4, 3, 2}
	for rank := 0; rank < g.Size(); rank++ {
		if got := g.RankOf(g.CoordOf(rank)); got != rank {
			t.Fatalf("RankOf(CoordOf(%d)) = %d", rank, got)
		}
	}
	if g.Size() != 24 {
		t.Errorf("Size = %d", g.Size())
	}
	if err := (Grid{0, 1, 1}).Check(); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestLayerIndex(t *testing.T) {
	g := Grid{4, 3, 2}
	for mode := 0; mode < Order; mode++ {
		// Ranks sharing a layer have equal mode coordinate; inLayer values
		// within one layer are a bijection onto [0, Size/g[mode]).
		seen := map[int]map[int]bool{}
		for rank := 0; rank < g.Size(); rank++ {
			layer, inLayer := g.LayerIndex(rank, mode)
			if layer != g.CoordOf(rank)[mode] {
				t.Fatalf("mode %d rank %d: layer %d", mode, rank, layer)
			}
			if seen[layer] == nil {
				seen[layer] = map[int]bool{}
			}
			if seen[layer][inLayer] {
				t.Fatalf("mode %d: duplicate inLayer %d in layer %d", mode, inLayer, layer)
			}
			if inLayer < 0 || inLayer >= g.Size()/g[mode] {
				t.Fatalf("mode %d: inLayer %d out of range", mode, inLayer)
			}
			seen[layer][inLayer] = true
		}
		if len(seen) != g[mode] {
			t.Fatalf("mode %d: %d layers, want %d", mode, len(seen), g[mode])
		}
	}
}

func TestPartitionTensor(t *testing.T) {
	ts := Synthetic([Order]int{40, 40, 40}, 600, 4)
	g := Grid{2, 2, 2}
	p, err := PartitionTensor(ts, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalNNZ() != ts.NNZ() {
		t.Errorf("partition loses nonzeros: %d != %d", p.TotalNNZ(), ts.NNZ())
	}
	if mx := slices.Max(p.NNZ); mx <= 0 || mx > ts.NNZ() {
		t.Errorf("heaviest block = %d", mx)
	}
	for m := 0; m < Order; m++ {
		total := 0
		for rank := 0; rank < g.Size(); rank++ {
			if g.CoordOf(rank)[(m+1)%Order] == 0 && g.CoordOf(rank)[(m+2)%Order] == 0 {
				total += p.RowsOwned[m][rank]
			}
		}
		if total != ts.Dims[m] {
			t.Errorf("mode %d: rows owned sum to %d, want %d", m, total, ts.Dims[m])
		}
	}
	if _, err := PartitionTensor(ts, Grid{0, 1, 1}); err == nil {
		t.Error("bad grid accepted")
	}
}

func BenchmarkMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ts := Synthetic([Order]int{200, 150, 100}, 20000, 8)
	const r = 16
	var factors [Order]*Matrix
	for m := 0; m < Order; m++ {
		factors[m] = RandomMatrix(ts.Dims[m], r, rng)
	}
	out := NewMatrix(ts.Dims[0], r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MTTKRP(ts, 0, factors, out)
	}
}

func BenchmarkCPALSIteration(b *testing.B) {
	ts := Synthetic([Order]int{100, 80, 60}, 5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CPALS(ts, CPALSOptions{Rank: 8, MaxIters: 1, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
