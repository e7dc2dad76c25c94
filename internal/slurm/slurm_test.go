package slurm

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

func TestDistributionString(t *testing.T) {
	d := Distribution{Node: Plane, PlaneSize: 8}
	if d.String() != "plane=8" {
		t.Errorf("String = %q", d.String())
	}
	d = Distribution{Node: Block, Socket: Cyclic}
	if d.String() != "block:cyclic" {
		t.Errorf("String = %q", d.String())
	}
}

// Figure 2 captions: each achievable order maps to a --distribution value;
// order [1,0,2] maps to none.
func TestFigure2SlurmCaptions(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	want := map[string]string{
		"0-1-2": "cyclic:cyclic",
		"0-2-1": "cyclic:block",
		"1-2-0": "block:cyclic",
		"2-0-1": "plane=4",
		"2-1-0": "block:block",
	}
	for name, dist := range want {
		sigma, err := perm.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := DistributionForOrder(h, sigma)
		if !ok {
			t.Errorf("order %s: no distribution found, want %s", name, dist)
			continue
		}
		if got.String() != dist {
			t.Errorf("order %s: distribution %s, want %s", name, got, dist)
		}
	}
	sigma := []int{1, 0, 2}
	if d, ok := DistributionForOrder(h, sigma); ok {
		t.Errorf("order [1,0,2] should not be expressible, got %s", d)
	}
}

// The paper's §4.2 statement: Hydra's Slurm default block:cyclic equals
// order [1,3,2,0] on ⟦nodes,2,2,8⟧.
func TestHydraDefaultOrder(t *testing.T) {
	h := topology.MustNew(4, 2, 2, 8) // small Hydra
	d := Distribution{Node: Block, Socket: Cyclic}
	got, err := d.Binding(h)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := mixedradix.NewReorderer(h.Arities(), []int{1, 3, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ro.InverseTable()) {
		t.Error("block:cyclic != order [1,3,2,0] on Hydra-shaped hierarchy")
	}
}

// LUMI's default block:block equals the identity order [4,3,2,1,0].
func TestLUMIDefaultOrder(t *testing.T) {
	h := topology.MustNew(2, 2, 4, 2, 8)
	d := Distribution{Node: Block, Socket: Block}
	got, err := d.Binding(h)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := mixedradix.NewReorderer(h.Arities(), []int{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ro.InverseTable()) {
		t.Error("block:block != identity order on LUMI-shaped hierarchy")
	}
}

func TestBindingIsPermutation(t *testing.T) {
	h := topology.MustNew(4, 2, 2, 4)
	dists := []Distribution{
		{Node: Block, Socket: Block},
		{Node: Block, Socket: Cyclic},
		{Node: Cyclic, Socket: Block},
		{Node: Cyclic, Socket: Cyclic},
		{Node: Plane, Socket: Block, PlaneSize: 4},
		{Node: Plane, Socket: Cyclic, PlaneSize: 2},
	}
	for _, d := range dists {
		b, err := d.Binding(h)
		if err != nil {
			t.Fatal(err)
		}
		if !perm.IsPermutation(b) {
			t.Errorf("%s: binding is not a bijection: %v", d, b)
		}
	}
}

func TestBindingErrors(t *testing.T) {
	h := topology.MustNew(4)
	if _, err := (Distribution{Node: Block, Socket: Block}).Binding(h); err == nil {
		t.Error("depth-1 hierarchy accepted")
	}
	h2 := topology.MustNew(2, 2, 4)
	if _, err := (Distribution{Node: Plane}).Binding(h2); err == nil {
		t.Error("plane without size accepted")
	}
}

// Algorithm 3 examples from §4.3 (Figure 9, LUMI node ⟦2,4,2,8⟧):
// with 2 processes, order [0,1,2,3] selects the first core of each socket;
// with 8, orders [0,1,2,3] and [1,0,2,3] select the first core of each NUMA.
func TestMapCPUFigure9Examples(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	l, err := MapCPU(node, []int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, []int{0, 64}) {
		t.Errorf("2-proc [0,1,2,3] = %v, want [0 64]", l)
	}
	for _, sigma := range [][]int{{0, 1, 2, 3}, {1, 0, 2, 3}} {
		l, err := MapCPU(node, sigma, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 16, 32, 48, 64, 80, 96, 112}
		if !reflect.DeepEqual(SelectionSet(l), want) {
			t.Errorf("8-proc %v selection = %v, want %v", sigma, SelectionSet(l), want)
		}
	}
	// Figure 9's 4-proc [2,1,0,3] uses one core per L3 of the two first
	// NUMA domains of socket 0: cores 0, 8, 16, 24.
	l, err = MapCPU(node, []int{2, 1, 0, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(SelectionSet(l), []int{0, 8, 16, 24}) {
		t.Errorf("4-proc [2,1,0,3] selection = %v", SelectionSet(l))
	}
}

func TestMapCPUFullSelectionIsPermutation(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	for _, sigma := range perm.All(4) {
		l, err := MapCPU(node, sigma, node.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !perm.IsPermutation(l) {
			t.Errorf("sigma=%v: full map_cpu list is not a permutation", sigma)
		}
	}
}

func TestMapCPUEachCoreOnce(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	for _, sigma := range perm.All(4) {
		for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
			l, err := MapCPU(node, sigma, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(l) != n {
				t.Fatalf("sigma=%v n=%d: %d cores", sigma, n, len(l))
			}
			seen := map[int]bool{}
			for _, c := range l {
				if seen[c] {
					t.Fatalf("sigma=%v n=%d: duplicate core %d", sigma, n, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestMapCPUErrors(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	if _, err := MapCPU(node, []int{0, 1, 2, 3}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MapCPU(node, []int{0, 1, 2, 3}, 1000); err == nil {
		t.Error("oversize n accepted")
	}
	if _, err := MapCPU(node, []int{0, 1, 2}, 4); err == nil {
		t.Error("short order accepted")
	}
	if _, err := MapCPU(node, []int{0, 0, 1, 2}, 4); err == nil {
		t.Error("invalid order accepted")
	}
}

func TestFormatMapCPU(t *testing.T) {
	if got := FormatMapCPU([]int{0, 16, 8}); got != "map_cpu:0,16,8" {
		t.Errorf("FormatMapCPU = %q", got)
	}
}

func TestInducedHierarchy(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	cases := []struct {
		name  string
		cores []int
		want  []int
	}{
		// §3.4 example: all cores of the first socket on both "nodes" —
		// here: one core per L3 across socket 0 → ⟦4, 2⟧.
		{"one per l3 socket0", []int{0, 8, 16, 24, 32, 40, 48, 56}, []int{4, 2}},
		{"one per socket", []int{0, 64}, []int{2}},
		{"two per l3 of numa0", []int{0, 1, 8, 9}, []int{2, 2}},
		{"full node", rangeInts(128), []int{2, 4, 2, 8}},
		{"single core", []int{5}, nil},
		{"whole numa", rangeInts(16), []int{2, 8}},
	}
	for _, c := range cases {
		got, err := InducedHierarchy(node, c.cores)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: induced = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInducedHierarchyErrors(t *testing.T) {
	node := topology.MustNew(2, 4, 2, 8)
	if _, err := InducedHierarchy(node, nil); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := InducedHierarchy(node, []int{0, 0}); err == nil {
		t.Error("duplicate selection accepted")
	}
	if _, err := InducedHierarchy(node, []int{0, 1, 8}); err == nil {
		t.Error("non-uniform selection accepted")
	}
	if _, err := InducedHierarchy(node, []int{0, 999}); err == nil {
		t.Error("out-of-range core accepted")
	}
	// Same sizes but different sub-structure: {0,1} in one L3 vs {8,16}
	// spanning L3s of two NUMAs.
	if _, err := InducedHierarchy(node, []int{0, 1, 64, 72}); err == nil {
		t.Error("structurally different selection accepted")
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// eagerDistributionForOrder builds every candidate's full binding, then
// compares it with the reordered world's: the oracle of the rank-by-rank
// search.
func eagerDistributionForOrder(h topology.Hierarchy, sigma []int) (Distribution, bool) {
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Distribution{}, false
	}
	want := ro.InverseTable()
	var candidates []Distribution
	for _, np := range []Policy{Block, Cyclic} {
		for _, sp := range []Policy{Block, Cyclic} {
			candidates = append(candidates, Distribution{Node: np, Socket: sp})
		}
	}
	coresPerNode := h.Size() / h.Arities()[0]
	for plane := 1; plane <= coresPerNode; plane++ {
		if coresPerNode%plane == 0 {
			candidates = append(candidates, Distribution{Node: Plane, Socket: Block, PlaneSize: plane})
		}
	}
	for _, d := range candidates {
		if got, err := d.Binding(h); err == nil && reflect.DeepEqual(got, want) {
			return d, true
		}
	}
	return Distribution{}, false
}

// eagerPlaneBinding is plane=p as Slurm describes it: blocks of p ranks
// dealt to the nodes in turn, each node filling its next free core.
func eagerPlaneBinding(h topology.Hierarchy, p int) []int {
	nodes := h.Arities()[0]
	coresPerNode := h.Size() / nodes
	next := make([]int, nodes)
	binding := make([]int, h.Size())
	for r := range binding {
		node := r / p % nodes
		binding[r] = node*coresPerNode + next[node]
		next[node]++
	}
	return binding
}

// TestDistributionForOrderMatchesEager runs the rank-by-rank search and
// the eager oracle on every order of the Hydra and LUMI hierarchies (two
// nodes each), of one LUMI node, and of random depth 2–6 hierarchies:
// both must give the same answer.
func TestDistributionForOrderMatchesEager(t *testing.T) {
	hs := []topology.Hierarchy{
		topology.MustNew(2, 2, 2, 8),    // Hydra: node, socket, NUMA, core
		topology.MustNew(2, 2, 4, 2, 8), // LUMI: node, socket, NUMA, CCD, core
		topology.MustNew(2, 4, 2, 8),    // one LUMI node: socket, NUMA, CCD, core
	}
	rng := rand.New(rand.NewSource(1))
	for len(hs) < 40 {
		ar := make([]int, 2+rng.Intn(5))
		size := 1
		for i := range ar {
			ar[i] = 2 + rng.Intn(4)
			size *= ar[i]
		}
		if size <= 1024 {
			hs = append(hs, topology.MustNew(ar...))
		}
	}
	found := 0
	for _, h := range hs {
		for _, sigma := range perm.All(h.Depth()) {
			got, gok := DistributionForOrder(h, sigma)
			want, wok := eagerDistributionForOrder(h, sigma)
			if got != want || gok != wok {
				t.Fatalf("%s order %v: search %v %v, eager oracle %v %v", h, sigma, got, gok, want, wok)
			}
			if gok {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no order expressible: the comparison checked nothing")
	}
}

// TestPlaneBindingMatchesSlurm checks the closed-form plane=p binding
// against Slurm's deal-and-fill description, for plane sizes that divide
// a node's cores and ones that do not.
func TestPlaneBindingMatchesSlurm(t *testing.T) {
	h := topology.MustNew(3, 2, 6)
	for p := 1; p <= 13; p++ {
		got, err := Distribution{Node: Plane, Socket: Block, PlaneSize: p}.Binding(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := eagerPlaneBinding(h, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("plane=%d: binding %v, want %v", p, got, want)
		}
	}
}

// TestDistributionForOrderAllocs bounds the search's allocations on a
// ~1 M-core hierarchy whose node has 160 plane-size divisors: the reordered
// world's table and the reorderer are allocated once, and no candidate
// allocates, so the count does not grow with the divisors.
func TestDistributionForOrderAllocs(t *testing.T) {
	h := topology.MustNew(2, 4, 3, 5, 7, 8, 9, 16) // 967 680 cores, 483 840 per node
	for _, sigma := range [][]int{
		{1, 0, 2, 3, 4, 5, 6, 7}, // no --distribution value: every candidate tried
		{7, 6, 5, 4, 3, 2, 1, 0}, // block:block
	} {
		allocs := testing.AllocsPerRun(1, func() { DistributionForOrder(h, sigma) })
		if allocs > 8 {
			t.Errorf("order %v: %v allocations, want at most 8 whatever the divisor count", sigma, allocs)
		}
	}
}
