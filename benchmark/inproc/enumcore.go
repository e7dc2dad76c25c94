package inproc

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/benchmark/harness"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/slurm"
	"repro/internal/topology"
)

// Sizes of the parts of one enum_core op.
const (
	enumOrders = 24   // orders whose forward and inverse tables are filled
	enumPoints = 4096 // random point queries
)

// enumShape is one hierarchy an op enumerates.
type enumShape struct {
	h      topology.Hierarchy
	ar     []int
	comm   int
	orders [][]int // the enumOrders fixed orders, evenly spaced in rank
	node   topology.Hierarchy
}

// EnumGolden is the content of golden/enum_core.json.
type EnumGolden struct {
	// RingCostSums: hierarchy → sum of the ring costs of all its orders.
	RingCostSums map[string]int `json:"ring_cost_sums"`
	// Legends: the 28 order characterizations printed in the legends of
	// Figures 3 to 7, "figure/order" → legend entry.
	Legends map[string]string `json:"legends"`
	// Table1: new rank of rank 10 on ⟦2,2,4⟧ under each of the six orders.
	Table1 map[string]int `json:"table1"`
}

// Count implements harness.Counted.
func (g *EnumGolden) Count() int { return len(g.RingCostSums) + len(g.Legends) + len(g.Table1) }

// EnumCore is the enum_core workload.
type EnumCore struct {
	classes []harness.Class
	shapes  [][]enumShape // per class
	golden  *EnumGolden
	points  []int // seeded ranks in [0, 2048) for the point queries
	table   []int
	inverse []int
	coords  []int
	buf     bytes.Buffer
}

// enumShapes lists, per depth class, hierarchies of 2048 to 8192 cores
// whose innermost levels are a LUMI-like ⟦2,4,2,8⟧ or Hydra-like ⟦2,2,8⟧
// node.
var enumShapes = [][][]int{
	{{16, 2, 4, 2, 8}, {16, 2, 2, 4, 8}, {8, 4, 4, 2, 8}, {4, 16, 2, 2, 8}},
	{{4, 8, 2, 4, 2, 8}, {8, 4, 2, 4, 2, 8}, {2, 16, 2, 4, 2, 8}, {4, 4, 8, 2, 2, 8}},
	{{2, 4, 8, 2, 4, 2, 8}, {4, 2, 8, 2, 4, 2, 8}, {2, 2, 16, 2, 4, 2, 8}, {8, 2, 4, 2, 4, 2, 8}},
}

// NewEnumCore builds the workload for seed; golden may be nil while
// regenerating.
func NewEnumCore(seed int64, golden *EnumGolden) (*EnumCore, error) {
	w := &EnumCore{golden: golden, table: make([]int, 8192), inverse: make([]int, 8192)}
	names := []string{"depth5", "depth6", "depth7"}
	shares := []int{30, 30, 40}
	for c, shapes := range enumShapes {
		var row []enumShape
		for _, ar := range shapes {
			h, err := topology.New(ar...)
			if err != nil {
				return nil, err
			}
			k := len(ar)
			s := enumShape{h: h, ar: ar, comm: ar[k-1] * ar[k-2]}
			step := perm.Factorial(k) / enumOrders
			for j := int64(0); j < enumOrders; j++ {
				s.orders = append(s.orders, perm.Unrank(k, j*step))
			}
			if s.node, err = topology.New(ar[k-4:]...); err != nil {
				return nil, err
			}
			row = append(row, s)
		}
		w.shapes = append(w.shapes, row)
		w.classes = append(w.classes, harness.Class{Name: names[c], Share: shares[c], Variants: len(row)})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < enumPoints; i++ {
		w.points = append(w.points, rng.Intn(2048))
	}
	return w, nil
}

// Classes returns the op classes, cheapest first.
func (w *EnumCore) Classes() []harness.Class { return w.classes }

// System exposes the workload to the closed loop: one driver goroutine.
func (w *EnumCore) System() harness.System {
	return harness.System{Clients: 1, Do: w.do, CPU: harness.SelfCPU}
}

func shapeKey(ar []int) string { return fmt.Sprint(ar) }

// do runs one op: characterize every order of the hierarchy, fill the
// forward and inverse tables of 24 orders (bulk writes), answer 4096
// point queries (reads), and produce one map_cpu list and one rankfile.
func (w *EnumCore) do(_ int, op harness.Op, lane *harness.Lane) bool {
	s := &w.shapes[op.Class][op.Variant]
	k, n := len(s.ar), s.h.Size()
	root := lane.Start("op", -1, op.Index)
	defer lane.End(root)
	ok := true

	// Every order: perm.Visit drives, metrics.Characterize does the work.
	// In a traced op each Characterize call is timed and the calls are
	// recorded as one aggregate under the visit span.
	ringSum := 0
	var inCharacterize time.Duration
	visit := lane.Start("perm.visit", root, op.Index)
	perm.Visit(k, func(p []int) bool {
		var t0 time.Time
		if lane != nil {
			t0 = time.Now()
		}
		ch, err := metrics.Characterize(s.h, p, s.comm)
		if lane != nil {
			inCharacterize += time.Since(t0)
		}
		if err != nil {
			ok = false
			return false
		}
		ringSum += ch.RingCost
		return true
	})
	lane.End(visit)
	if lane != nil {
		lane.Aggregate("metrics.characterize", visit, op.Index, int(perm.Factorial(k)), inCharacterize)
	}
	if w.golden != nil && ringSum != w.golden.RingCostSums[shapeKey(s.ar)] {
		ok = false
	}

	// Bulk: forward and inverse tables of the fixed orders.
	table, inverse := w.table[:n], w.inverse[:n]
	var last *mixedradix.Reorderer
	sp := lane.Start("mixedradix.tables", root, op.Index)
	for _, sigma := range s.orders {
		ro, err := mixedradix.NewReorderer(s.ar, sigma)
		if err != nil {
			return false
		}
		ro.TableInto(table)
		ro.InverseTableInto(inverse)
		last = ro
	}
	lane.End(sp)
	for _, r := range w.points[:16] {
		if inverse[table[r]] != r {
			ok = false
		}
	}

	// Points: reordered rank and coordinates of random ranks.
	sp = lane.Start("mixedradix.points", root, op.Index)
	acc := 0
	for _, r := range w.points {
		acc += last.NewRank(r)
		w.coords = mixedradix.Decompose(s.ar, r)
		acc += w.coords[k-1]
	}
	lane.End(sp)
	if acc < 0 || last.NewRank(w.points[0]) != table[w.points[0]] {
		ok = false
	}

	// The node's order is the op's order restricted to the node's levels.
	var sigmaNode []int
	for _, l := range s.orders[op.Serial%enumOrders] {
		if l >= k-4 {
			sigmaNode = append(sigmaNode, l-(k-4))
		}
	}
	sp = lane.Start("slurm.mapcpu", root, op.Index)
	cores, err := slurm.MapCPU(s.node, sigmaNode, 64)
	lane.End(sp)
	if err != nil || len(cores) != 64 {
		ok = false
	}

	sp = lane.Start("reorder.rankfile", root, op.Index)
	w.buf.Reset()
	rf, err := reorder.New(s.h, s.orders[1])
	if err == nil {
		err = rf.Rankfile(&w.buf)
	}
	lane.End(sp)
	if err != nil || bytes.Count(w.buf.Bytes(), []byte("\n")) != n {
		ok = false
	}
	return ok
}

// legendFigures are the (hierarchy, communicator size, orders) of the
// legends of Figures 3 to 7.
var legendFigures = []struct {
	name   string
	ar     []int
	comm   int
	orders []string
}{
	{"figure3", []int{16, 2, 2, 8}, 16, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "1-3-2-0", "3-1-0-2", "3-2-1-0"}},
	{"figure4", []int{16, 2, 2, 8}, 128, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0"}},
	{"figure5", []int{16, 2, 4, 2, 8}, 16, []string{"0-1-2-3-4", "1-2-3-0-4", "3-2-1-4-0", "3-4-0-1-2", "4-3-2-1-0"}},
	{"figure6", []int{16, 2, 2, 8}, 64, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0"}},
	{"figure7", []int{16, 2, 4, 2, 8}, 256, []string{"0-1-2-3-4", "1-2-3-0-4", "3-4-0-1-2", "3-2-1-4-0", "4-3-2-1-0"}},
}

// Compute derives everything the golden file holds from the code under
// test: it is what Verify compares and what regeneration writes.
func (w *EnumCore) Compute() (*EnumGolden, error) {
	g := &EnumGolden{RingCostSums: map[string]int{}, Legends: map[string]string{}, Table1: map[string]int{}}
	for _, row := range w.shapes {
		for _, s := range row {
			sum := 0
			var cerr error
			perm.Visit(len(s.ar), func(p []int) bool {
				ch, err := metrics.Characterize(s.h, p, s.comm)
				sum, cerr = sum+ch.RingCost, err
				return err == nil
			})
			if cerr != nil {
				return nil, cerr
			}
			g.RingCostSums[shapeKey(s.ar)] = sum
		}
	}
	for _, f := range legendFigures {
		h, err := topology.New(f.ar...)
		if err != nil {
			return nil, err
		}
		for _, o := range f.orders {
			sigma, err := perm.Parse(o)
			if err != nil {
				return nil, err
			}
			ch, err := metrics.Characterize(h, sigma, f.comm)
			if err != nil {
				return nil, err
			}
			g.Legends[f.name+"/"+o] = ch.String()
		}
	}
	h := []int{2, 2, 4}
	c := mixedradix.Decompose(h, 10)
	perm.Visit(3, func(p []int) bool {
		g.Table1[perm.Format(p)] = mixedradix.Compose(h, c, p)
		return true
	})
	return g, nil
}

// Verify recomputes the golden content and compares it entry by entry.
func (w *EnumCore) Verify() (int, error) {
	got, err := w.Compute()
	if err != nil {
		return 1, err
	}
	wrong := 0
	var first error
	note := func(what string, g, want any) {
		wrong++
		if first == nil {
			first = fmt.Errorf("inproc: %s is %v, golden %v", what, g, want)
		}
	}
	for k, want := range w.golden.RingCostSums {
		if got.RingCostSums[k] != want {
			note("ring-cost sum of "+k, got.RingCostSums[k], want)
		}
	}
	for k, want := range w.golden.Legends {
		if got.Legends[k] != want {
			note("legend "+k, got.Legends[k], want)
		}
	}
	for k, want := range w.golden.Table1 {
		if got.Table1[k] != want {
			note("Table 1 order "+k, got.Table1[k], want)
		}
	}
	if got.Count() != w.golden.Count() {
		note("entry count", got.Count(), w.golden.Count())
	}
	return wrong, first
}
