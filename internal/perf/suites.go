// The declarative benchmark registry. A suite is a named, thresholded
// set of benchmarks generated from the scenario space the service
// actually serves: hierarchy shape × depth × collective × comm size ×
// search mode. Suites run in-process under the harness, so the same
// registration drives `mrperf run` (measurement), `mrperf smoke`
// (1-iteration existence check in make check), and `make bench-gate`
// (comparison against the committed trajectory).

package perf

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/topology"
)

// Bench is one registered benchmark.
type Bench struct {
	Name string
	F    func(*B)
}

// Suite is one named benchmark family with its own regression threshold.
type Suite struct {
	Name string
	// Description is shown by mrperf list.
	Description string
	// Threshold is the relative slowdown the gate tolerates (e.g. 0.20).
	Threshold float64
	Benches   []Bench
}

func intsDash(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// searchShapes is the scenario-space grid of the order-search suite:
// the depth-6 fast-path headline shape plus a shallow and a skewed
// hierarchy, covering the depths mapd actually serves.
var searchShapes = [][]int{
	{4, 2, 4, 2, 4, 2}, // depth 6, 512 cores — the PR 4 headline scenario
	{2, 4, 2, 8},       // depth 4, 128 cores — Hydra-like
	{16, 2, 2, 8},      // depth 4, 512 cores — wide outer level
}

// KernelSuite benchmarks the closed-form §3.3 metric kernels against the
// retained table oracle — the "~6500×" claim checked on every commit.
func KernelSuite() Suite {
	s := Suite{
		Name:        "kernels",
		Description: "closed-form §3.3 metric kernels vs. the table oracle",
		Threshold:   0.20,
	}
	for _, shape := range searchShapes {
		h := topology.MustNew(shape...)
		sigma := perm.Reversed(h.Depth())
		comm := h.Level(h.Depth()-1).Arity * h.Level(h.Depth()-2).Arity
		s.Benches = append(s.Benches, Bench{
			Name: fmt.Sprintf("CharacterizeFast/h=%s/c=%d", intsDash(shape), comm),
			F: func(b *B) {
				for i := 0; i < b.N; i++ {
					if _, err := metrics.Characterize(h, sigma, comm); err != nil {
						b.Fatalf("%v", err)
					}
				}
			},
		})
	}
	// The signature kernel is the pruning fast path's inner loop.
	hd6 := topology.MustNew(4, 2, 4, 2, 4, 2)
	sigmaD6 := perm.Reversed(6)
	s.Benches = append(s.Benches, Bench{
		Name: "OrderSignature/h=4,2,4,2,4,2/c=64",
		F: func(b *B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.OrderSignature(hd6, sigmaD6, 64, metrics.SignatureOpts{Ring: true}); err != nil {
					b.Fatalf("%v", err)
				}
			}
		},
	})
	return s
}

// OrderSearchSuite sweeps advisor.Rank over the scenario grid.
func OrderSearchSuite() Suite {
	s := Suite{
		Name:        "order_search",
		Description: "advisor.Rank over shape × collective × comm size",
		Threshold:   0.25,
	}
	for _, shape := range searchShapes {
		for _, coll := range []advisor.Collective{advisor.Alltoall, advisor.Allreduce} {
			comm := 64
			if mixedradix.Size(shape)%comm != 0 || mixedradix.Size(shape) < comm {
				comm = 16
			}
			adv := advisor.Scenario{
				Spec:      cluster.Hydra(16, 1),
				Hierarchy: topology.MustNew(shape...),
				Coll:      coll,
				CommSize:  comm,
				Bytes:     4 << 20,
			}
			want := factorial(len(shape))
			s.Benches = append(s.Benches, Bench{
				// The /pruned suffix keeps the names BENCH_order_search.json records.
				Name: fmt.Sprintf("OrderSearch/h=%s/%s/c=%d/pruned", intsDash(shape), coll, comm),
				F: func(b *B) {
					ctx := context.Background()
					for i := 0; i < b.N; i++ {
						ranked, err := advisor.Rank(ctx, adv, nil, advisor.RankOptions{})
						if err != nil {
							b.Fatalf("%v", err)
						}
						if len(ranked) != want {
							b.Fatalf("ranked %d orders, want %d", len(ranked), want)
						}
					}
				},
			})
		}
	}
	// Deep hierarchies: the bounded branch-and-bound engine over
	// cluster.Cloud at the depths mapd serves beyond the exact
	// threshold. Non-simultaneous scenarios prune to an exact bnb run
	// through depth 12; the simultaneous cases exhaust the node budget
	// and degrade to beam, covering the fallback's cost. The c=16 ones
	// are the shapes of the benchmark's search_deep. The
	// OrderSearchExact rows are the exhaustive walk on the
	// depth-7 and LUMI advise shapes of the benchmark's serve_cold.
	deep := []struct {
		spec netmodel.Spec
		coll advisor.Collective
		comm int
		sim  bool
		mode string
	}{
		{cluster.Cloud(8), advisor.Alltoall, 64, false, advisor.ModeBnB},
		{cluster.Cloud(10), advisor.Alltoall, 64, false, advisor.ModeBnB},
		{cluster.Cloud(12), advisor.Alltoall, 64, false, advisor.ModeBnB},
		{cluster.Cloud(12), advisor.Alltoall, 64, true, advisor.ModeBeam},
		{cluster.Cloud(8), advisor.Alltoall, 16, false, advisor.ModeBnB},
		{cluster.Cloud(10), advisor.Alltoall, 16, false, advisor.ModeBnB},
		{cluster.Cloud(12), advisor.Alltoall, 16, false, advisor.ModeBnB},
		{cluster.Cloud(12), advisor.Allreduce, 16, false, advisor.ModeBnB},
		{cluster.Cloud(10), advisor.Alltoall, 16, true, advisor.ModeBeam},
		{cluster.Cloud(12), advisor.Alltoall, 16, true, advisor.ModeBeam},
		{cluster.Cloud(7), advisor.Alltoall, 16, false, advisor.ModePruned},
		{cluster.Cloud(7), advisor.Alltoall, 16, true, advisor.ModePruned},
		{cluster.Cloud(7), advisor.Allgather, 64, false, advisor.ModePruned},
		{cluster.LUMI(16), advisor.Allgather, 256, true, advisor.ModePruned},
	}
	for _, dc := range deep {
		adv := advisor.Scenario{
			Spec:         dc.spec,
			Hierarchy:    dc.spec.Hierarchy(),
			Coll:         dc.coll,
			CommSize:     dc.comm,
			Simultaneous: dc.sim,
			Bytes:        4 << 20,
		}
		name := fmt.Sprintf("OrderSearchDeep/machine=%s/d=%d/%s/c=%d/%s", dc.spec.Name, adv.Hierarchy.Depth(), dc.coll, dc.comm, dc.mode)
		if adv.Hierarchy.Depth() <= advisor.ExactDepth {
			name = fmt.Sprintf("OrderSearchExact/machine=%s/d=%d/%s/c=%d/sim=%v", dc.spec.Name, adv.Hierarchy.Depth(), dc.coll, dc.comm, dc.sim)
		}
		s.Benches = append(s.Benches, Bench{
			Name: name,
			F: func(b *B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					res, err := advisor.SearchOrders(ctx, adv, advisor.SearchOptions{Top: 5})
					if err != nil {
						b.Fatalf("%v", err)
					}
					if res.Mode != dc.mode {
						b.Fatalf("search mode %s, want %s", res.Mode, dc.mode)
					}
				}
			},
		})
	}
	return s
}

// MixedRadixSuite benchmarks the enumeration core: decompose/compose, the
// allocation-free Reorderer table fills and the §3.2 rankfile.
func MixedRadixSuite() Suite {
	s := Suite{
		Name:        "mixedradix",
		Description: "decompose/compose, Reorderer table kernels and the rankfile writer",
		Threshold:   0.25,
	}
	shape, sigma := []int{16, 2, 2, 8}, []int{3, 2, 1, 0}
	n := mixedradix.Size(shape)
	ro, err := mixedradix.NewReorderer(shape, sigma)
	rf, rerr := reorder.New(cluster.LUMIHierarchy(16), []int{3, 2, 1, 4, 0})
	if err != nil || rerr != nil {
		panic(fmt.Sprint(err, rerr))
	}
	c, t := make([]int, len(shape)), make([]int, n)
	var buf bytes.Buffer
	for _, row := range []struct {
		name string
		op   func(i int) error
	}{
		{"DecomposeCompose/h=16,2,2,8", func(i int) error {
			mixedradix.DecomposeInto(shape, i%n, c)
			if mixedradix.Compose(shape, c, sigma) < 0 {
				return fmt.Errorf("negative rank")
			}
			return nil
		}},
		{"ReordererTable/h=16,2,2,8", func(int) error { ro.TableInto(t); return nil }},
		{"InverseTable/h=16,2,2,8", func(int) error { ro.InverseTableInto(t); return nil }},
		{"Rankfile/lumi16", func(int) error { buf.Reset(); return rf.Rankfile(&buf) }},
	} {
		s.Benches = append(s.Benches, Bench{Name: row.name, F: func(b *B) {
			for i := 0; i < b.N; i++ {
				if err := row.op(i); err != nil {
					b.Fatalf("%v", err)
				}
			}
		}})
	}
	return s
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
	}
	return f
}

// Suites returns every registered suite, sorted by name. The serving
// suite lives in serving.go, the simulator suite in sim.go; everything
// else above.
func Suites() []Suite {
	all := []Suite{
		FleetSuite(),
		KernelSuite(),
		MixedRadixSuite(),
		OrderSearchSuite(),
		ProcmapSuite(),
		ServingSuite(),
		SimSuite(),
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// FindSuite resolves a suite by name.
func FindSuite(name string) (Suite, error) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range Suites() {
		names = append(names, s.Name)
	}
	return Suite{}, fmt.Errorf("perf: unknown suite %q (have %s)", name, strings.Join(names, ", "))
}

// RunSuite executes every benchmark of the suite and returns the record.
func RunSuite(s Suite, gitSHA, timestamp string, opts RunOptions) (*Record, error) {
	opts = opts.withDefaults()
	rec := NewRecord(s.Name, gitSHA, timestamp)
	rec.Reps = opts.Reps
	rec.BenchTime = opts.BenchTime.String()
	if opts.Smoke {
		rec.Reps = 1
		rec.BenchTime = "1x"
	}
	for _, bm := range s.Benches {
		res, err := runBench(bm, opts)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %s: %w", s.Name, bm.Name, err)
		}
		if opts.Logf != nil {
			opts.Logf("%s", res.GoBenchLine())
		}
		rec.Results = append(rec.Results, res)
	}
	rec.Sort()
	return rec, nil
}
