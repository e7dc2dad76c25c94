package inproc

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"

	"repro/benchmark/harness"
	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/perm"
	"repro/internal/slurm"
	"repro/internal/splatt"
	"repro/internal/tensor"
)

// simSizes are the swept data sizes. Rows of 16 MB and more drift by
// about 1 % from run to run and cannot be checked cell by cell; 4 MB
// points cost over half a second each, too few per window.
var simSizes = []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20}

// simOp is one op of sim_figs: a micro-benchmark point, a CG run, or a
// CPD run.
type simOp struct {
	name string
	span string // layer the op enters
	run  func() (got string, err error)
	// want is the printed cell (micro), the exact result (cg), or the
	// reference duration compared within cpdTolerance (cpd).
	want string
	cpd  bool
}

// cpdTolerance is the relative band around the golden CPD duration. The
// CPD's simulated time varies in its fourth digit from run to run.
const cpdTolerance = 0.02

// SimGolden is the content of golden/sim_figs.json.
type SimGolden struct {
	CG  map[string]string `json:"cg"`  // "p8/0-1-2-3" → "duration zeta"
	CPD map[string]string `json:"cpd"` // order → duration
}

// Count implements harness.Counted.
func (g *SimGolden) Count() int { return len(g.CG) + len(g.CPD) }

// SimFigs is the sim_figs workload.
type SimFigs struct {
	classes []harness.Class
	ops     [][]simOp // per class
	results []simResult
}

// simResult is what one op of the window returned.
type simResult struct {
	op  *simOp
	got string
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// NewSimFigs builds the op table: the points of Figures 3, 4 and 6 at
// simSizes, both scenarios, sorted into three cost tiers, with CG runs
// (Figure 9) among the cheap ops and CPD runs (Figure 8) among the dear
// ones so that applications are a fifth of the ops. root is the
// repository root; golden may be nil while regenerating.
func NewSimFigs(root string, golden *SimGolden) (*SimFigs, error) {
	w := &SimFigs{ops: make([][]simOp, 3)}
	const fast, mid, slow = 0, 1, 2
	for _, mb := range []figures.MicroBench{figures.Figure3(simSizes), figures.Figure4(simSizes), figures.Figure6(simSizes)} {
		cells, err := readFigure(filepath.Join(root, "results", mb.Name+".txt"))
		if err != nil {
			return nil, err
		}
		cfg := mb.Config
		for all := 0; all < 2; all++ {
			for _, size := range simSizes {
				// Tier by measured host cost: one 16- or 64-rank
				// communicator is cheap; 32 simultaneous all-to-alls at
				// 1 MB, and 128-rank all-to-alls on all 512 ranks, are dear.
				tier := mid
				switch {
				case all == 0 && cfg.CommSize < 128:
					tier = fast
				case all == 1 && (cfg.CommSize == 128 || cfg.Coll == bench.Alltoall && size >= 1<<20):
					tier = slow
				}
				for _, sigma := range cfg.Orders {
					sigma, size, simultaneous := sigma, size, all == 1
					want, ok := cells[all][sizeLabel(size)][perm.Format(sigma)]
					if !ok {
						return nil, fmt.Errorf("inproc: results/%s.txt has no cell for %s at %s", mb.Name, perm.Format(sigma), sizeLabel(size))
					}
					w.ops[tier] = append(w.ops[tier], simOp{
						name: fmt.Sprintf("%s/%s/%s/all=%d", mb.Name, perm.Format(sigma), sizeLabel(size), all),
						span: "bench.measure",
						want: want,
						run: func() (string, error) {
							pt, err := bench.Measure(cfg, sigma, size, simultaneous)
							return bench.FormatMBps(pt.Bandwidth), err
						},
					})
				}
			}
		}
	}

	// Figure 9: class S CG on one LUMI node, p of 4 and 8, bound to the
	// cores each order selects.
	orders := perm.All(4)
	node := cluster.LUMINodeHierarchy()
	for i := 0; i < 19; i++ {
		sigma, p := orders[i], 4+4*(i%2)
		cores, err := slurm.MapCPU(node, sigma, p)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("p%d/%s", p, perm.Format(sigma))
		w.ops[fast] = append(w.ops[fast], simOp{name: "figure9/" + key, span: "cg.run", want: golden.cg(key),
			run: func() (string, error) {
				res, err := cg.Run(cluster.LUMINode(), cores, cg.ClassS(), mpi.Config{})
				return fmtFloat(res.Duration) + " " + fmtFloat(res.Zeta), err
			}})
	}

	// Figure 8: one ALS iteration of the CPD on 8 Hydra nodes, one order
	// per op, on a 200 k nonzero stand-in tensor.
	t := tensor.SyntheticNell([3]int{100_000, 2_000, 2_000}, 200_000, 1001)
	for i := 0; i < 20; i++ {
		sigma := orders[i]
		w.ops[slow] = append(w.ops[slow], simOp{name: "figure8/" + perm.Format(sigma), span: "splatt.run",
			want: golden.cpd(perm.Format(sigma)), cpd: true,
			run: func() (string, error) {
				res, err := splatt.Run(splatt.Config{
					Spec: cluster.Hydra(8, 1), Hierarchy: cluster.HydraHierarchy(8), Order: sigma,
					Grid: tensor.Grid{16, 4, 4}, Tensor: t, Rank: 16, Iters: 1,
				})
				if err != nil {
					return "", err
				}
				return fmtFloat(res.Duration), nil
			}})
	}
	w.classes = []harness.Class{
		{Name: "fast", Share: 35, Variants: len(w.ops[fast])},
		{Name: "mid", Share: 40, Variants: len(w.ops[mid])},
		{Name: "slow", Share: 25, Variants: len(w.ops[slow])},
	}
	return w, nil
}

func (g *SimGolden) cg(key string) string {
	if g == nil {
		return ""
	}
	return g.CG[key]
}

func (g *SimGolden) cpd(key string) string {
	if g == nil {
		return ""
	}
	return g.CPD[key]
}

// Classes returns the op classes, cheapest first.
func (w *SimFigs) Classes() []harness.Class { return w.classes }

// System exposes the workload to the closed loop: one driver goroutine.
func (w *SimFigs) System() harness.System {
	return harness.System{Clients: 1, Do: w.do, CPU: harness.SelfCPU}
}

func (w *SimFigs) do(_ int, op harness.Op, lane *harness.Lane) bool {
	so := &w.ops[op.Class][op.Variant]
	root := lane.Start("op", -1, op.Index)
	sp := lane.Start(so.span, root, op.Index)
	got, err := so.run()
	lane.End(sp)
	lane.End(root)
	if err != nil {
		return false
	}
	w.results = append(w.results, simResult{so, got})
	return true
}

// Reset forgets the results collected so far (the warm-up's).
func (w *SimFigs) Reset() { w.results = nil }

// Verify compares every result of the window with its reference and
// returns how many differ, with the first difference.
func (w *SimFigs) Verify() (int, error) {
	wrong := 0
	var first error
	for _, r := range w.results {
		ok := r.got == r.op.want
		if r.op.cpd {
			got, err1 := strconv.ParseFloat(r.got, 64)
			want, err2 := strconv.ParseFloat(r.op.want, 64)
			ok = err1 == nil && err2 == nil && math.Abs(got-want) <= cpdTolerance*want
		}
		if !ok {
			wrong++
			if first == nil {
				first = fmt.Errorf("inproc: %s gave %q, reference %q", r.op.name, r.got, r.op.want)
			}
		}
	}
	return wrong, first
}

// Regenerate runs every CG and CPD op once and returns their results as
// the new golden content.
func (w *SimFigs) Regenerate() (*SimGolden, error) {
	g := &SimGolden{CG: map[string]string{}, CPD: map[string]string{}}
	for _, ops := range w.ops {
		for _, so := range ops {
			if so.span == "bench.measure" {
				continue
			}
			got, err := so.run()
			if err != nil {
				return nil, fmt.Errorf("inproc: %s: %w", so.name, err)
			}
			if so.cpd {
				g.CPD[so.name[len("figure8/"):]] = got
			} else {
				g.CG[so.name[len("figure9/"):]] = got
			}
		}
	}
	return g, nil
}
