// The advise, procsets, and detect subcommands: the §5 extensions
// (prediction, MPI-sessions-style process sets, hwloc-style detection).

package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/hwdetect"
	"repro/internal/mapd"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/procset"
	"repro/internal/topology"
)

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	machine := fs.String("machine", "hydra", "machine model: hydra, lumi, or cloud")
	nodes := fs.Int("nodes", 16, "number of compute nodes (hydra/lumi)")
	depth := fs.Int("depth", 0, "cloud hierarchy depth 6..12 (cloud only; 0 = default 10)")
	coll := fs.String("coll", "alltoall", "collective: alltoall, allgather, allreduce")
	comm := fs.Int("comm", 16, "subcommunicator size")
	size := fs.Int64("size", 16<<20, "total collective size in bytes")
	simultaneous := fs.Bool("all", true, "all subcommunicators run simultaneously")
	top := fs.Int("top", 5, "how many recommendations to print")
	threshold := fs.Int("search-threshold", 0,
		"largest depth searched exhaustively; deeper uses branch-and-bound/beam (0 = default 7)")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/advise response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		req := mapd.AdviseRequest{
			Machine:      *machine,
			Collective:   *coll,
			CommSize:     *comm,
			Bytes:        *size,
			Simultaneous: *simultaneous,
			Top:          *top,
		}
		if *machine == "cloud" {
			req.Depth = *depth
		} else {
			req.Nodes = *nodes
		}
		return emitEval(&req, mapd.AdviseOptions{SearchDepthThreshold: *threshold})
	}
	var spec netmodel.Spec
	var h topology.Hierarchy
	switch *machine {
	case "hydra":
		spec = clusterHydra(*nodes)
		h = spec.Hierarchy()
	case "lumi":
		spec = clusterLUMI(*nodes)
		h = spec.Hierarchy()
	case "cloud":
		d := *depth
		if d == 0 {
			d = 10
		}
		if d < cluster.CloudMinDepth || d > cluster.CloudMaxDepth {
			return fmt.Errorf("cloud depth %d out of range %d..%d", d, cluster.CloudMinDepth, cluster.CloudMaxDepth)
		}
		spec = cluster.Cloud(d)
		h = spec.Hierarchy()
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	sc := advisor.Scenario{
		Spec:         spec,
		Hierarchy:    h,
		Coll:         advisor.Collective(*coll),
		CommSize:     *comm,
		Simultaneous: *simultaneous,
		Bytes:        *size,
	}
	thr := *threshold
	if thr <= 0 {
		thr = mapd.DefaultSearchDepthThreshold
	}
	if h.Depth() > thr {
		// Deep hierarchy: k! orders are out of reach — run the bounded
		// branch-and-bound/beam search and report what it accounted for.
		res, err := advisor.SearchOrders(context.Background(), sc, advisor.SearchOptions{Top: *top})
		if err != nil {
			return err
		}
		fmt.Printf("%s search for %s (%d ranks/comm, %d bytes, simultaneous=%v) on %s:\n",
			res.Mode, *coll, *comm, *size, *simultaneous, h)
		fmt.Printf("    accounted %d of %d! orders; evaluated %d order classes across %d search nodes",
			res.Covered+res.Pruned, h.Depth(), res.Evaluated, res.Nodes)
		if res.OptimalityGap > 0 {
			fmt.Printf(" (optimality gap %.4f)", res.OptimalityGap)
		}
		fmt.Println()
		for i, pr := range res.Best {
			fmt.Printf("%2d. %s\n", i+1, advisor.Explain(sc, pr))
		}
		fmt.Printf("    …\nworst evaluated: %s\n", advisor.Explain(sc, res.Worst))
		return nil
	}
	ranked, err := advisor.Recommend(sc, nil)
	if err != nil {
		return err
	}
	fmt.Printf("ranking %d orders for %s (%d ranks/comm, %d bytes, simultaneous=%v) on %s:\n",
		len(ranked), *coll, *comm, *size, *simultaneous, h)
	n := *top
	if n > len(ranked) {
		n = len(ranked)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("%2d. %s\n", i+1, advisor.Explain(sc, ranked[i]))
	}
	fmt.Printf("    …\n%2d. %s\n", len(ranked), advisor.Explain(sc, ranked[len(ranked)-1]))
	return nil
}

func cmdProcsets(args []string) error {
	fs := flag.NewFlagSet("procsets", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy, e.g. 16,2,2,8")
	comm := fs.Int("comm", 0, "communicator size for the metrics (default innermost level)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	reg, err := procset.NewRegistry(h)
	if err != nil {
		return err
	}
	commSize := *comm
	if commSize == 0 {
		commSize = h.Level(h.Depth() - 1).Arity
	}
	fmt.Printf("process sets of %s:\n", h)
	for _, uri := range reg.Names() {
		s, err := reg.Lookup(uri)
		if err != nil {
			return err
		}
		ch, err := s.Characterize(commSize)
		if err != nil {
			return err
		}
		fmt.Printf("  %-28s order %-12s %s\n", uri, perm.Format(s.Order), ch)
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	lstopo := fs.String("lstopo", "", "path to an lstopo-style topology description")
	sysfs := fs.String("sysfs", "", "path to a sysfs-shaped directory (cpu/, node/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var h topology.Hierarchy
	var err error
	switch {
	case *lstopo != "":
		f, ferr := os.Open(*lstopo)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		h, err = hwdetect.ParseLstopo(f)
	case *sysfs != "":
		h, err = hwdetect.FromSysFS(os.DirFS(*sysfs))
	default:
		return fmt.Errorf("detect needs -lstopo <file> or -sysfs <dir>")
	}
	if err != nil {
		return err
	}
	fmt.Printf("detected node hierarchy: %s (levels: %v)\n", h, h.Names())
	fmt.Printf("pass to the other commands as -h %s\n", joinArities(h))
	return nil
}

func joinArities(h topology.Hierarchy) string {
	out := ""
	for i, a := range h.Arities() {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(a)
	}
	return out
}

func clusterHydra(nodes int) netmodel.Spec { return cluster.Hydra(nodes, 1) }
func clusterLUMI(nodes int) netmodel.Spec  { return cluster.LUMI(nodes) }
