// The advise, procsets, and detect subcommands: the §5 extensions
// (prediction, MPI-sessions-style process sets, hwloc-style detection).

package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/hwdetect"
	"repro/internal/mapd"
	"repro/internal/perm"
	"repro/internal/procset"
	"repro/internal/topology"
)

// cmdAdvise asks the service's own evaluation, text and -json alike, so
// the two modes accept, reject and rank identically.
func cmdAdvise(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	machine := fs.String("machine", "hydra", "machine model: hydra, hydra-real, lumi, or cloud")
	nodes := fs.Int("nodes", 0, "number of compute nodes (not for cloud; 0 = default 16)")
	depth := fs.Int("depth", 0, "cloud hierarchy depth 6..12 (cloud only; 0 = default 10)")
	coll := fs.String("coll", "alltoall", "collective: alltoall, allgather, allreduce")
	comm := fs.Int("comm", 16, "subcommunicator size")
	size := fs.Int64("size", 16<<20, "total collective size in bytes")
	simultaneous := fs.Bool("all", true, "all subcommunicators run simultaneously")
	top := fs.Int("top", 5, "how many recommendations to print")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/advise response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ans, err := mapd.Eval(context.Background(), &mapd.AdviseRequest{
		Machine:      *machine,
		Nodes:        *nodes,
		Depth:        *depth,
		Collective:   *coll,
		CommSize:     *comm,
		Bytes:        *size,
		Simultaneous: *simultaneous,
		Top:          *top,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(w, ans)
	}
	resp := ans.(*mapd.AdviseResponse)
	fmt.Fprintf(w, "%s search for %s (%d ranks/comm, simultaneous=%v) on %s %v:\n",
		resp.SearchMode, *coll, *comm, *simultaneous, resp.Machine, resp.Hierarchy)
	fmt.Fprintf(w, "    accounted %d orders; evaluated %d order classes", resp.Evaluated, resp.OrdersEvaluated)
	if resp.OptimalityGap > 0 {
		fmt.Fprintf(w, " (optimality gap %.4f)", resp.OptimalityGap)
	}
	fmt.Fprintln(w)
	for i, pr := range resp.Best {
		fmt.Fprintf(w, "%2d. %s\n", i+1, pr.Explain)
	}
	fmt.Fprintf(w, "    …\nworst evaluated: %s\n", resp.Worst.Explain)
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
