// Command mrmap is the mixed-radix mapping toolbox: it decomposes ranks
// into hierarchy coordinates, computes reordered ranks, prints full
// reordering tables and rankfiles, characterizes orders (ring cost and
// process pairs per level), generates --cpu-bind=map_cpu core lists
// (Algorithm 3), and matches orders against Slurm --distribution values.
//
// Usage:
//
//	mrmap decompose  -h 2,2,4 -rank 10
//	mrmap compose    -h 2,2,4 -coords 1,0,2 -order 0,1,2
//	mrmap reorder    -h 2,2,4 -order 0,1,2 [-rankfile]
//	mrmap orders     -h 16,2,2,8 -comm 16
//	mrmap mapcpu     -h 2,4,2,8 -order 2,1,0,3 -n 8
//	mrmap slurm      -h 2,2,4 -order 2,0,1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/mapd"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/slurm"
	"repro/internal/topology"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "decompose":
		err = cmdDecompose(args)
	case "compose":
		err = cmdCompose(args)
	case "reorder":
		err = cmdReorder(args)
	case "orders":
		err = cmdOrders(args)
	case "mapcpu":
		err = cmdMapCPU(args)
	case "slurm":
		err = cmdSlurm(args)
	case "advise":
		err = cmdAdvise(os.Stdout, args)
	case "matrix":
		err = cmdMatrix(args)
	case "procsets":
		err = cmdProcsets(args)
	case "detect":
		err = cmdDetect(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mrmap: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrmap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `mrmap — mixed-radix enumeration of hierarchical machines

commands:
  decompose  -h <hier> -rank <r>                     rank -> coordinates (Alg. 1)
  compose    -h <hier> -coords <c> -order <sigma>    coordinates -> rank (Alg. 2)
  reorder    -h <hier> -order <sigma> [-rankfile]    full mapping table / rankfile
  orders     -h <hier> [-comm <size>]                characterize all orders
  mapcpu     -h <node-hier> -order <sigma> -n <k>    --cpu-bind=map_cpu list (Alg. 3)
  slurm      -h <hier> -order <sigma>                equivalent --distribution value
  advise     -machine hydra -coll alltoall -comm 16  rank the orders analytically
  matrix     -h <hier> -matrix <file> | -gen <spec>  communication-matrix-aware placement
  procsets   -h <hier>                               MPI-sessions-style process sets
  detect     -lstopo <file> | -sysfs <dir>           derive the hierarchy from a machine description

hierarchies are written 2,2,4 or 2x2x4; orders 0-1-2 or 0,1,2.
`)
}

// emitJSON prints v in the service's canonical wire format, so mrmap
// output diffs cleanly against an mrserved response for the same query.
func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// emitEval answers req in process with the service's own evaluation and
// prints the canonical response.
func emitEval(req mapd.Request) error {
	resp, err := mapd.Eval(context.Background(), req)
	if err != nil {
		return err
	}
	return emitJSON(os.Stdout, resp)
}

func parseInts(s string) ([]int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '-' || r == 'x' || r == ' ' })
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", f, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdDecompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy, e.g. 2,2,4")
	rank := fs.Int("rank", 0, "rank to decompose")
	order := fs.String("order", "", "order sigma for the reordered rank (default identity)")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/map response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		return emitEval(&mapd.MapRequest{Hierarchy: *hier, Order: *order, Rank: rank})
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	c, err := mixedradix.DecomposeChecked(h.Arities(), *rank)
	if err != nil {
		return err
	}
	fmt.Printf("hierarchy %s (levels: %s)\n", h, strings.Join(h.Names(), ", "))
	fmt.Printf("rank %d -> coordinates %v\n", *rank, c)
	return nil
}

func cmdCompose(args []string) error {
	fs := flag.NewFlagSet("compose", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy")
	coords := fs.String("coords", "", "coordinates, e.g. 1,0,2")
	order := fs.String("order", "", "order sigma, e.g. 0-1-2")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/map response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		c, err := parseInts(*coords)
		if err != nil {
			return err
		}
		return emitEval(&mapd.MapRequest{Hierarchy: *hier, Order: *order, Coords: c})
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	c, err := parseInts(*coords)
	if err != nil {
		return err
	}
	sigma, err := perm.Parse(*order)
	if err != nil {
		return err
	}
	r, err := mixedradix.ComposeChecked(h.Arities(), c, sigma)
	if err != nil {
		return err
	}
	fmt.Printf("coordinates %v under order %s -> rank %d\n", c, perm.Format(sigma), r)
	return nil
}

func cmdReorder(args []string) error {
	fs := flag.NewFlagSet("reorder", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy")
	order := fs.String("order", "", "order sigma")
	rankfile := fs.Bool("rankfile", false, "emit an Open MPI-style rankfile instead of the table")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/map table response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		return emitEval(&mapd.MapRequest{Hierarchy: *hier, Order: *order, Table: true})
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	sigma, err := perm.Parse(*order)
	if err != nil {
		return err
	}
	ro, err := reorder.New(h, sigma)
	if err != nil {
		return err
	}
	if *rankfile {
		return ro.Rankfile(os.Stdout)
	}
	fmt.Printf("hierarchy %s, order %s: old rank -> new rank\n", h, perm.Format(sigma))
	for old := 0; old < ro.Size(); old++ {
		fmt.Printf("%4d -> %4d\n", old, ro.NewRank(old))
	}
	return nil
}

func cmdOrders(args []string) error {
	fs := flag.NewFlagSet("orders", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy")
	comm := fs.Int("comm", 0, "subcommunicator size for the metrics (default: innermost level)")
	asJSON := fs.Bool("json", false, "emit canonical /v1/metrics/order responses, one per order")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	if h.Depth() > mapd.MaxDepth {
		return fmt.Errorf("orders: refusing to enumerate %d! orders", h.Depth())
	}
	commSize := *comm
	if commSize == 0 {
		commSize = h.Level(h.Depth() - 1).Arity
	}
	if *asJSON {
		out := make([]any, 0, int(perm.Factorial(h.Depth())))
		for _, sigma := range perm.All(h.Depth()) {
			resp, err := mapd.Eval(context.Background(), &mapd.OrderMetricsRequest{
				Hierarchy: *hier, Order: perm.Format(sigma), CommSize: commSize,
			})
			if err != nil {
				return err
			}
			out = append(out, resp)
		}
		return emitJSON(os.Stdout, out)
	}
	orders := perm.All(h.Depth())
	fmt.Printf("hierarchy %s: %d orders, metrics for the first communicator of %d ranks\n",
		h, len(orders), commSize)
	fmt.Println("order (ring cost - % of process pairs per level)  [slurm --distribution]")
	for _, sigma := range orders {
		ch, err := metrics.Characterize(h, sigma, commSize)
		if err != nil {
			return err
		}
		caption := ""
		if d, ok := slurm.DistributionForOrder(h, sigma); ok {
			caption = "  [" + d.String() + "]"
		}
		fmt.Printf("%s%s\n", ch, caption)
	}
	classes, err := metrics.EquivalenceClasses(h, orders, commSize)
	if err != nil {
		return err
	}
	fmt.Printf("%d equivalence classes:\n", len(classes))
	for i, cls := range classes {
		names := make([]string, len(cls))
		for j, ch := range cls {
			names[j] = perm.Format(ch.Order)
		}
		fmt.Printf("  class %d: %s\n", i, strings.Join(names, " "))
	}
	return nil
}

func cmdMapCPU(args []string) error {
	fs := flag.NewFlagSet("mapcpu", flag.ExitOnError)
	hier := fs.String("h", "", "per-node hierarchy, e.g. 2,4,2,8")
	order := fs.String("order", "", "order sigma")
	n := fs.Int("n", 0, "number of cores to select")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/select response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON {
		return emitEval(&mapd.SelectRequest{Hierarchy: *hier, Order: *order, N: *n})
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	sigma, err := perm.Parse(*order)
	if err != nil {
		return err
	}
	list, err := slurm.MapCPU(h, sigma, *n)
	if err != nil {
		return err
	}
	fmt.Printf("--cpu-bind=%s\n", slurm.FormatMapCPU(list))
	induced, err := slurm.InducedHierarchy(h, list)
	if err == nil {
		fmt.Printf("induced hierarchy of the selection: %v\n", induced)
	} else {
		fmt.Printf("selection is structurally non-uniform: %v\n", err)
	}
	return nil
}

func cmdSlurm(args []string) error {
	fs := flag.NewFlagSet("slurm", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy (level 0 = node, level 1 = socket)")
	order := fs.String("order", "", "order sigma")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := topology.Parse(*hier)
	if err != nil {
		return err
	}
	sigma, err := perm.Parse(*order)
	if err != nil {
		return err
	}
	if d, ok := slurm.DistributionForOrder(h, sigma); ok {
		fmt.Printf("order %s == --distribution=%s\n", perm.Format(sigma), d)
	} else {
		fmt.Printf("order %s cannot be expressed with --distribution\n", perm.Format(sigma))
	}
	return nil
}
