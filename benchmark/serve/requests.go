package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// kind says which check an answer gets after the window.
type kind int

const (
	kindMapRank kind = iota
	kindMapTable
	kindSelect
	kindMetrics
	kindAdvise
	kindMatrix
)

// variant is one request shape. body renders the request for a number u
// that makes its cache key unique: two ops of a variant with different u
// never share a key, and the cost of the request does not depend on u.
type variant struct {
	name  string
	path  string
	kind  kind
	ranks int // cores the hierarchy enumerates (table, select and matrix checks)
	body  func(u int64) []byte
}

// orders5 lists the 120 orders of a depth-5 hierarchy in the service's
// "a-b-c-d-e" notation, in lexicographic order.
var orders5 = allOrders(5)

func allOrders(k int) []string {
	var out []string
	var rec func(prefix []int, used int)
	rec = func(prefix []int, used int) {
		if len(prefix) == k {
			parts := make([]string, k)
			for i, x := range prefix {
				parts[i] = strconv.Itoa(x)
			}
			out = append(out, strings.Join(parts, "-"))
			return
		}
		for x := 0; x < k; x++ {
			if used&(1<<x) == 0 {
				rec(append(prefix, x), used|1<<x)
			}
		}
	}
	rec(nil, 0)
	return out
}

// adviseBytes maps u into [256 MiB, 768 MiB): every advise there is
// bandwidth-bound on all the machines used, so neither the search cost
// nor the winning order depends on u (regen checks the latter).
func adviseBytes(u int64) int64 { return 256<<20 + u%(512<<20) }

func advise(name, machine string, sizeArg string, coll string, comm int, simultaneous bool) variant {
	return variant{name: name, path: "/v1/advise", kind: kindAdvise, body: func(u int64) []byte {
		sim := ""
		if simultaneous {
			sim = `,"simultaneous":true`
		}
		return []byte(fmt.Sprintf(`{"machine":%q,%s,"collective":%q,"comm_size":%d%s,"bytes":%d}`,
			machine, sizeArg, coll, comm, sim, adviseBytes(u)))
	}}
}

func cloudAdvise(depth int, coll string, comm int, simultaneous bool) variant {
	name := fmt.Sprintf("advise-cloud%d-%s-c%d", depth, coll, comm)
	if simultaneous {
		name += "-sim"
	}
	return advise(name, "cloud", fmt.Sprintf(`"depth":%d`, depth), coll, comm, simultaneous)
}

func nodesAdvise(machine string, coll string, comm int, simultaneous bool) variant {
	name := fmt.Sprintf("advise-%s16-%s-c%d", machine, coll, comm)
	if simultaneous {
		name += "-sim"
	}
	return advise(name, machine, `"nodes":16`, coll, comm, simultaneous)
}

// mapTable asks for the full rank table of ⟦a,2,4,2,8⟧ under one of the
// 120 orders, a in [8, 40): 3840 distinct keys of 1024 to 5000 ranks.
// The outer arity moves fastest so that consecutive ops differ in size
// and any run of 32 covers every size once.
func mapTable() variant {
	return variant{name: "map-table", path: "/v1/map", kind: kindMapTable, body: func(u int64) []byte {
		a := 8 + u%32
		return []byte(fmt.Sprintf(`{"hierarchy":"%d,2,4,2,8","order":%q,"table":true}`, a, orders5[u/32%120]))
	}}
}

// mapRank asks for one rank of ⟦16,2,4,2,8⟧ (2048 cores).
func mapRank() variant {
	return variant{name: "map-rank", path: "/v1/map", kind: kindMapRank, ranks: 2048, body: func(u int64) []byte {
		return []byte(fmt.Sprintf(`{"hierarchy":"16,2,4,2,8","order":%q,"rank":%d}`, orders5[u/2048%120], u%2048))
	}}
}

// selectCores asks for n of the 512 cores of ⟦4,2,4,2,8⟧.
func selectCores() variant {
	return variant{name: "select", path: "/v1/select", kind: kindSelect, ranks: 512, body: func(u int64) []byte {
		return []byte(fmt.Sprintf(`{"hierarchy":"4,2,4,2,8","order":%q,"n":%d}`, orders5[u/512%120], 1+u%512))
	}}
}

// orderMetrics asks for the characterization of an order of ⟦4,2,4,2,8⟧.
func orderMetrics() variant {
	return variant{name: "metrics-order", path: "/v1/metrics/order", kind: kindMetrics, body: func(u int64) []byte {
		return []byte(fmt.Sprintf(`{"hierarchy":"4,2,4,2,8","order":%q,"comm_size":%d}`, orders5[u/511%120], 2+u%511))
	}}
}

// matrixMap asks for a matrix-aware placement; the refinement seed is
// part of the cache key and does not change the cost class.
func matrixMap(name, hierarchy string, ranks int, matrix string) variant {
	return variant{name: name, path: "/v1/map/matrix", kind: kindMatrix, ranks: ranks, body: func(u int64) []byte {
		return []byte(fmt.Sprintf(`{"hierarchy":%q,"seed":%d,"matrix":%s}`, hierarchy, u, matrix))
	}}
}

type edge struct{ a, b int }

// sparseJSON renders the service's sparse matrix wire format: the edges
// of the upper triangle, each once, in (a, b) order.
func sparseJSON(ranks int, weight func(a, b int) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"ranks":%d,"edges":[`, ranks)
	first := true
	for x := 0; x < ranks; x++ {
		for y := x + 1; y < ranks; y++ {
			if w := weight(x, y); w > 0 {
				if !first {
					b.WriteByte(',')
				}
				first = false
				fmt.Fprintf(&b, `{"a":%d,"b":%d,"bytes":%g}`, x, y, w)
			}
		}
	}
	b.WriteString("]}")
	return b.String()
}

// haloMatrix is a periodic 2D halo exchange on a rows×cols process grid:
// every rank exchanges 1 KiB with its four neighbours.
func haloMatrix(rows, cols int) string {
	links := map[edge]bool{}
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		links[edge{a, b}] = true
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			link(r*cols+c, r*cols+(c+1)%cols)
			link(r*cols+c, (r+1)%rows*cols+c)
		}
	}
	return sparseJSON(rows*cols, func(a, b int) float64 {
		if links[edge{a, b}] {
			return 1024
		}
		return 0
	})
}

// layersMatrix is the layer-collective traffic of a 4×4×4 process grid
// with a hub middle mode: ranks sharing a coordinate exchange 10, 1000
// or 10 bytes depending on which coordinate it is.
func layersMatrix() string {
	coord := func(r int) [3]int { return [3]int{r / 16, r / 4 % 4, r % 4} }
	mode := [3]float64{10, 1000, 10}
	return sparseJSON(64, func(a, b int) float64 {
		ca, cb := coord(a), coord(b)
		var w float64
		for m := 0; m < 3; m++ {
			if ca[m] == cb[m] {
				w += mode[m]
			}
		}
		return w
	})
}
