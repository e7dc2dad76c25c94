package mapd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/perm"
)

// FuzzParseHierOrder drives the hierarchy/order request parser with
// arbitrary inputs across all three request shapes that embed it. The
// parser must never panic — in particular not on non-permutation orders,
// overflow-sized hierarchies, or order/hierarchy depth mismatches — and
// anything it accepts must satisfy the documented invariants.
func FuzzParseHierOrder(f *testing.F) {
	f.Add("2,2,4", "2-1-0", 5)
	f.Add("2x2x4", "0,1,2", 0)
	f.Add("[2, 4, 2, 8]", "", 100)
	f.Add("node:2,socket:2,core:4", "1-0-2", 15)
	f.Add("99999,99999,99999", "0-1-2", 0)                  // overflow-sized
	f.Add("2,2,4", "0-0-2", 1)                              // non-permutation
	f.Add("2,2,4", "0-1", 1)                                // depth mismatch
	f.Add("2,2,4", "0-1-2-3", 1)                            // depth mismatch
	f.Add("-3,5", "0-1", 0)                                 // negative arity
	f.Add("9223372036854775807,9223372036854775807", "", 0) // int64 max arities
	f.Add("2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2", "", 0) // too deep
	f.Add("", "", 0)
	f.Add("x", "-", -1)

	f.Fuzz(func(t *testing.T, hier, order string, rank int) {
		ctx := context.Background()
		ans, err := Eval(ctx, &MapRequest{Hierarchy: hier, Order: order, Rank: &rank})
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("map error does not wrap ErrBadRequest: %v", err)
			}
		} else {
			resp := ans.(*MapResponse)
			size := 1
			for _, a := range resp.Hierarchy {
				if a <= 1 {
					t.Fatalf("accepted arity %d", a)
				}
				size *= a
			}
			if size > MaxCores {
				t.Fatalf("accepted hierarchy of %d cores (limit %d)", size, MaxCores)
			}
			if len(resp.Hierarchy) > MaxDepth {
				t.Fatalf("accepted depth %d (limit %d)", len(resp.Hierarchy), MaxDepth)
			}
			if !perm.IsPermutation(resp.Order) || len(resp.Order) != len(resp.Hierarchy) {
				t.Fatalf("accepted order %v for hierarchy %v", resp.Order, resp.Hierarchy)
			}
			if resp.NewRank == nil || *resp.NewRank < 0 || *resp.NewRank >= size {
				t.Fatalf("new_rank %v outside [0, %d)", resp.NewRank, size)
			}
		}

		// The same parser guards the selection and metrics endpoints;
		// neither may panic on whatever the inputs are.
		for _, req := range []Request{
			&SelectRequest{Hierarchy: hier, Order: order, N: rank},
			&OrderMetricsRequest{Hierarchy: hier, Order: order, CommSize: rank},
		} {
			if _, err := Eval(ctx, req); err != nil && !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%T error does not wrap ErrBadRequest: %v", req, err)
			}
		}
	})
}

// matrixBodySeeds seed both matrix-body fuzzers.
var matrixBodySeeds = []string{
	matrixOverflowBody,
	`{"hierarchy":"2,2,2","matrix":{"ranks":8,"edges":[{"a":0,"b":7,"bytes":8.9e307},{"a":1,"b":6,"bytes":1e-300}]}}`,
	`{"hierarchy":"2x2x2","matrix":{"ranks":8,"edges":[{"a":0,"b":7,"bytes":1000},{"a":7,"b":1,"bytes":900.5},{"a":4,"b":5,"bytes":10}]},"seed":1}`,
	`{"hierarchy":"3,2","matrix":{"ranks":6,"edges":[{"a":5,"b":0,"bytes":3},{"a":0,"b":5,"bytes":3}]}}`,
	`{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"refine":false,"max_rounds":64}`,
	`{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1e999}]}}`,
}

// FuzzMatrixMapBody drives /v1/map/matrix's decoder and parser with
// arbitrary bodies. Whatever parses must be answerable by the full search
// and by the degraded path alike — a finite cost on a bijective placement
// (so the answer encodes as JSON), the search never losing to the σ
// baseline — and everything else must be a bad request, never a panic.
func FuzzMatrixMapBody(f *testing.F) {
	for _, body := range matrixBodySeeds {
		f.Add(body)
	}

	ep, _ := lookupEndpoint("/v1/map/matrix")
	f.Fuzz(func(t *testing.T, body string) {
		q, err := ep.Parse([]byte(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("parse error does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		full, err := q.eval(context.Background())
		if err != nil {
			t.Fatalf("accepted body failed to evaluate: %v", err)
		}
		degraded, err := q.Degraded()
		if err != nil {
			t.Fatalf("accepted body failed to degrade: %v", err)
		}
		for _, ans := range []any{full, degraded} {
			resp := ans.(*MatrixMapResponse)
			if !perm.IsPermutation(resp.Placement) || len(resp.Placement) != resp.Ranks {
				t.Fatalf("placement %v is not a bijection on %d ranks", resp.Placement, resp.Ranks)
			}
			for _, v := range []float64{resp.Cost, resp.GreedyCost, resp.BestOrderCost, resp.ImprovementPct} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite figure in %+v", resp)
				}
			}
			if resp.Cost > resp.BestOrderCost {
				t.Fatalf("cost %g loses to the best order's %g", resp.Cost, resp.BestOrderCost)
			}
		}
	})
}

// deepBodies renders one request body per row of Endpoints() for a
// fuzzed hierarchy: depth 1–12, arities 2–64 (so products run up to and
// far past MaxCores), a permutation of the depth drawn from orderSeed,
// and n/pick choosing ranks, sizes, the advise machine and collective.
func deepBodies(depth uint8, arityBytes []byte, orderSeed int64, n int, pick uint8) map[string][]string {
	k := 1 + int(depth)%MaxDepth
	ar := make([]string, k)
	size := 1
	for i := range ar {
		a := 2
		if len(arityBytes) > 0 {
			a += int(arityBytes[i%len(arityBytes)]) % 63
		}
		ar[i] = strconv.Itoa(a)
		if size <= MaxCores {
			size *= a
		}
	}
	hier := strings.Join(ar, ",")
	sigma := rand.New(rand.NewSource(orderSeed)).Perm(k)
	order := perm.Format(sigma)
	if n < 0 {
		n = -(n + 1)
	}
	small := 2 << (n % 20) // 4 … 2^20: a power of two, the common divisor case
	matrix := `{"ranks":` + strconv.Itoa(size) + `,"edges":[]}`
	if size <= MaxMatrixRanks {
		edges := make([]string, 0, size)
		for r := 0; r+1 < size; r++ {
			edges = append(edges, fmt.Sprintf(`{"a":%d,"b":%d,"bytes":%d}`, r, r+1, 1+(r*n)%1000))
		}
		matrix = `{"ranks":` + strconv.Itoa(size) + `,"edges":[` + strings.Join(edges, ",") + `]}`
	}
	machine := []string{"cloud", "hydra", "hydra-real", "lumi"}[int(pick/3)%4]
	sizing := fmt.Sprintf(`"nodes":%s`, ar[0])
	if machine == "cloud" {
		sizing = fmt.Sprintf(`"depth":%d`, k)
	}
	return map[string][]string{
		"/v1/map": {
			fmt.Sprintf(`{"hierarchy":%q,"order":%q,"table":true}`, hier, order),
			fmt.Sprintf(`{"hierarchy":%q,"order":%q,"rank":%d}`, hier, order, n),
		},
		"/v1/map/matrix": {fmt.Sprintf(`{"hierarchy":%q,"matrix":%s,"seed":%d}`, hier, matrix, orderSeed)},
		"/v1/advise": {fmt.Sprintf(`{"machine":%q,%s,"collective":%q,"comm_size":%d,"simultaneous":%t,"top":%d}`,
			machine, sizing, []string{"alltoall", "allgather", "allreduce"}[int(pick)%3], small, pick&0x80 != 0, 1+n%8)},
		"/v1/select":        {fmt.Sprintf(`{"hierarchy":%q,"order":%q,"n":%d}`, hier, order, 1+n%size)},
		"/v1/metrics/order": {fmt.Sprintf(`{"hierarchy":%q,"order":%q,"comm_size":%d}`, hier, order, small)},
	}
}

// FuzzEndpointDeep drives every row of Endpoints() with deep and wide
// hierarchies: Parse, then the full evaluation, and the σ-order fallback
// of the two searched endpoints. No input may panic; each must end in an
// ErrBadRequest or in an answer that holds its invariants — a /v1/map
// table is a bijection, selected cores are distinct and in range, pairs
// per level sum to 100, and advised orders are permutations of the depth.
func FuzzEndpointDeep(f *testing.F) {
	f.Add(uint8(3), []byte{14, 0, 0, 6}, int64(1), 5, uint8(3))                            // Hydra ⟦16,2,2,8⟧
	f.Add(uint8(4), []byte{14, 0, 2, 0, 6}, int64(2), 63, uint8(9))                        // LUMI ⟦16,2,4,2,8⟧
	f.Add(uint8(11), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, int64(3), 6, uint8(0))    // cloud depth 12
	f.Add(uint8(11), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, int64(4), 4, uint8(0x81)) // cloud depth 12, simultaneous
	f.Add(uint8(11), []byte{62}, int64(5), 19, uint8(2))                                   // 64^12: far past MaxCores
	f.Add(uint8(0), []byte{62}, int64(6), 0, uint8(5))                                     // depth 1

	f.Fuzz(func(t *testing.T, depth uint8, arityBytes []byte, orderSeed int64, n int, pick uint8) {
		bodies := deepBodies(depth, arityBytes, orderSeed, n, pick)
		for _, ep := range Endpoints() {
			for _, body := range bodies[ep.Path] {
				q, err := ep.Parse([]byte(body))
				if err != nil {
					if !errors.Is(err, ErrBadRequest) {
						t.Fatalf("%s: parse error does not wrap ErrBadRequest: %v", ep.Path, err)
					}
					continue
				}
				full, err := q.eval(context.Background())
				if err != nil {
					if !errors.Is(err, ErrBadRequest) {
						t.Fatalf("%s: eval error does not wrap ErrBadRequest: %v", ep.Path, err)
					}
					continue
				}
				checkDeepAnswer(t, body, full)
				if _, ok := q.(searchQuery); !ok {
					continue // the degraded answer is the same evaluation
				}
				degraded, err := q.Degraded()
				if err != nil {
					t.Fatalf("%s: evaluated body failed to degrade: %v", ep.Path, err)
				}
				checkDeepAnswer(t, body, degraded)
			}
		}
	})
}

// checkDeepAnswer holds one answer of FuzzEndpointDeep to its endpoint's
// invariants.
func checkDeepAnswer(t *testing.T, body string, ans any) {
	t.Helper()
	switch r := ans.(type) {
	case *MapResponse:
		size := 1
		for _, a := range r.Hierarchy {
			size *= a
		}
		if r.Table != nil && (len(r.Table) != size || !perm.IsPermutation(r.Table)) {
			t.Fatalf("%s: table of %d entries is not a bijection on %d cores", body, len(r.Table), size)
		}
		if r.NewRank != nil && (*r.NewRank < 0 || *r.NewRank >= size) {
			t.Fatalf("%s: new_rank %d outside [0, %d)", body, *r.NewRank, size)
		}
	case *MatrixMapResponse:
		if !perm.IsPermutation(r.Placement) || len(r.Placement) != r.Ranks {
			t.Fatalf("%s: placement is not a bijection on %d ranks", body, r.Ranks)
		}
	case *AdviseResponse:
		if len(r.Best) == 0 {
			t.Fatalf("%s: no advised order", body)
		}
		for _, p := range append(r.Best, r.Worst) {
			if len(p.Order) != len(r.Hierarchy) || !perm.IsPermutation(p.Order) {
				t.Fatalf("%s: advised order %v is not a permutation of depth %d", body, p.Order, len(r.Hierarchy))
			}
		}
	case *SelectResponse:
		size := 1
		for _, a := range r.Hierarchy {
			size *= a
		}
		seen := make(map[int]bool, len(r.MapCPU))
		for _, c := range r.MapCPU {
			if c < 0 || c >= size || seen[c] {
				t.Fatalf("%s: selected core %d repeated or outside [0, %d)", body, c, size)
			}
			seen[c] = true
		}
		if len(r.MapCPU) != r.N {
			t.Fatalf("%s: selected %d cores, want %d", body, len(r.MapCPU), r.N)
		}
	case *OrderMetricsResponse:
		var sum float64
		for _, p := range r.PairsPerLevel {
			sum += p
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Fatalf("%s: pairs per level sum to %g, want 100", body, sum)
		}
	default:
		t.Fatalf("%s: unexpected answer %T", body, ans)
	}
}
