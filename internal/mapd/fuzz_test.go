package mapd

import (
	"context"
	"errors"
	"math"
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
