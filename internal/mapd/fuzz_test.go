package mapd

import (
	"context"
	"errors"
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
		ans, err := Eval(ctx, &MapRequest{Hierarchy: hier, Order: order, Rank: &rank}, AdviseOptions{})
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
			if _, err := Eval(ctx, req, AdviseOptions{}); err != nil && !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%T error does not wrap ErrBadRequest: %v", req, err)
			}
		}
	})
}
