package mixedradix

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/perm"
)

func wantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

// TestSizeRejectsNonPositiveRadix is the regression test for the silent
// zero: Size([2, 0, 4]) used to return 0 (the overflow guard skipped
// v == 0), after which DecomposeInto divided by zero. Both entry points
// must now reject the radix explicitly.
func TestSizeRejectsNonPositiveRadix(t *testing.T) {
	wantPanic(t, "non-positive size", func() { Size([]int{2, 0, 4}) })
	wantPanic(t, "non-positive size", func() { Size([]int{-3}) })
	wantPanic(t, "non-positive size", func() {
		DecomposeInto([]int{2, 0, 4}, 1, make([]int, 3))
	})
	wantPanic(t, "non-positive size", func() { Decompose([]int{0}, 0) })
	// Size of a valid hierarchy is unchanged.
	if got := Size([]int{2, 2, 4}); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
}

// TestDecomposeIntoRangeChecks: the hot path no longer recomputes Size
// per call, so out-of-range ranks are detected from the leftover
// quotient; the panic must still name the rank and the true range.
func TestDecomposeIntoRangeChecks(t *testing.T) {
	wantPanic(t, "rank 16 out of range [0, 16)", func() {
		DecomposeInto([]int{2, 2, 4}, 16, make([]int, 3))
	})
	wantPanic(t, "rank -1 out of range [0, 16)", func() {
		DecomposeInto([]int{2, 2, 4}, -1, make([]int, 3))
	})
	c := make([]int, 3)
	DecomposeInto([]int{2, 2, 4}, 15, c)
	if !reflect.DeepEqual(c, []int{1, 1, 3}) {
		t.Fatalf("DecomposeInto(15) = %v", c)
	}
}

// TestComposeCheckedWrongLengthOrder is the regression test for the check
// ordering: a wrong-length order like [2, 0] is a valid set of level
// indices for a depth-3 hierarchy but not a permutation of [0, 2), and
// used to be misreported as "not a permutation" instead of wrong length.
func TestComposeCheckedWrongLengthOrder(t *testing.T) {
	_, err := ComposeChecked([]int{2, 2, 4}, []int{0, 0, 0}, []int{2, 0})
	if err == nil {
		t.Fatal("expected error for wrong-length order")
	}
	if !errors.Is(err, ErrBadHierarchy) {
		t.Fatalf("error %v is not ErrBadHierarchy", err)
	}
	want := "order has 2 levels, hierarchy has 3"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the length mismatch %q", err, want)
	}
	// Same for NewReorderer, which shares CheckOrder.
	if _, err := NewReorderer([]int{2, 2, 4}, []int{2, 0}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewReorderer error %v does not report the length mismatch", err)
	}
	// A genuinely invalid permutation of the right length still reports as such.
	if _, err := ComposeChecked([]int{2, 2, 4}, []int{0, 0, 0}, []int{0, 0, 2}); !errors.Is(err, perm.ErrNotPermutation) {
		t.Fatalf("error %v is not ErrNotPermutation", err)
	}
}

// TestTableInto checks the allocation-free odometer path against the
// per-rank NewRank definition, plus the destination-length panics.
func TestTableInto(t *testing.T) {
	for _, tc := range []struct {
		h     []int
		sigma []int
	}{
		{[]int{2, 2, 4}, []int{0, 1, 2}},
		{[]int{2, 2, 4}, []int{2, 1, 0}},
		{[]int{3, 2, 5}, []int{1, 2, 0}},
		{[]int{16, 2, 2, 8}, []int{2, 0, 3, 1}},
		{[]int{7}, []int{0}},
	} {
		ro, err := NewReorderer(tc.h, tc.sigma)
		if err != nil {
			t.Fatal(err)
		}
		n := ro.Size()
		want := make([]int, n)
		for r := 0; r < n; r++ {
			want[r] = ro.NewRank(r)
		}
		got := make([]int, n)
		ro.TableInto(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TableInto(%v, %v) = %v, want %v", tc.h, tc.sigma, got, want)
		}
		if !reflect.DeepEqual(ro.Table(), want) {
			t.Fatalf("Table mismatch for (%v, %v)", tc.h, tc.sigma)
		}
		inv := make([]int, n)
		ro.InverseTableInto(inv)
		for old, nw := range want {
			if inv[nw] != old {
				t.Fatalf("InverseTableInto(%v, %v): inv[%d] = %d, want %d", tc.h, tc.sigma, nw, inv[nw], old)
			}
		}
		if !reflect.DeepEqual(ro.InverseTable(), inv) {
			t.Fatalf("InverseTable mismatch for (%v, %v)", tc.h, tc.sigma)
		}
	}
	ro, err := NewReorderer([]int{2, 2}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantPanic(t, "TableInto destination", func() { ro.TableInto(make([]int, 3)) })
	wantPanic(t, "InverseTableInto destination", func() { ro.InverseTableInto(make([]int, 5)) })
}

// TestFillsAllocationFree: the block odometer keeps its digits on the
// stack and steps the slower ones without storage, so none of the three
// fills allocates, at depth 16 or past it.
func TestFillsAllocationFree(t *testing.T) {
	for _, k := range []int{1, 4, 16, 17} {
		h := make([]int, k)
		for i := range h {
			h[i] = 2
		}
		h[0] = 3
		ro, err := NewReorderer(h, perm.Reversed(k))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, ro.Size())
		for name, fill := range map[string]func(){
			"TableInto":        func() { ro.TableInto(dst) },
			"InverseTableInto": func() { ro.InverseTableInto(dst) },
			"InverseRangeInto": func() { ro.InverseRangeInto(dst[:len(dst)/2], 1) },
		} {
			if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
				t.Errorf("depth %d: %s allocates %.1f times per run, want 0", k, name, allocs)
			}
		}
	}
}

// TestNewRankAllocationFree pins down the point of the precomputed
// weights: repeated NewRank calls must not allocate.
func TestNewRankAllocationFree(t *testing.T) {
	ro, err := NewReorderer([]int{16, 2, 4, 2, 8}, []int{3, 2, 1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for r := 0; r < 64; r++ {
			_ = ro.NewRank(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("NewRank allocates %.1f times per run, want 0", allocs)
	}
}

// TestReordererConcurrent shares one Reorderer between many goroutines.
// The old implementation kept a scratch coordinate slice per Reorderer
// and documented itself "not safe for concurrent use" — nothing stopped
// advisor workers or mapd handlers from sharing one anyway. Run under
// -race (make check does) this test would have caught that design; the
// rewritten Reorderer is immutable and must pass.
func TestReordererConcurrent(t *testing.T) {
	ro, err := NewReorderer([]int{4, 3, 2, 2}, []int{2, 0, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	n := ro.Size()
	want := ro.Table()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]int, n)
			for iter := 0; iter < 50; iter++ {
				switch (g + iter) % 3 {
				case 0:
					for r := 0; r < n; r++ {
						if got := ro.NewRank(r); got != want[r] {
							t.Errorf("NewRank(%d) = %d, want %d", r, got, want[r])
							return
						}
					}
				case 1:
					ro.TableInto(buf)
					if !reflect.DeepEqual(buf, want) {
						t.Error("TableInto diverged under concurrency")
						return
					}
				case 2:
					ro.InverseTableInto(buf)
					for old, nw := range want {
						if buf[nw] != old {
							t.Error("InverseTableInto diverged under concurrency")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// forwardInverse builds inv[new] = old from the point query alone, so the
// range tests below share no code with the odometer they check.
func forwardInverse(ro *Reorderer) []int {
	inv := make([]int, ro.Size())
	for r := range inv {
		inv[ro.NewRank(r)] = r
	}
	return inv
}

// TestInverseRangeInto checks the point-query form of the rankfile view
// against the full table for random (h, σ, first, m), including the empty
// range at either end, and that it stays off the heap.
func TestInverseRangeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(7)
		h := make([]int, k)
		for i := range h {
			h[i] = 2 + rng.Intn(4)
		}
		ro, err := NewReorderer(h, rng.Perm(k))
		if err != nil {
			t.Fatal(err)
		}
		inv := forwardInverse(ro)
		if got := ro.InverseTable(); !reflect.DeepEqual(got, inv) {
			t.Fatalf("h=%v σ=%v: InverseTable %v, want %v", h, ro.Order(), got, inv)
		}
		n := ro.Size()
		for _, r := range [][2]int{{0, 0}, {n, 0}, {0, n}, {n - 1, 1}, {rng.Intn(n), 0}} {
			first, m := r[0], r[1]
			if m == 0 && first < n {
				m = rng.Intn(n - first + 1)
			}
			dst := make([]int, m)
			ro.InverseRangeInto(dst, first)
			if !reflect.DeepEqual(dst, inv[first:first+m]) {
				t.Fatalf("h=%v σ=%v first=%d m=%d: %v, want %v", h, ro.Order(), first, m, dst, inv[first:first+m])
			}
		}
	}

	ro, err := NewReorderer([]int{2, 2, 4}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantPanic(t, "out of range", func() { ro.InverseRangeInto(make([]int, 4), -1) })
	wantPanic(t, "out of range", func() { ro.InverseRangeInto(make([]int, 4), 13) })
	wantPanic(t, "out of range", func() { ro.InverseRangeInto(make([]int, 17), 0) })
	wantPanic(t, "out of range", func() { ro.InverseRangeInto(nil, 17) })
	wantPanic(t, "destination has 4 entries", func() { ro.InverseTableInto(make([]int, 4)) })

	dst := make([]int, 4)
	if allocs := testing.AllocsPerRun(100, func() { ro.InverseRangeInto(dst, 8) }); allocs != 0 {
		t.Fatalf("InverseRangeInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestReordererReset: a reorderer re-targeted at another order answers
// like a fresh one, allocates nothing doing so, and keeps its order when
// the new one is rejected.
func TestReordererReset(t *testing.T) {
	h := []int{3, 2, 4, 2}
	ro, err := NewReorderer(h, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	perm.Visit(len(h), func(sigma []int) bool {
		if err := ro.Reset(sigma); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewReorderer(h, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ro.Table(), fresh.Table()) || !reflect.DeepEqual(ro.InverseTable(), forwardInverse(fresh)) ||
			!reflect.DeepEqual(ro.Order(), sigma) {
			t.Fatalf("σ=%v: reset reorderer differs from a fresh one", sigma)
		}
		return true
	})
	last := ro.Table()
	for _, bad := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 4}} {
		if err := ro.Reset(bad); err == nil {
			t.Fatalf("Reset(%v) accepted", bad)
		}
		if !reflect.DeepEqual(ro.Table(), last) {
			t.Fatalf("Reset(%v) failed but changed the reorderer", bad)
		}
	}
	sigma := []int{2, 0, 3, 1}
	if allocs := testing.AllocsPerRun(100, func() { _ = ro.Reset(sigma) }); allocs != 0 {
		t.Fatalf("Reset allocates %.1f times per run, want 0", allocs)
	}
}
