package mixedradix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

// Figure 1: hierarchy ⟦2,2,4⟧, rank 10 is node 1, socket 0, core 2.
func TestDecomposeFigure1(t *testing.T) {
	h := []int{2, 2, 4}
	got := Decompose(h, 10)
	want := []int{1, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decompose(%v, 10) = %v, want %v", h, got, want)
	}
}

func TestDecomposeAllRanksFigure1(t *testing.T) {
	h := []int{2, 2, 4}
	// Expected coordinates for the initial enumeration of Figure 1.
	for r := 0; r < 16; r++ {
		c := Decompose(h, r)
		wantNode := r / 8
		wantSocket := (r / 4) % 2
		wantCore := r % 4
		if c[0] != wantNode || c[1] != wantSocket || c[2] != wantCore {
			t.Errorf("rank %d -> %v, want [%d %d %d]", r, c, wantNode, wantSocket, wantCore)
		}
	}
}

// Table 1 of the paper: rank 10 on ⟦2,2,4⟧ under all six orders.
func TestTable1(t *testing.T) {
	h := []int{2, 2, 4}
	c := Decompose(h, 10)
	rows := []struct {
		order      []int
		permCoords []int
		permHier   []int
		newRank    int
	}{
		{[]int{0, 1, 2}, []int{1, 0, 2}, []int{2, 2, 4}, 9},
		{[]int{0, 2, 1}, []int{1, 2, 0}, []int{2, 4, 2}, 5},
		{[]int{1, 0, 2}, []int{0, 1, 2}, []int{2, 2, 4}, 10},
		{[]int{1, 2, 0}, []int{0, 2, 1}, []int{2, 4, 2}, 12},
		{[]int{2, 0, 1}, []int{2, 1, 0}, []int{4, 2, 2}, 6},
		{[]int{2, 1, 0}, []int{2, 0, 1}, []int{4, 2, 2}, 10},
	}
	for _, row := range rows {
		if got := Compose(h, c, row.order); got != row.newRank {
			t.Errorf("order %v: new rank %d, want %d", row.order, got, row.newRank)
		}
		if got := PermutedCoordinates(c, row.order); !reflect.DeepEqual(got, row.permCoords) {
			t.Errorf("order %v: permuted coords %v, want %v", row.order, got, row.permCoords)
		}
		if got := PermutedHierarchy(h, row.order); !reflect.DeepEqual(got, row.permHier) {
			t.Errorf("order %v: permuted hierarchy %v, want %v", row.order, got, row.permHier)
		}
		if got := NewRank(h, 10, row.order); got != row.newRank {
			t.Errorf("NewRank order %v = %d, want %d", row.order, got, row.newRank)
		}
	}
}

// The order [k-1,…,0] must reproduce the original enumeration (Figure 2f).
func TestIdentityOrder(t *testing.T) {
	h := []int{2, 2, 4}
	id := IdentityOrder(len(h))
	for r := 0; r < Size(h); r++ {
		if got := NewRank(h, r, id); got != r {
			t.Errorf("identity order moved rank %d to %d", r, got)
		}
	}
}

// Figure 2 layouts: reordered rank of each core for every order of ⟦2,2,4⟧.
// The numbers in each subfigure, read core by core in the initial
// enumeration, are exactly Table() of the order.
func TestFigure2Layouts(t *testing.T) {
	h := []int{2, 2, 4}
	want := map[string][]int{
		"0-1-2": {0, 4, 8, 12, 2, 6, 10, 14, 1, 5, 9, 13, 3, 7, 11, 15},
		"0-2-1": {0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15},
		"1-0-2": {0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15},
		"1-2-0": {0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15},
		"2-0-1": {0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15},
		"2-1-0": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	}
	for name, layout := range want {
		sigma, err := perm.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReorderAll(h, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, layout) {
			t.Errorf("order %s layout = %v, want %v", name, got, layout)
		}
	}
}

func TestSize(t *testing.T) {
	cases := []struct {
		h    []int
		want int
	}{
		{[]int{2, 2, 4}, 16},
		{[]int{16, 2, 2, 8}, 512},
		{[]int{16, 2, 4, 2, 8}, 2048},
		{[]int{2}, 2},
	}
	for _, c := range cases {
		if got := Size(c.h); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.h, got, c.want)
		}
	}
}

func TestCheckHierarchy(t *testing.T) {
	if err := CheckHierarchy([]int{2, 2, 4}); err != nil {
		t.Errorf("valid hierarchy rejected: %v", err)
	}
	for _, bad := range [][]int{{}, {1, 2}, {2, 0}, {2, -3}} {
		if err := CheckHierarchy(bad); err == nil {
			t.Errorf("CheckHierarchy(%v) should fail", bad)
		}
	}
}

func TestDecomposeChecked(t *testing.T) {
	if _, err := DecomposeChecked([]int{2, 2}, 4); err == nil {
		t.Error("rank 4 on size-4 hierarchy should fail")
	}
	if _, err := DecomposeChecked([]int{2, 2}, -1); err == nil {
		t.Error("negative rank should fail")
	}
	if _, err := DecomposeChecked([]int{1}, 0); err == nil {
		t.Error("bad hierarchy should fail")
	}
	c, err := DecomposeChecked([]int{2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, []int{1, 2}) {
		t.Errorf("DecomposeChecked = %v", c)
	}
}

func TestComposeChecked(t *testing.T) {
	h := []int{2, 2, 4}
	if _, err := ComposeChecked(h, []int{0, 0, 4}, []int{0, 1, 2}); err == nil {
		t.Error("coordinate out of radix should fail")
	}
	if _, err := ComposeChecked(h, []int{0, 0}, []int{0, 1, 2}); err == nil {
		t.Error("short coordinates should fail")
	}
	if _, err := ComposeChecked(h, []int{0, 0, 0}, []int{0, 0, 2}); err == nil {
		t.Error("invalid order should fail")
	}
	if _, err := ComposeChecked(h, []int{0, 0, 0}, []int{0, 1}); err == nil {
		t.Error("short order should fail")
	}
	r, err := ComposeChecked(h, []int{1, 0, 2}, []int{0, 1, 2})
	if err != nil || r != 9 {
		t.Errorf("ComposeChecked = %d, %v; want 9, nil", r, err)
	}
}

func TestReordererTableAndInverse(t *testing.T) {
	ro, err := NewReorderer([]int{2, 2, 4}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tab := ro.Table()
	inv := ro.InverseTable()
	for old, nw := range tab {
		if inv[nw] != old {
			t.Errorf("inverse table mismatch at old=%d new=%d", old, nw)
		}
	}
	if ro.Size() != 16 {
		t.Errorf("Size = %d", ro.Size())
	}
	if !reflect.DeepEqual(ro.Hierarchy(), []int{2, 2, 4}) {
		t.Error("Hierarchy accessor mismatch")
	}
	if !reflect.DeepEqual(ro.Order(), []int{0, 1, 2}) {
		t.Error("Order accessor mismatch")
	}
}

func TestNewReordererErrors(t *testing.T) {
	if _, err := NewReorderer([]int{1}, []int{0}); err == nil {
		t.Error("bad hierarchy accepted")
	}
	if _, err := NewReorderer([]int{2, 2}, []int{0, 0}); err == nil {
		t.Error("bad order accepted")
	}
	if _, err := NewReorderer([]int{2, 2}, []int{0}); err == nil {
		t.Error("short order accepted")
	}
}

// Property: every order induces a bijection on [0, Size(h)).
func TestReorderBijection(t *testing.T) {
	hierarchies := [][]int{{2, 2, 4}, {3, 2, 2}, {2, 3, 4}, {4, 2, 2, 2}, {2, 2, 2, 2, 2}}
	for _, h := range hierarchies {
		for _, sigma := range perm.All(len(h)) {
			tab, err := ReorderAll(h, sigma)
			if err != nil {
				t.Fatal(err)
			}
			if !perm.IsPermutation(tab) {
				t.Errorf("h=%v sigma=%v: table %v is not a bijection", h, sigma, tab)
			}
		}
	}
}

// Property: Compose with the identity order inverts Decompose for random
// hierarchies and ranks.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(a, b, c uint8) bool {
		h := []int{int(a%5) + 2, int(b%5) + 2, int(c%5) + 2}
		r := rng.Intn(Size(h))
		return Compose(h, Decompose(h, r), IdentityOrder(3)) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ReorderedHierarchy returns the hierarchy of the new enumeration produced
// by sigma, listed outermost (most significant) level first like h itself:
// element j is h[sigma[k-1-j]]. Decomposing a reordered rank against this
// hierarchy yields its coordinates in the new enumeration.
func ReorderedHierarchy(h, sigma []int) []int {
	k := len(h)
	out := make([]int, k)
	for j := 0; j < k; j++ {
		out[j] = h[sigma[k-1-j]]
	}
	return out
}

// UndoOrder returns the order τ that inverts a reordering: reordering h by
// sigma and then reordering ReorderedHierarchy(h, sigma) by τ restores every
// original rank. τ(i) = k-1-σ⁻¹(k-1-i).
func UndoOrder(sigma []int) []int {
	k := len(sigma)
	inv := make([]int, k)
	for i, v := range sigma {
		inv[v] = i
	}
	tau := make([]int, k)
	for i := 0; i < k; i++ {
		tau[i] = k - 1 - inv[k-1-i]
	}
	return tau
}

// Property: UndoOrder inverts a reordering — reordering by sigma, then
// reordering the new enumeration's hierarchy by UndoOrder(sigma), restores
// every rank.
func TestUndoOrder(t *testing.T) {
	for _, h := range [][]int{{2, 3, 4}, {2, 2, 4}, {3, 2, 2, 2}} {
		for _, sigma := range perm.All(len(h)) {
			tab, err := ReorderAll(h, sigma)
			if err != nil {
				t.Fatal(err)
			}
			hp := ReorderedHierarchy(h, sigma)
			tab2, err := ReorderAll(hp, UndoOrder(sigma))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < Size(h); r++ {
				if tab2[tab[r]] != r {
					t.Fatalf("h=%v sigma=%v: tab2[tab[%d]] = %d", h, sigma, r, tab2[tab[r]])
				}
			}
		}
	}
}

// ReorderedHierarchy must be the reverse of PermutedHierarchy, and the
// identity order must leave the hierarchy unchanged.
func TestReorderedHierarchy(t *testing.T) {
	h := []int{2, 3, 4}
	for _, sigma := range perm.All(3) {
		rh := ReorderedHierarchy(h, sigma)
		ph := PermutedHierarchy(h, sigma)
		for i := range rh {
			if rh[i] != ph[len(ph)-1-i] {
				t.Fatalf("sigma=%v: ReorderedHierarchy %v is not reversed PermutedHierarchy %v", sigma, rh, ph)
			}
		}
	}
	if got := ReorderedHierarchy(h, IdentityOrder(3)); !reflect.DeepEqual(got, h) {
		t.Errorf("identity order changed hierarchy: %v", got)
	}
}

func TestDecomposeIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong destination length")
		}
	}()
	DecomposeInto([]int{2, 2}, 0, make([]int, 3))
}

func TestDecomposePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range rank")
		}
	}()
	Decompose([]int{2, 2}, 4)
}

func BenchmarkNewRank(b *testing.B) {
	h := []int{16, 2, 4, 2, 8}
	sigma := []int{3, 2, 1, 4, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRank(h, i%2048, sigma)
	}
}

func BenchmarkReordererTable(b *testing.B) {
	ro, err := NewReorderer([]int{16, 2, 4, 2, 8}, []int{3, 2, 1, 4, 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ro.Table()
	}
}
