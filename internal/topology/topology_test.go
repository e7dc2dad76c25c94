package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	h, err := New(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 {
		t.Errorf("Depth = %d", h.Depth())
	}
	if h.Size() != 16 {
		t.Errorf("Size = %d", h.Size())
	}
	if got := h.Arities(); !reflect.DeepEqual(got, []int{2, 2, 4}) {
		t.Errorf("Arities = %v", got)
	}
	if got := h.Names(); !reflect.DeepEqual(got, []string{"node", "socket", "core"}) {
		t.Errorf("Names = %v", got)
	}
	if h.Level(1).Arity != 2 {
		t.Errorf("Level(1) = %+v", h.Level(1))
	}
}

func TestDefaultNamesDeep(t *testing.T) {
	h := MustNew(16, 2, 4, 2, 8) // LUMI shape
	want := []string{"node", "socket", "numa", "l3", "core"}
	if got := h.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	h6 := MustNew(2, 2, 2, 2, 2, 2)
	names := h6.Names()
	if names[5] != "core" || names[4] != "level4" {
		t.Errorf("deep names = %v", names)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := New(2, 1); err == nil {
		t.Error("arity 1 accepted")
	}
	if _, err := NewNamed(Level{Name: "", Arity: 2}); err == nil {
		t.Error("empty name accepted")
	}
	// A product past the int range is an error at every constructor, not a
	// panic in the first Size call downstream.
	half := math.MaxInt / 2
	if _, err := New(half, 3); !errors.Is(err, ErrTooLarge) {
		t.Errorf("New on an overflowing product: %v, want ErrTooLarge", err)
	}
	if _, err := NewNamed(Level{"node", half}, Level{"core", 3}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("NewNamed on an overflowing product: %v, want ErrTooLarge", err)
	}
	for _, s := range []string{fmt.Sprintf("%d,3", half), fmt.Sprintf("node:%d,core:3", half)} {
		if _, err := Parse(s); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Parse(%q): %v, want ErrTooLarge", s, err)
		}
	}
	if h, err := New(half, 2); err != nil || h.Size() != 2*half {
		t.Errorf("New(%d, 2) = %v, %v; the product fits", half, h, err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"2x2x4", []int{2, 2, 4}},
		{"[2, 2, 4]", []int{2, 2, 4}},
		{"2,2,4", []int{2, 2, 4}},
		{"16,2,2,8", []int{16, 2, 2, 8}},
	}
	for _, c := range cases {
		h, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(h.Arities(), c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, h.Arities(), c.want)
		}
	}
}

func TestParseNamed(t *testing.T) {
	h, err := Parse("node:2,socket:2,core:4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Names(), []string{"node", "socket", "core"}) {
		t.Errorf("Names = %v", h.Names())
	}
	if !reflect.DeepEqual(h.Arities(), []int{2, 2, 4}) {
		t.Errorf("Arities = %v", h.Arities())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "[]", "2xax4", "a:b:c", "node:x", "1,2", "2,,"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestString(t *testing.T) {
	h := MustNew(2, 2, 4)
	if got := h.String(); got != "⟦2, 2, 4⟧" {
		t.Errorf("String = %q", got)
	}
}

func TestCoordinatesRankRoundTrip(t *testing.T) {
	h := MustNew(16, 2, 2, 8)
	for r := 0; r < h.Size(); r += 7 {
		c := h.Coordinates(r)
		if got := h.Rank(c); got != r {
			t.Errorf("Rank(Coordinates(%d)) = %d", r, got)
		}
	}
}

func TestFirstDiffLevel(t *testing.T) {
	h := MustNew(2, 2, 4) // Figure 1
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 3}, // same core
		{0, 1, 2}, // same socket, different core
		{0, 4, 1}, // same node, different socket
		{0, 8, 0}, // different node
		{10, 14, 1},
		{10, 11, 2},
		{5, 13, 0},
	}
	for _, c := range cases {
		if got := h.FirstDiffLevel(c.a, c.b); got != c.want {
			t.Errorf("FirstDiffLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := h.FirstDiffLevel(c.b, c.a); got != c.want {
			t.Errorf("FirstDiffLevel(%d, %d) not symmetric", c.b, c.a)
		}
	}
}

func TestCrossCost(t *testing.T) {
	h := MustNew(2, 2, 4)
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1}, // inside lowest level
		{0, 4, 2}, // crosses socket boundary
		{0, 8, 3}, // crosses node boundary
	}
	for _, c := range cases {
		if got := h.CrossCost(c.a, c.b); got != c.want {
			t.Errorf("CrossCost(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// FirstDiffLevel computed by quotients must agree with comparing the
// coordinate vectors directly.
func TestFirstDiffLevelProperty(t *testing.T) {
	h := MustNew(3, 2, 4, 2)
	n := h.Size()
	f := func(x, y uint16) bool {
		a, b := int(x)%n, int(y)%n
		ca, cb := h.Coordinates(a), h.Coordinates(b)
		want := h.Depth()
		for i := range ca {
			if ca[i] != cb[i] {
				want = i
				break
			}
		}
		return h.FirstDiffLevel(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLevelOracleMatchesFirstDiffLevel checks the O(1) label oracle
// against the division loop on every pair of cores of 20 random
// hierarchies up to depth 12 (the serving limit) that mix power-of-two and
// odd arities, and on a sample of the pairs of larger fixed ones.
func TestLevelOracleMatchesFirstDiffLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(h Hierarchy, o *LevelOracle, a, b int) {
		want := h.FirstDiffLevel(a, b)
		if got := o.FirstDiffLevel(a, b); got != want || o.FirstDiffLevel(b, a) != want {
			t.Fatalf("%s: oracle level of (%d, %d) = %d, FirstDiffLevel = %d", h, a, b, got, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		// All twos at a random depth, then random levels widened while
		// the machine stays small enough to try every pair.
		ar := make([]int, 1+trial%12)
		size := 1
		for i := range ar {
			ar[i], size = 2, size*2
		}
		for tries := 0; tries < 2*len(ar); tries++ {
			i, a := rng.Intn(len(ar)), 2+rng.Intn(8)
			if grown := size / ar[i] * a; grown <= 1536 {
				ar[i], size = a, grown
			}
		}
		h := MustNew(ar...)
		o := h.LevelOracle()
		if len(o.Label) != size {
			t.Fatalf("%s: %d labels for %d cores", h, len(o.Label), size)
		}
		for a := 0; a < size; a++ {
			for b := a; b < size; b++ {
				check(h, o, a, b)
			}
		}
	}
	for _, ar := range [][]int{{3, 2, 5, 2, 2, 7, 2, 2, 3, 2, 2, 2}, {1 << 16}, {255, 257}} {
		h := MustNew(ar...)
		o := h.LevelOracle()
		for a := 0; a < h.Size(); a += 1 + rng.Intn(16) {
			check(h, o, a, a)
			check(h, o, a, (a+1)%h.Size())
			for s := 0; s < 16; s++ {
				check(h, o, a, rng.Intn(h.Size()))
			}
		}
	}
}

func TestPrepend(t *testing.T) {
	node := MustNew(2, 4, 2, 8)
	full, err := node.Prepend(Level{Name: "node", Arity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Arities(), []int{16, 2, 4, 2, 8}) {
		t.Errorf("Prepend arities = %v", full.Arities())
	}
	if full.Size() != 2048 {
		t.Errorf("Size = %d", full.Size())
	}
}

func TestSub(t *testing.T) {
	h := MustNew(16, 2, 4, 2, 8)
	s, err := h.Sub(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Arities(), []int{2, 4, 2, 8}) {
		t.Errorf("Sub = %v", s.Arities())
	}
	if _, err := h.Sub(3, 3); err == nil {
		t.Error("empty Sub accepted")
	}
	if _, err := h.Sub(-1, 2); err == nil {
		t.Error("negative Sub accepted")
	}
}

func BenchmarkFirstDiffLevel(b *testing.B) {
	h := MustNew(16, 2, 4, 2, 8)
	n := h.Size()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.FirstDiffLevel(i%n, (i*7+13)%n)
	}
}

// TestSizeCachedByEveryConstructor: Size is computed once, at
// construction, so every path that builds a hierarchy must leave it equal
// to the product of the arities; the zero value is the empty product.
func TestSizeCachedByEveryConstructor(t *testing.T) {
	lumi := MustNew(16, 2, 4, 2, 8)
	build := map[string]func() (Hierarchy, error){
		"New":        func() (Hierarchy, error) { return New(3, 5, 7, 2) },
		"NewNamed":   func() (Hierarchy, error) { return NewNamed(Level{"node", 6}, Level{"core", 9}) },
		"Parse":      func() (Hierarchy, error) { return Parse("2x2x4") },
		"ParseNamed": func() (Hierarchy, error) { return Parse("node:4,socket:2,core:8") },
		"Prepend":    func() (Hierarchy, error) { return lumi.Prepend(Level{"group", 3}) },
		"Sub":        func() (Hierarchy, error) { return lumi.Sub(1, 4) },
	}
	for name, f := range build {
		h, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 1
		for _, a := range h.Arities() {
			want *= a
		}
		if h.Size() != want {
			t.Errorf("%s: %s has Size %d, want %d", name, h, h.Size(), want)
		}
	}
	if got := (Hierarchy{}).Size(); got != 1 {
		t.Errorf("zero Hierarchy has Size %d, want 1", got)
	}
}

// TestSizeAndFirstDiffLevelAllocationFree: both run once per ring edge
// under the §3.3 metrics and must walk the levels in place.
func TestSizeAndFirstDiffLevelAllocationFree(t *testing.T) {
	h := MustNew(16, 2, 4, 2, 8)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += h.Size() + h.FirstDiffLevel(5, 1300) + h.CrossCost(7, 8)
	})
	if allocs != 0 {
		t.Fatalf("Size/FirstDiffLevel/CrossCost allocate %.1f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("unexpected zero")
	}
}
