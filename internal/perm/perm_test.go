package perm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// Inverse returns q with q[p[i]] = i. Applying p then Inverse(p) as index
// maps yields the identity. Inverse panics if p is not a permutation.
func Inverse(p []int) []int {
	if !IsPermutation(p) {
		panic(ErrNotPermutation)
	}
	q := make([]int, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

func TestIdentity(t *testing.T) {
	got := Identity(4)
	want := []int{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Identity(4) = %v, want %v", got, want)
	}
	if len(Identity(0)) != 0 {
		t.Errorf("Identity(0) not empty")
	}
}

func TestReversed(t *testing.T) {
	got := Reversed(4)
	want := []int{3, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reversed(4) = %v, want %v", got, want)
	}
}

func TestIsPermutation(t *testing.T) {
	cases := []struct {
		p    []int
		want bool
	}{
		{[]int{0}, true},
		{[]int{0, 1, 2}, true},
		{[]int{2, 0, 1}, true},
		{[]int{}, true},
		{[]int{1}, false},
		{[]int{0, 0}, false},
		{[]int{0, 2}, false},
		{[]int{-1, 0}, false},
		{[]int{3, 1, 0, 2}, true},
	}
	for _, c := range cases {
		if got := IsPermutation(c.p); got != c.want {
			t.Errorf("IsPermutation(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	if err := Check([]int{0, 1, 2}); err != nil {
		t.Errorf("Check(valid) = %v", err)
	}
	if err := Check([]int{0, 0, 1}); err == nil {
		t.Error("Check with duplicate should fail")
	}
	if err := Check([]int{0, 5}); err == nil {
		t.Error("Check with out-of-range should fail")
	}
}

func TestInverse(t *testing.T) {
	p := []int{2, 0, 3, 1}
	inv := Inverse(p)
	want := []int{1, 3, 0, 2}
	if !reflect.DeepEqual(inv, want) {
		t.Errorf("Inverse(%v) = %v, want %v", p, inv, want)
	}
	if !Equal(Compose(p, inv), Identity(4)) {
		t.Errorf("p ∘ p⁻¹ != id")
	}
	if !Equal(Compose(inv, p), Identity(4)) {
		t.Errorf("p⁻¹ ∘ p != id")
	}
}

func TestInversePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inverse of non-permutation should panic")
		}
	}()
	Inverse([]int{0, 0})
}

func TestCompose(t *testing.T) {
	p := []int{1, 2, 0}
	q := []int{2, 1, 0}
	// r[i] = p[q[i]]
	want := []int{0, 2, 1}
	if got := Compose(p, q); !reflect.DeepEqual(got, want) {
		t.Errorf("Compose(%v, %v) = %v, want %v", p, q, got, want)
	}
}

func TestApply(t *testing.T) {
	s := []string{"a", "b", "c", "d"}
	p := []int{3, 1, 0, 2}
	got := Apply(p, s)
	want := []string{"d", "b", "a", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply(%v, %v) = %v, want %v", p, s, got, want)
	}
}

func TestFactorial(t *testing.T) {
	cases := []struct {
		k    int
		want int64
	}{{0, 1}, {1, 1}, {2, 2}, {3, 6}, {4, 24}, {5, 120}, {6, 720}, {10, 3628800}}
	for _, c := range cases {
		if got := Factorial(c.k); got != c.want {
			t.Errorf("Factorial(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestAllCountsAndDistinct(t *testing.T) {
	for k := 0; k <= 7; k++ {
		ps := All(k)
		if int64(len(ps)) != Factorial(k) {
			t.Fatalf("All(%d) returned %d permutations, want %d", k, len(ps), Factorial(k))
		}
		seen := make(map[string]bool, len(ps))
		for _, p := range ps {
			if !IsPermutation(p) {
				t.Fatalf("All(%d) produced non-permutation %v", k, p)
			}
			key := Format(p)
			if seen[key] {
				t.Fatalf("All(%d) produced duplicate %v", k, p)
			}
			seen[key] = true
		}
	}
}

// TestAll: All hands out Visit's permutations in Heap order, each capped
// at k, so an append to one cannot clobber the next.
func TestAll(t *testing.T) {
	for k := 1; k <= 6; k++ {
		orders := All(k)
		i := 0
		Visit(k, func(p []int) bool {
			if !Equal(orders[i], p) || cap(orders[i]) != k {
				t.Fatalf("All(%d)[%d] = %v with cap %d, want Visit's %v with cap %d", k, i, orders[i], cap(orders[i]), p, k)
			}
			i++
			return true
		})
		if i != len(orders) {
			t.Fatalf("All(%d) has %d orders, Visit %d", k, len(orders), i)
		}
		last := slices.Clone(orders[len(orders)-1])
		for _, o := range orders[:len(orders)-1] {
			_ = append(o, k)
		}
		if !Equal(orders[len(orders)-1], last) {
			t.Fatalf("All(%d): appending to the orders changed the last to %v", k, orders[len(orders)-1])
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	n := 0
	Visit(5, func(p []int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("Visit stopped after %d permutations, want 10", n)
	}
}

func TestVisitZero(t *testing.T) {
	n := 0
	Visit(0, func(p []int) bool {
		if len(p) != 0 {
			t.Errorf("Visit(0) yielded %v", p)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("Visit(0) yielded %d permutations, want 1", n)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for r := int64(0); r < Factorial(k); r++ {
			p := Unrank(k, r)
			if got := Rank(p); got != r {
				t.Fatalf("Rank(Unrank(%d, %d)) = %d", k, r, got)
			}
		}
	}
}

func TestRankLexicographic(t *testing.T) {
	// Unrank(k, 0) must be the identity; Unrank(k, k!-1) the reversal.
	for k := 1; k <= 6; k++ {
		if !Equal(Unrank(k, 0), Identity(k)) {
			t.Errorf("Unrank(%d, 0) != identity", k)
		}
		if !Equal(Unrank(k, Factorial(k)-1), Reversed(k)) {
			t.Errorf("Unrank(%d, %d!) != reversal", k, k)
		}
	}
}

func TestFormatParse(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"2-1-0-3", []int{2, 1, 0, 3}},
		{"[2, 1, 0, 3]", []int{2, 1, 0, 3}},
		{"2,1,0,3", []int{2, 1, 0, 3}},
		{"0", []int{0}},
		{"[0,1,2]", []int{0, 1, 2}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "0-0", "1-2", "0-2", "[]"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, p := range All(4) {
		got, err := Parse(Format(p))
		if err != nil {
			t.Fatalf("Parse(Format(%v)): %v", p, err)
		}
		if !Equal(got, p) {
			t.Fatalf("round trip %v -> %q -> %v", p, Format(p), got)
		}
	}
}

// Property: Inverse is an involution and Compose(p, Inverse(p)) == id.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		k := int(seed%8) + 1
		if k < 0 {
			k = -k + 1
		}
		p := rng.Perm(k)
		return Equal(Inverse(Inverse(p)), p) &&
			Equal(Compose(p, Inverse(p)), Identity(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Rank/Unrank are inverse for random permutations.
func TestRankUnrankProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x uint8) bool {
		k := int(x%7) + 1
		p := rng.Perm(k)
		return Equal(Unrank(k, Rank(p)), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAll4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		All(4)
	}
}

func BenchmarkVisit6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 0
		Visit(6, func(p []int) bool { n++; return true })
		if n != 720 {
			b.Fatal("bad count")
		}
	}
}

// Rank returns the lexicographic rank of permutation p among all
// permutations of its length, in [0, k!), the inverse of Unrank that the
// tests check it against. It panics if p is invalid.
func Rank(p []int) int64 {
	if !IsPermutation(p) {
		panic(ErrNotPermutation)
	}
	k := len(p)
	var r int64
	for i := 0; i < k; i++ {
		smaller := 0
		for j := i + 1; j < k; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		r += int64(smaller) * Factorial(k-1-i)
	}
	return r
}
