package commmatrix

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSparseRoundTrip(t *testing.T) {
	m := New(8)
	m.Add(0, 5, 100)
	m.Add(1, 2, 50)
	m.Add(7, 3, 25.5)

	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Matrix
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Size() != 8 {
		t.Fatalf("size = %d, want 8", got.Size())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestSparseCanonicalForm(t *testing.T) {
	m := New(4)
	m.Add(3, 1, 10)
	m.Add(0, 2, 5)
	s := m.Sparse()
	if len(s.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(s.Edges))
	}
	// Sorted by (a, b) with a < b.
	if s.Edges[0] != (Edge{A: 0, B: 2, Bytes: 5}) || s.Edges[1] != (Edge{A: 1, B: 3, Bytes: 10}) {
		t.Fatalf("non-canonical edges: %+v", s.Edges)
	}
}

func TestSparseValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Sparse
		want string // substring of the error
	}{
		{"zero ranks", Sparse{Ranks: 0}, "non-positive rank count"},
		{"negative ranks", Sparse{Ranks: -4}, "non-positive rank count"},
		{"out of range", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 4, Bytes: 1}}}, "out of range"},
		{"negative rank", Sparse{Ranks: 4, Edges: []Edge{{A: -1, B: 2, Bytes: 1}}}, "out of range"},
		{"self edge", Sparse{Ranks: 4, Edges: []Edge{{A: 2, B: 2, Bytes: 1}}}, "self-edge"},
		{"nan", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: math.NaN()}}}, "non-finite"},
		{"inf", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: math.Inf(1)}}}, "non-finite"},
		{"zero volume", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: 0}}}, "non-positive volume"},
		{"negative volume", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: -3}}}, "non-positive volume"},
		{"duplicate", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: 1}, {A: 0, B: 1, Bytes: 2}}}, "duplicate"},
		{"mirrored duplicate", Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: 1}, {A: 1, B: 0, Bytes: 2}}}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.s.Canonical()
			if err == nil {
				t.Fatalf("Canonical accepted %+v", tc.s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := FromSparse(tc.s); err == nil {
				t.Fatalf("FromSparse accepted %+v", tc.s)
			}
		})
	}
}

func TestSparseUnmarshalRejectsUnknownFields(t *testing.T) {
	var m Matrix
	err := json.Unmarshal([]byte(`{"ranks":2,"edges":[],"bogus":1}`), &m)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestSparseAcceptsNonCanonicalInput(t *testing.T) {
	// Reversed orientation and unsorted edges are valid input; only
	// duplicates are ambiguous.
	s := Sparse{Ranks: 4, Edges: []Edge{{A: 3, B: 0, Bytes: 7}, {A: 2, B: 1, Bytes: 5}}}
	m, err := FromSparse(s)
	if err != nil {
		t.Fatalf("FromSparse: %v", err)
	}
	if m.At(0, 3) != 7 || m.At(3, 0) != 7 || m.At(1, 2) != 5 {
		t.Fatalf("volumes not symmetric: %g %g %g", m.At(0, 3), m.At(3, 0), m.At(1, 2))
	}
}

func TestSparseDigestStable(t *testing.T) {
	a := Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: 10}, {A: 2, B: 3, Bytes: 20}}}
	// Same traffic, scrambled orientation and order.
	b := Sparse{Ranks: 4, Edges: []Edge{{A: 3, B: 2, Bytes: 20}, {A: 1, B: 0, Bytes: 10}}}
	if a.Digest() != b.Digest() {
		t.Fatal("digests differ for identical traffic")
	}
	c := Sparse{Ranks: 4, Edges: []Edge{{A: 0, B: 1, Bytes: 10}, {A: 2, B: 3, Bytes: 21}}}
	if a.Digest() == c.Digest() {
		t.Fatal("digest collision for different volumes")
	}
	d := Sparse{Ranks: 5, Edges: a.Edges}
	if a.Digest() == d.Digest() {
		t.Fatal("digest ignores rank count")
	}
}

// FuzzSparseRoundTrip drives random edge lists through the wire format:
// anything Canonical accepts must survive Marshal → Unmarshal bit-exactly
// and keep its digest; anything it rejects must also be rejected by
// FromSparse.
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(int64(1), 8, 12)
	f.Add(int64(2), 1, 0)
	f.Add(int64(3), 64, 200)
	f.Fuzz(func(t *testing.T, seed int64, ranks, edges int) {
		if ranks < 1 || ranks > 256 || edges < 0 || edges > 1024 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := Sparse{Ranks: ranks}
		for i := 0; i < edges; i++ {
			e := Edge{A: rng.Intn(ranks), B: rng.Intn(ranks), Bytes: rng.Float64() * 1e9}
			if rng.Intn(10) == 0 {
				e.Bytes = 0 // sometimes invalid
			}
			s.Edges = append(s.Edges, e)
		}
		m, err := FromSparse(s)
		if err != nil {
			if _, cerr := s.Canonical(); cerr == nil {
				t.Fatalf("FromSparse rejected what Canonical accepted: %v", err)
			}
			return
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Matrix
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal of own output: %v\n%s", err, b)
		}
		if got.Size() != m.Size() {
			t.Fatalf("size %d → %d", m.Size(), got.Size())
		}
		for i := 0; i < m.Size(); i++ {
			for j := 0; j < m.Size(); j++ {
				if got.At(i, j) != m.At(i, j) {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, got.At(i, j), m.At(i, j))
				}
			}
		}
		if got.Sparse().Digest() != m.Sparse().Digest() {
			t.Fatal("digest changed across round-trip")
		}
	})
}
