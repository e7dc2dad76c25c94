// The sparse JSON wire format of a communication matrix. The collector,
// the mapd endpoint, and the CLI all exchange the same canonical form:
// upper-triangle edges (a < b), sorted, strictly positive finite volumes,
// no self-edges. Canonicalization makes the encoding content-addressable —
// Digest is a stable cache key for "this traffic on this machine".

package commmatrix

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// Edge is one undirected traffic entry of the sparse wire format.
type Edge struct {
	// A and B are the endpoint ranks; canonical form has A < B.
	A int `json:"a"`
	B int `json:"b"`
	// Bytes is the traffic volume between the two ranks (both directions
	// summed). Must be finite and strictly positive.
	Bytes float64 `json:"bytes"`
}

// Sparse is the JSON wire format of a Matrix: the rank count plus the
// nonzero upper-triangle edges.
type Sparse struct {
	Ranks int    `json:"ranks"`
	Edges []Edge `json:"edges"`
}

// Sparse returns the canonical sparse form of the matrix: one edge per
// nonzero unordered pair, endpoints ordered a < b, edges sorted by (a, b).
func (m *Matrix) Sparse() Sparse {
	s := Sparse{Ranks: m.n}
	nnz := 0
	for i := 0; i < m.n; i++ {
		for _, v := range m.vol[i*m.n+i+1 : (i+1)*m.n] {
			if v != 0 {
				nnz++
			}
		}
	}
	if nnz > 0 {
		s.Edges = make([]Edge, 0, nnz)
	}
	for i := 0; i < m.n; i++ {
		for j, v := range m.vol[i*m.n+i+1 : (i+1)*m.n] {
			if v != 0 {
				s.Edges = append(s.Edges, Edge{A: i, B: i + 1 + j, Bytes: v})
			}
		}
	}
	return s
}

// Canonical validates the sparse form and returns it in canonical order
// (a < b within each edge, edges sorted by (a, b)). Valid means a positive
// rank count, endpoint ranks in range, no self-edges, no pair listed twice
// (in either orientation) and finite positive volumes. It is the one pass
// a request pays before its digest, its Matrix and its mapping are all
// derived from the result. Input already in canonical order is returned
// as is, sharing s.Edges.
func (s Sparse) Canonical() (Sparse, error) {
	if s.Ranks <= 0 {
		return Sparse{}, fmt.Errorf("commmatrix: non-positive rank count %d", s.Ranks)
	}
	for i, e := range s.Edges {
		if e.A < 0 || e.A >= s.Ranks || e.B < 0 || e.B >= s.Ranks {
			return Sparse{}, fmt.Errorf("commmatrix: edge %d (%d,%d) out of range for %d ranks", i, e.A, e.B, s.Ranks)
		}
		if e.A == e.B {
			return Sparse{}, fmt.Errorf("commmatrix: edge %d is a self-edge on rank %d", i, e.A)
		}
		if math.IsNaN(e.Bytes) || math.IsInf(e.Bytes, 0) {
			return Sparse{}, fmt.Errorf("commmatrix: edge %d (%d,%d) has non-finite volume", i, e.A, e.B)
		}
		if e.Bytes <= 0 {
			return Sparse{}, fmt.Errorf("commmatrix: edge %d (%d,%d) has non-positive volume %g", i, e.A, e.B, e.Bytes)
		}
	}
	edges := s.canonical()
	// A pair listed twice — even once per orientation — would make the
	// symmetric reconstruction ambiguous, so it is rejected rather than
	// summed. Sorted, the two listings are adjacent.
	for i := 1; i < len(edges); i++ {
		if edges[i].A == edges[i-1].A && edges[i].B == edges[i-1].B {
			return Sparse{}, fmt.Errorf("commmatrix: duplicate edge (%d,%d)", edges[i].A, edges[i].B)
		}
	}
	return Sparse{Ranks: s.Ranks, Edges: edges}, nil
}

// FromSparse validates the sparse form and expands it into a Matrix.
func FromSparse(s Sparse) (*Matrix, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	m := New(c.Ranks)
	for _, e := range c.Edges {
		m.Add(e.A, e.B, e.Bytes)
	}
	return m, nil
}

// compareEdges orders edges by (a, b).
func compareEdges(x, y Edge) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// canonical returns the edges in canonical order (a < b within each edge,
// edges ordered by (a, b)) without mutating the receiver: s.Edges itself
// when it already is in that order, a sorted copy otherwise.
func (s Sparse) canonical() []Edge {
	flipped := func(e Edge) bool { return e.B < e.A }
	if !slices.ContainsFunc(s.Edges, flipped) && slices.IsSortedFunc(s.Edges, compareEdges) {
		return s.Edges
	}
	edges := make([]Edge, len(s.Edges))
	for i, e := range s.Edges {
		if e.B < e.A {
			e.A, e.B = e.B, e.A
		}
		edges[i] = e
	}
	slices.SortFunc(edges, compareEdges)
	return edges
}

// Digest returns a stable content digest of the matrix described by the
// sparse form: the SHA-256 of the canonical (ranks, sorted edges) byte
// encoding. Two Sparse values describing the same traffic — regardless of
// edge order or endpoint orientation — share a digest.
func (s Sparse) Digest() string {
	h := sha256.New()
	// The encoding reaches the hash 64 edges (24 bytes each) at a time.
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 24*64), uint64(s.Ranks))
	for _, e := range s.canonical() {
		if len(buf)+24 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.B))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Bytes))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// MarshalJSON encodes the matrix in the canonical sparse wire format.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Sparse())
}

// UnmarshalJSON decodes the sparse wire format, rejecting unknown fields
// and anything Canonical rejects, and expands it into the receiver.
func (m *Matrix) UnmarshalJSON(data []byte) error {
	var s Sparse
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("commmatrix: decoding sparse matrix: %w", err)
	}
	dm, err := FromSparse(s)
	if err != nil {
		return err
	}
	*m = *dm
	return nil
}
