// Package commmatrix implements the complementary mapping approach the
// paper's related work describes (§2): "provide the communication matrix
// of a program and the description of the system to a process mapping
// tool, which will return a process mapping minimizing communication
// costs … Communication matrices can help to determine a better mapping,
// while our technique can help to set up this mapping."
//
// The package provides:
//   - Matrix: a symmetric communication-volume matrix with recording
//     helpers (a simulated run builds one from its obs scope's p2p
//     instants);
//   - Sparse: its canonical, content-addressable JSON wire format.
//
// The mapping tool itself — the best mixed-radix order for a matrix, the
// greedy construction and its refinement — is internal/procmap.
package commmatrix

// Matrix is a symmetric process-communication matrix: entry (i, j) is the
// traffic volume in bytes between ranks i and j.
type Matrix struct {
	n   int
	vol []float64
}

// New returns an n×n zero matrix.
func New(n int) *Matrix {
	if n <= 0 {
		panic("commmatrix: non-positive size")
	}
	return &Matrix{n: n, vol: make([]float64, n*n)}
}

// Size returns the number of ranks.
func (m *Matrix) Size() int { return m.n }

// Add records bytes of traffic between ranks a and b (both directions).
func (m *Matrix) Add(a, b int, bytes float64) {
	if a == b {
		return
	}
	m.vol[a*m.n+b] += bytes
	m.vol[b*m.n+a] += bytes
}

// At returns the volume between two ranks.
func (m *Matrix) At(a, b int) float64 { return m.vol[a*m.n+b] }

// Total returns the total volume (each unordered pair counted once).
func (m *Matrix) Total() float64 {
	var s float64
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			s += m.vol[i*m.n+j]
		}
	}
	return s
}
