// Sequential CP-ALS: the Canonical Polyadic Decomposition computed by
// alternating least squares, exactly the operation the paper benchmarks in
// Splatt (§4.2). The distributed run simulated in package splatt uses the
// same per-iteration structure; this sequential version, with its dense
// matrices, MTTKRP kernel and the tensors it is tested on, verifies the
// numerics.

package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// NormSquared returns the squared Frobenius norm.
func (t *Tensor) NormSquared() float64 {
	var s float64
	for _, v := range t.Vals {
		s += v * v
	}
	return s
}

// Synthetic generates a random sparse tensor with the skewed, hub-heavy
// index distribution typical of FROSTT web/NLP tensors like nell-1: along
// each mode, indices are drawn from a power-law-ish mixture so a few slices
// are dense and most are sparse. Duplicate coordinates are merged by
// summation. The result has at most nnz nonzeros.
func Synthetic(dims [Order]int, nnz int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Coord]float64, nnz)
	// Hubs: a random 5% of each mode's slices carries 30% of the mass.
	// Scattering the hubs (instead of using a hot prefix) mirrors real
	// web/NLP tensors, where hub entities are spread over the index space,
	// and keeps blocked partitions reasonably balanced.
	var hubs [Order][]int32
	for m := 0; m < Order; m++ {
		nh := dims[m] / 20
		if nh < 1 {
			nh = 1
		}
		seenHub := map[int32]bool{}
		for len(hubs[m]) < nh {
			h := int32(rng.Intn(dims[m]))
			if !seenHub[h] {
				seenHub[h] = true
				hubs[m] = append(hubs[m], h)
			}
		}
	}
	draw := func(m int) int32 {
		if rng.Float64() < 0.3 {
			return hubs[m][rng.Intn(len(hubs[m]))]
		}
		return int32(rng.Intn(dims[m]))
	}
	for len(seen) < nnz {
		var c Coord
		for m := 0; m < Order; m++ {
			c[m] = draw(m)
		}
		seen[c] += rng.Float64()*2 - 0.5
	}
	t := &Tensor{Dims: dims}
	t.Inds = make([]Coord, 0, len(seen))
	t.Vals = make([]float64, 0, len(seen))
	for c, v := range seen {
		t.Inds = append(t.Inds, c)
		t.Vals = append(t.Vals, v)
	}
	t.Sort(0)
	return t
}

// FromRankOne builds a dense-as-sparse tensor that is exactly a sum of
// rank-one terms (for CP-ALS convergence tests): entries are
// Σ_r λ_r a[r][i]·b[r][j]·c[r][k] over all (i,j,k).
func FromRankOne(dims [Order]int, lambda []float64, a, b, c [][]float64) *Tensor {
	t := &Tensor{Dims: dims}
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var v float64
				for r := range lambda {
					v += lambda[r] * a[r][i] * b[r][j] * c[r][k]
				}
				if v != 0 {
					t.Inds = append(t.Inds, Coord{int32(i), int32(j), int32(k)})
					t.Vals = append(t.Vals, v)
				}
			}
		}
	}
	return t
}

// Matrix is a dense row-major matrix (rows × cols).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomMatrix returns a matrix with entries uniform in [0, 1) — the usual
// CP-ALS initialization.
func RandomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Gram returns mᵀ·m (Cols × Cols).
func (m *Matrix) Gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.Cols; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			ga := g.Row(a)
			for b := 0; b < m.Cols; b++ {
				ga[b] += va * row[b]
			}
		}
	}
	return g
}

// Hadamard multiplies element-wise in place and returns m.
func (m *Matrix) Hadamard(o *Matrix) *Matrix {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: Hadamard shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] *= o.Data[i]
	}
	return m
}

// MTTKRP computes the matricized-tensor times Khatri-Rao product for the
// given mode: out[i] += val · (f₁[j] ∘ f₂[k]) for every nonzero (i,j,k)
// (indices permuted per mode). out must be Dims[mode] × R; f1, f2 are the
// factor matrices of the other two modes in increasing mode order.
func MTTKRP(t *Tensor, mode int, factors [Order]*Matrix, out *Matrix) {
	if out.Rows != t.Dims[mode] {
		panic(fmt.Sprintf("tensor: MTTKRP out has %d rows, want %d", out.Rows, t.Dims[mode]))
	}
	r := out.Cols
	m1 := (mode + 1) % Order
	m2 := (mode + 2) % Order
	f1, f2 := factors[m1], factors[m2]
	for i := range out.Data {
		out.Data[i] = 0
	}
	for n, c := range t.Inds {
		v := t.Vals[n]
		row := out.Row(int(c[mode]))
		r1 := f1.Row(int(c[m1]))
		r2 := f2.Row(int(c[m2]))
		for q := 0; q < r; q++ {
			row[q] += v * r1[q] * r2[q]
		}
	}
}

// SolveSPD solves G·Xᵀ = Bᵀ for every row of B in place (B ← B·G⁻¹), with
// G an R×R symmetric positive (semi-)definite matrix. Gaussian elimination
// with partial pivoting and Tikhonov fallback for singular G.
func SolveSPD(g *Matrix, b *Matrix) {
	r := g.Rows
	if g.Cols != r || b.Cols != r {
		panic("tensor: SolveSPD shape mismatch")
	}
	// Copy G and factor once; apply to every row of B.
	lu := g.Clone()
	// Small diagonal regularization guards rank-deficient Grams.
	var trace float64
	for i := 0; i < r; i++ {
		trace += lu.At(i, i)
	}
	eps := 1e-12 * (trace + 1)
	for i := 0; i < r; i++ {
		lu.Set(i, i, lu.At(i, i)+eps)
	}
	perm := make([]int, r)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < r; col++ {
		// Pivot.
		best, bestAbs := col, math.Abs(lu.At(col, col))
		for row := col + 1; row < r; row++ {
			if a := math.Abs(lu.At(row, col)); a > bestAbs {
				best, bestAbs = row, a
			}
		}
		if best != col {
			for j := 0; j < r; j++ {
				v1, v2 := lu.At(col, j), lu.At(best, j)
				lu.Set(col, j, v2)
				lu.Set(best, j, v1)
			}
			perm[col], perm[best] = perm[best], perm[col]
		}
		piv := lu.At(col, col)
		if piv == 0 {
			continue
		}
		for row := col + 1; row < r; row++ {
			f := lu.At(row, col) / piv
			lu.Set(row, col, f)
			for j := col + 1; j < r; j++ {
				lu.Set(row, j, lu.At(row, j)-f*lu.At(col, j))
			}
		}
	}
	// Solve for each row of B: y = L⁻¹ P x, z = U⁻¹ y.
	tmp := make([]float64, r)
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		for j := 0; j < r; j++ {
			tmp[j] = row[perm[j]]
		}
		for j := 0; j < r; j++ {
			for k := 0; k < j; k++ {
				tmp[j] -= lu.At(j, k) * tmp[k]
			}
		}
		for j := r - 1; j >= 0; j-- {
			for k := j + 1; k < r; k++ {
				tmp[j] -= lu.At(j, k) * tmp[k]
			}
			if piv := lu.At(j, j); piv != 0 {
				tmp[j] /= piv
			}
		}
		copy(row, tmp)
	}
}

// CPResult is a rank-R decomposition: weights λ and one factor matrix per
// mode (Dims[m] × R).
type CPResult struct {
	Lambda  []float64
	Factors [Order]*Matrix
	Fits    []float64 // fit after each iteration
}

// Fit returns the final fit (1 − relative reconstruction error).
func (c *CPResult) Fit() float64 {
	if len(c.Fits) == 0 {
		return 0
	}
	return c.Fits[len(c.Fits)-1]
}

// CPALSOptions controls the solver.
type CPALSOptions struct {
	Rank     int
	MaxIters int
	Tol      float64 // stop when the fit improves less than Tol
	Seed     int64
}

// CPALS factorizes the tensor with alternating least squares.
func CPALS(t *Tensor, opt CPALSOptions) (*CPResult, error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("tensor: CP rank must be positive")
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 50
	}
	if err := t.Check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	r := opt.Rank
	var factors [Order]*Matrix
	for m := 0; m < Order; m++ {
		factors[m] = RandomMatrix(t.Dims[m], r, rng)
	}
	grams := [Order]*Matrix{}
	for m := 0; m < Order; m++ {
		grams[m] = factors[m].Gram()
	}
	lambda := make([]float64, r)
	normX := math.Sqrt(t.NormSquared())
	if normX == 0 {
		return nil, fmt.Errorf("tensor: zero tensor")
	}
	res := &CPResult{Lambda: lambda, Factors: factors}
	prevFit := 0.0
	mttkrpOut := [Order]*Matrix{}
	for m := 0; m < Order; m++ {
		mttkrpOut[m] = NewMatrix(t.Dims[m], r)
	}
	for it := 0; it < opt.MaxIters; it++ {
		for m := 0; m < Order; m++ {
			MTTKRP(t, m, factors, mttkrpOut[m])
			// G = ∘ of the other modes' Grams.
			g := NewMatrix(r, r)
			for i := range g.Data {
				g.Data[i] = 1
			}
			for o := 0; o < Order; o++ {
				if o != m {
					g.Hadamard(grams[o])
				}
			}
			factors[m] = mttkrpOut[m].Clone()
			SolveSPD(g, factors[m])
			normalizeColumns(factors[m], lambda, it == 0)
			grams[m] = factors[m].Gram()
		}
		fit := cpFit(t, normX, lambda, factors, grams, mttkrpOut[Order-1])
		res.Fits = append(res.Fits, fit)
		if it > 0 && math.Abs(fit-prevFit) < opt.Tol {
			break
		}
		prevFit = fit
	}
	return res, nil
}

// normalizeColumns scales each column to unit norm, accumulating the norms
// into lambda. After the first iteration, columns are normalized by max(1,
// norm) like SPLATT to avoid blowing up tiny columns.
func normalizeColumns(m *Matrix, lambda []float64, firstIter bool) {
	r := m.Cols
	for q := 0; q < r; q++ {
		var norm float64
		for i := 0; i < m.Rows; i++ {
			v := m.At(i, q)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if !firstIter && norm < 1 {
			norm = 1
		}
		lambda[q] = norm
		if norm == 0 {
			continue
		}
		for i := 0; i < m.Rows; i++ {
			m.Set(i, q, m.At(i, q)/norm)
		}
	}
}

// cpFit evaluates the fit 1 − ‖X − X̂‖/‖X‖ with the standard shortcut using
// the last mode's MTTKRP result (computed against the pre-update factors,
// so it recomputes the MTTKRP against the final ones for exactness).
func cpFit(t *Tensor, normX float64, lambda []float64, factors [Order]*Matrix, grams [Order]*Matrix, scratch *Matrix) float64 {
	r := len(lambda)
	// ‖X̂‖² = Σ_{q,s} λ_q λ_s Π_m (A_mᵀA_m)[q,s]
	normEst := 0.0
	prod := NewMatrix(r, r)
	for i := range prod.Data {
		prod.Data[i] = 1
	}
	for m := 0; m < Order; m++ {
		prod.Hadamard(grams[m])
	}
	for q := 0; q < r; q++ {
		for s := 0; s < r; s++ {
			normEst += lambda[q] * lambda[s] * prod.At(q, s)
		}
	}
	// <X, X̂> via a fresh MTTKRP for the last mode.
	last := Order - 1
	MTTKRP(t, last, factors, scratch)
	inner := 0.0
	for i := 0; i < scratch.Rows; i++ {
		mr := scratch.Row(i)
		fr := factors[last].Row(i)
		for q := 0; q < r; q++ {
			inner += lambda[q] * mr[q] * fr[q]
		}
	}
	residual := normX*normX + normEst - 2*inner
	if residual < 0 {
		residual = 0
	}
	return 1 - math.Sqrt(residual)/normX
}
