// Package mat implements the small dense linear-algebra kernel that the
// Gaussian-process layer is built on: column-major-free dense matrices,
// Cholesky factorization of symmetric positive-definite matrices, and
// triangular solves. It is deliberately minimal — exactly what GP regression
// at n <= a few hundred needs — and uses only the standard library.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Reset reshapes m in place to r x c over data (row-major, length r*c)
// without allocating, so pooled workspaces can re-dress their backing
// arrays as matrices of varying shape.
func (m *Dense) Reset(r, c int, data []float64) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	m.rows, m.cols, m.data = r, c, data
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.cols; j++ {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// MulVec returns a*x for a vector x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: mulvec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTVecTo computes dst = aᵀ x without allocating: dst[j] = Σ_i a[i][j]·x[i],
// accumulated over rows in ascending order. For each column j this performs
// exactly the multiply-add sequence Dot(col_j, x) would, so batching a block
// of column vectors through one call is bit-identical to per-vector Dot.
func MulTVecTo(dst []float64, a *Dense, x []float64) {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: multvec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	if a.cols != len(dst) {
		panic(fmt.Sprintf("mat: multvec output length %d != %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	w8 := 0
	if simdOn {
		w8 = a.cols &^ 7
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		row := a.Row(i)
		if w8 > 0 {
			axpyRow(&dst[0], &row[0], xi, w8)
		}
		for j := w8; j < len(row); j++ {
			dst[j] += xi * row[j]
		}
	}
}

// ColDotsTo fills dst[j] with the squared Euclidean norm of column j of a,
// accumulated over rows in ascending order — per column, the exact op
// sequence of Dot(col_j, col_j).
func ColDotsTo(dst []float64, a *Dense) {
	if a.cols != len(dst) {
		panic(fmt.Sprintf("mat: coldots output length %d != %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	w8 := 0
	if simdOn {
		w8 = a.cols &^ 7
	}
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		if w8 > 0 {
			sqAccumRow(&dst[0], &row[0], w8)
		}
		for j := w8; j < len(row); j++ {
			dst[j] += row[j] * row[j]
		}
	}
}

// SqDistColsTo fills s[j] with the scaled squared distance between the point
// x and column j of xt — a len(x) x len(s) matrix holding one candidate per
// column: s[j] = Σ_d ((x[d]−xt[d][j])²)·inv, accumulating over d in
// ascending order with per-element op order subtract, square, scale, add.
// This is the isotropic-kernel distance loop vectorized over candidates;
// per column it carries the same bits as the point-wise scalar loop (the
// candidate-minus-point sign flip vanishes under squaring).
func SqDistColsTo(s []float64, x []float64, xt *Dense, inv float64) {
	if xt.rows != len(x) || xt.cols != len(s) {
		panic(fmt.Sprintf("mat: sqdist dimension mismatch %dx%d vs %d, %d",
			xt.rows, xt.cols, len(x), len(s)))
	}
	if len(x) == 0 {
		for j := range s {
			s[j] = 0
		}
		return
	}
	w := len(s)
	w8 := 0
	if simdOn {
		w8 = w &^ 7
	}
	if w8 > 0 {
		sqDistRow(&s[0], &x[0], &xt.data[0], xt.rows, xt.cols, w8, inv)
	}
	// Tail columns (all of them when the batch is narrower than a vector):
	// column-outer, one register accumulator each, same op order.
	for j := w8; j < w; j++ {
		acc := 0.0
		for d, xd := range x {
			diff := xd - xt.data[d*xt.cols+j]
			acc += diff * diff * inv
		}
		s[j] = acc
	}
}

// SqrtScaleTo fills r[j] = sqrt(c·s[j]) — one rounded multiply, one rounded
// square root per element, matching math.Sqrt(c*s[j]) bit for bit. r may
// alias s.
func SqrtScaleTo(r, s []float64, c float64) {
	if len(r) != len(s) {
		panic(fmt.Sprintf("mat: sqrtscale length mismatch %d != %d", len(r), len(s)))
	}
	w8 := 0
	if simdOn {
		w8 = len(s) &^ 7
	}
	if w8 > 0 {
		sqrtScaleRow(&r[0], &s[0], c, w8)
	}
	for j := w8; j < len(s); j++ {
		r[j] = math.Sqrt(c * s[j])
	}
}

// Transpose returns the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L Lᵀ.
// L is stored packed row-major (row i holds its i+1 entries at offset
// i(i+1)/2), so appending one row/column to A extends the factor with an
// amortized slice append instead of a full matrix reallocation — the basis
// of the O(n²) incremental update used by the GP layer.
type Cholesky struct {
	n int
	d []float64 // packed lower-triangular rows
}

// row returns packed row i (entries L[i][0..i]).
func (c *Cholesky) row(i int) []float64 {
	o := i * (i + 1) / 2
	return c.d[o : o+i+1]
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It returns an error if a is not (numerically) positive definite.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor (re)factors c for the SPD matrix a, reusing the packed storage when
// it has capacity — repeated refactors at the same size allocate nothing.
// On error the factor is left empty.
func (c *Cholesky) Factor(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	size := n * (n + 1) / 2
	if cap(c.d) < size {
		c.d = make([]float64, size)
	} else {
		c.d = c.d[:size]
	}
	c.n = n
	for j := 0; j < n; j++ {
		rowj := c.row(j)
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			c.n, c.d = 0, c.d[:0]
			return fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		rowj[j] = ljj
		for i := j + 1; i < n; i++ {
			rowi := c.row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			rowi[j] = s / ljj
		}
	}
	return nil
}

// Append extends the factorization of the n×n matrix A to the bordered
// (n+1)×(n+1) matrix [[A, a], [aᵀ, α]] in O(n²): row holds the n
// cross-entries a followed by the new diagonal α (noise/jitter included).
// The new factor row is the forward solve L y = a with diagonal
// √(α − yᵀy) — element for element the same arithmetic, in the same order,
// as a full refactor would perform, so an appended factor is bit-identical
// to a from-scratch one. If the bordered matrix is not numerically positive
// definite, Append returns an error and leaves the factor unchanged.
func (c *Cholesky) Append(row []float64) error {
	if len(row) != c.n+1 {
		return fmt.Errorf("mat: append row length %d != %d", len(row), c.n+1)
	}
	n := c.n
	o := len(c.d)
	c.d = append(c.d, row...)
	y := c.d[o : o+n+1]
	d := y[n]
	for i := 0; i < n; i++ {
		s := y[i]
		ri := c.row(i)
		for k := 0; k < i; k++ {
			s -= ri[k] * y[k]
		}
		y[i] = s / ri[i]
		d -= y[i] * y[i]
	}
	if d <= 0 || math.IsNaN(d) {
		c.d = c.d[:o]
		return fmt.Errorf("mat: appended matrix not positive definite (d=%g)", d)
	}
	y[n] = math.Sqrt(d)
	c.n = n + 1
	return nil
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }

// Reset empties the factorization while keeping the packed storage, so a
// caller can regrow a factor with Append (or Factor at any size up to the
// retained capacity) without reallocating.
func (c *Cholesky) Reset() {
	c.n = 0
	c.d = c.d[:0]
}

// Reserve grows the packed storage to hold an n×n factor, preserving the
// current factorization. After Reserve(n), Append calls up to dimension n
// (and Factor calls up to size n) allocate nothing — the companion of Reset
// for allocation-free incremental growth loops.
func (c *Cholesky) Reserve(n int) {
	size := n * (n + 1) / 2
	if cap(c.d) < size {
		d := make([]float64, len(c.d), size)
		copy(d, c.d)
		c.d = d
	}
}

// L returns the lower-triangular factor as a dense matrix (freshly
// allocated; mutating it does not affect the factorization).
func (c *Cholesky) L() *Dense {
	l := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(l.Row(i)[:i+1], c.row(i))
	}
	return l
}

// SolveVec solves A x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveVecTo(x, b)
	return x
}

// SolveVecTo solves A x = b into dst without allocating. dst may alias b.
func (c *Cholesky) SolveVecTo(dst, b []float64) {
	c.SolveLowerVecTo(dst, b)
	c.solveUpperInPlace(dst)
}

// SolveLowerVec solves L y = b by forward substitution.
func (c *Cholesky) SolveLowerVec(b []float64) []float64 {
	y := make([]float64, c.n)
	c.SolveLowerVecTo(y, b)
	return y
}

// SolveLowerVecTo solves L y = b into dst without allocating. dst may alias
// b (entry i is consumed before it is overwritten).
func (c *Cholesky) SolveLowerVecTo(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic("mat: solve dimension mismatch")
	}
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := c.row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// solveBatchCols is the column-block width of SolveLowerBatchTo: wide enough
// to amortize the per-row factor loads over many right-hand sides, narrow
// enough that the active dst rows of a block stay cache-resident.
const solveBatchCols = 128

// SolveLowerBatchTo solves L Y = B for every column of B by blocked forward
// substitution: B and dst are n x m matrices whose m columns are independent
// right-hand sides. dst may alias b (entry rows are consumed before they are
// overwritten, as in SolveLowerVecTo); otherwise b is left untouched.
//
// Columns never interact: for each column j the subtraction order over k and
// the final division are exactly those of SolveLowerVecTo, so the batched
// solve is bit-identical to m per-vector solves. The batching win is purely
// mechanical — each packed factor row is loaded once per column block instead
// of once per right-hand side, and the inner loop runs over independent
// columns instead of a loop-carried dependency chain.
func (c *Cholesky) SolveLowerBatchTo(dst, b *Dense) {
	if b.rows != c.n || dst.rows != c.n || b.cols != dst.cols {
		panic("mat: batch solve dimension mismatch")
	}
	if dst != b {
		copy(dst.data, b.data)
	}
	m := dst.cols
	for lo := 0; lo < m; lo += solveBatchCols {
		hi := lo + solveBatchCols
		if hi > m {
			hi = m
		}
		w := hi - lo
		w8 := 0
		if simdOn {
			w8 = w &^ 7
		}
		if w8 > 0 {
			for i := 0; i < c.n; i++ {
				row := c.row(i)
				// Vector columns: one row of forward substitution across
				// w8 right-hand sides, accumulators held in registers.
				fwdSubRow(&dst.data[i*dst.cols+lo], &row[0], &dst.data[lo], i, dst.cols, w8, row[i])
			}
		}
		// Tail columns (all of them when the block is narrower than a
		// vector, as in local search): column-outer forward substitution
		// with SolveLowerVecTo's exact op order over the strided columns,
		// up to four columns per pass so their dependency chains overlap.
		j := lo + w8
		for ; j+4 <= hi; j += 4 {
			c.solveLowerCols4(dst.data[j:], dst.cols)
		}
		if j+2 <= hi {
			c.solveLowerCols2(dst.data[j:], dst.cols)
			j += 2
		}
		if j < hi {
			c.solveLowerCol(dst.data[j:], dst.cols)
		}
	}
}

// solveLowerCol forward-substitutes one right-hand side stored with the
// given stride (y[i*stride] is entry i) in place: per entry, subtract
// L[i][k]·y[k] for ascending k, then divide by L[i][i] — SolveLowerVecTo's
// op order, so a strided column solves bit-identically to a contiguous one.
func (c *Cholesky) solveLowerCol(y []float64, stride int) {
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		s := y[i*stride]
		for k, lik := range row[:i] {
			s -= lik * y[k*stride]
		}
		y[i*stride] = s / row[i]
	}
}

// solveLowerCols2 is solveLowerCol for two adjacent columns (y[i*stride]
// and y[i*stride+1]) solved together: one register accumulator per column,
// each with solveLowerCol's op order.
func (c *Cholesky) solveLowerCols2(y []float64, stride int) {
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		yi := y[i*stride : i*stride+2]
		s0, s1 := yi[0], yi[1]
		for k, lik := range row[:i] {
			yk := y[k*stride : k*stride+2]
			s0 -= lik * yk[0]
			s1 -= lik * yk[1]
		}
		lii := row[i]
		yi[0], yi[1] = s0/lii, s1/lii
	}
}

// solveLowerCols4 is solveLowerCols2 for four adjacent columns.
func (c *Cholesky) solveLowerCols4(y []float64, stride int) {
	for i := 0; i < c.n; i++ {
		row := c.row(i)
		yi := y[i*stride : i*stride+4]
		s0, s1, s2, s3 := yi[0], yi[1], yi[2], yi[3]
		for k, lik := range row[:i] {
			yk := y[k*stride : k*stride+4]
			s0 -= lik * yk[0]
			s1 -= lik * yk[1]
			s2 -= lik * yk[2]
			s3 -= lik * yk[3]
		}
		lii := row[i]
		yi[0], yi[1], yi[2], yi[3] = s0/lii, s1/lii, s2/lii, s3/lii
	}
}

// SolveUpperVec solves Lᵀ x = y by back substitution.
func (c *Cholesky) SolveUpperVec(y []float64) []float64 {
	x := make([]float64, c.n)
	copy(x, y)
	c.solveUpperInPlace(x)
	return x
}

// solveUpperInPlace solves Lᵀ x = x by back substitution in place.
func (c *Cholesky) solveUpperInPlace(x []float64) {
	if len(x) != c.n {
		panic("mat: solve dimension mismatch")
	}
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.d[k*(k+1)/2+i] * x[k]
		}
		x[i] = s / c.d[i*(i+1)/2+i]
	}
}

// LogDet returns log|A| = 2 * sum(log L_ii).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.d[i*(i+1)/2+i])
	}
	return 2 * s
}

// Inverse returns A⁻¹ (used for leave-one-out GP formulas, where the full
// inverse diagonal and rows are needed).
func (c *Cholesky) Inverse() *Dense {
	inv := NewDense(c.n, c.n)
	e := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := c.SolveVec(e)
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}
