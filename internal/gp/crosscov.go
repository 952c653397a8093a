package gp

import (
	"math"
	"sync"

	"repro/internal/mat"
)

// crossScratch is the pooled workspace of one fast cross-covariance pass:
// the dim x m transposed candidate block (one candidate per column, so the
// distance pass streams contiguous rows) plus the per-training-row distance
// and radius arrays. Pooled package-wide; concurrent callers each take their
// own.
type crossScratch struct {
	xtdata []float64
	xt     mat.Dense
	s, r   []float64
}

var crossPool = sync.Pool{New: func() any { return &crossScratch{} }}

func getCrossScratch(dim, m int) *crossScratch {
	cs := crossPool.Get().(*crossScratch)
	if cap(cs.xtdata) < dim*m {
		cs.xtdata = make([]float64, dim*m)
	}
	if cap(cs.s) < m {
		cs.s = make([]float64, m)
		cs.r = make([]float64, m)
	}
	cs.xt.Reset(dim, m, cs.xtdata[:dim*m])
	cs.s, cs.r = cs.s[:m], cs.r[:m]
	return cs
}

// transpose lays the candidate batch out one candidate per column.
// Candidates longer than dim are truncated, matching EvalRow's b[:len(x)].
func (cs *crossScratch) transpose(X [][]float64, dim, m int) {
	for j, xj := range X {
		xj = xj[:dim]
		for d := 0; d < dim; d++ {
			cs.xtdata[d*m+j] = xj[d]
		}
	}
}

// narrowCols is the candidate count below which the fast cross-covariance
// passes skip the transpose and loop candidate by candidate: a batch that
// narrow fills no vector lane, and local search scores a handful of
// candidates per call.
const narrowCols = 8

// narrowSqDists fills dst[i][j] with the scaled squared distance between
// training point xs[i] and candidate X[j] — mat.SqDistColsTo's per-column
// arithmetic (Σ_d ((x[d]−c[d])²)·inv over ascending d: sub, square, scale,
// add) with each candidate read contiguously. Candidates go four, then two,
// then one at a time, one accumulator each, so their addition chains
// overlap. The kernel pass
// then runs over the whole block, so its exp calls are independent of one
// another and overlap in the pipeline as they do on the wide path.
func narrowSqDists(dst *mat.Dense, xs, X [][]float64, inv float64) {
	dim := len(xs[0])
	for i, xi := range xs {
		xi = xi[:dim]
		row := dst.Row(i)
		j := 0
		for ; j+4 <= len(X); j += 4 {
			c0, c1, c2, c3 := X[j][:dim], X[j+1][:dim], X[j+2][:dim], X[j+3][:dim]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for d, xd := range xi {
				d0, d1, d2, d3 := xd-c0[d], xd-c1[d], xd-c2[d], xd-c3[d]
				s0 += d0 * d0 * inv
				s1 += d1 * d1 * inv
				s2 += d2 * d2 * inv
				s3 += d3 * d3 * inv
			}
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
		}
		for ; j+2 <= len(X); j += 2 {
			c0, c1 := X[j][:dim], X[j+1][:dim]
			s0, s1 := 0.0, 0.0
			for d, xd := range xi {
				d0, d1 := xd-c0[d], xd-c1[d]
				s0 += d0 * d0 * inv
				s1 += d1 * d1 * inv
			}
			row[j], row[j+1] = s0, s1
		}
		if j < len(X) {
			c := X[j][:dim]
			s := 0.0
			for d, xd := range xi {
				diff := xd - c[d]
				s += diff * diff * inv
			}
			row[j] = s
		}
	}
}

// crossCovMatern52Iso fills dst[i][j] = k(xs[i], X[j]) for an isotropic
// Matérn-5/2 kernel — the production configuration (NewMatern52, and
// hyperparameter search preserves the parameter count). Per training row it
// replays exactly EvalRow's op sequence, split into array passes: the scaled
// squared distance (sub, square, scale by the hoisted 1/(l·l), add over
// ascending dimensions), then r = sqrt(5·s), then the output expression
// v·(1+r+5·s/3)·exp(−r). The distance and sqrt passes vectorize over
// candidates (see mat.SqDistColsTo/SqrtScaleTo for the lane-wise bit-identity
// argument); the exp pass stays scalar because math.Exp must keep its exact
// bits. Every entry therefore matches Eval(xs[i], X[j]) bit for bit.
func crossCovMatern52Iso(dst *mat.Dense, xs, X [][]float64, k *Matern52) {
	dim, m := len(xs[0]), len(X)
	v := k.Variance
	inv := 1 / (k.LengthScales[0] * k.LengthScales[0])
	if m < narrowCols {
		narrowSqDists(dst, xs, X, inv)
		for i := range xs {
			row := dst.Row(i)
			for j, s := range row {
				r := math.Sqrt(5 * s)
				row[j] = v * (1 + r + 5*s/3) * math.Exp(-r)
			}
		}
		return
	}
	cs := getCrossScratch(dim, m)
	cs.transpose(X, dim, m)
	for i, xi := range xs {
		row := dst.Row(i)
		mat.SqDistColsTo(cs.s, xi[:dim], &cs.xt, inv)
		mat.SqrtScaleTo(cs.r, cs.s, 5)
		for j := 0; j < m; j++ {
			r := cs.r[j]
			row[j] = v * (1 + r + 5*cs.s[j]/3) * math.Exp(-r)
		}
	}
	crossPool.Put(cs)
}

// crossCovRBFIso is crossCovMatern52Iso for the isotropic RBF kernel:
// distance pass, then v·exp(−0.5·s) per candidate.
func crossCovRBFIso(dst *mat.Dense, xs, X [][]float64, k *RBF) {
	dim, m := len(xs[0]), len(X)
	v := k.Variance
	inv := 1 / (k.LengthScales[0] * k.LengthScales[0])
	if m < narrowCols {
		narrowSqDists(dst, xs, X, inv)
		for i := range xs {
			row := dst.Row(i)
			for j, s := range row {
				row[j] = v * math.Exp(-0.5*s)
			}
		}
		return
	}
	cs := getCrossScratch(dim, m)
	cs.transpose(X, dim, m)
	for i, xi := range xs {
		row := dst.Row(i)
		mat.SqDistColsTo(cs.s, xi[:dim], &cs.xt, inv)
		for j := 0; j < m; j++ {
			row[j] = v * math.Exp(-0.5*cs.s[j])
		}
	}
	crossPool.Put(cs)
}
