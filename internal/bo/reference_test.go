package bo

import (
	"math/rand"

	"repro/internal/rng"
)

// referenceOptimizeAcq is the point-wise, start-by-start acquisition
// maximizer the batched lockstep OptimizeAcqBatch must reproduce bit for
// bit: the same probe draws (candidate major, dimension minor, affinely
// mapped into cfg.Bounds), incumbents clamped into the box, first-index
// top-LocalStarts selection, then each start refined to completion on its
// own partitioned stream before the next one begins. Sequential and
// unbatched on purpose — it is the specification, not a fast path.
func referenceOptimizeAcq(f func([]float64) float64, dim int, cfg OptimizerConfig, incumbents [][]float64, r *rand.Rand) []float64 {
	box := cfg.Bounds
	var xs [][]float64
	for i := 0; i < cfg.RandomCandidates; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		xs = append(xs, x)
	}
	if box != nil {
		for _, x := range xs {
			for d := range x {
				x[d] = box.Lo[d] + x[d]*(box.Hi[d]-box.Lo[d])
			}
		}
	}
	for _, inc := range incumbents {
		x := append([]float64(nil), inc...)
		if box != nil {
			box.Clamp(x)
		}
		xs = append(xs, x)
	}
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	starts := min(max(cfg.LocalStarts, 1), len(xs))
	for s := 0; s < starts; s++ {
		bi := s
		for j := s + 1; j < len(xs); j++ {
			if vals[j] > vals[bi] {
				bi = j
			}
		}
		xs[s], xs[bi] = xs[bi], xs[s]
		vals[s], vals[bi] = vals[bi], vals[s]
	}
	best, bestV := xs[0], vals[0]
	for s, sr := range rng.Partition(r, starts) {
		cur, curV := append([]float64(nil), xs[s]...), vals[s]
		step := cfg.StepScale
		for it := 0; it < cfg.LocalSteps; it++ {
			cand := make([]float64, dim)
			for d := range cand {
				cand[d] = clamp01(cur[d] + step*sr.NormFloat64())
			}
			if box != nil {
				box.Clamp(cand)
			}
			if v := f(cand); v > curV {
				cur, curV = cand, v
			} else {
				step *= 0.9
			}
		}
		if curV > bestV {
			best, bestV = cur, curV
		}
	}
	return best
}
