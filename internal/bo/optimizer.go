package bo

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// BatchAcqFunc is an acquisition function over the normalized space [0,1]^m,
// to be maximized, scored a block of candidates at a time: it writes
// out[j] = f(X[j]). Every candidate's score must be independent of the
// others in its block (so any partition into blocks gives the same bits),
// and the function must be safe for concurrent calls on disjoint blocks —
// CEIBatch over any BatchSurrogate satisfies both, and so does Pointwise.
type BatchAcqFunc func(X [][]float64, out []float64)

// Pointwise adapts a point-wise acquisition function to a BatchAcqFunc by
// scoring each candidate in turn. f must be safe for concurrent calls.
func Pointwise(f func(x []float64) float64) BatchAcqFunc {
	return func(X [][]float64, out []float64) {
		for j, x := range X {
			out[j] = f(x)
		}
	}
}

// DefaultBatchBlock is the candidate-block width of the batched probe phase:
// large enough to amortize cross-covariance and solve setup per block, small
// enough that per-block workspaces (a few n x block matrices) stay
// cache-resident at mid-session history sizes.
const DefaultBatchBlock = 64

// Box is an axis-aligned search region inside the normalized [0,1]^m space —
// the trust region a drift-aware session clamps exploration to. Lo and Hi
// are per-dimension bounds with Lo[d] <= Hi[d].
type Box struct {
	Lo, Hi []float64
}

// Clamp projects x into the box in place and returns it.
func (b *Box) Clamp(x []float64) []float64 {
	for d := range x {
		if x[d] < b.Lo[d] {
			x[d] = b.Lo[d]
		} else if x[d] > b.Hi[d] {
			x[d] = b.Hi[d]
		}
	}
	return x
}

// Contains reports whether x lies inside the box within tolerance eps.
func (b *Box) Contains(x []float64, eps float64) bool {
	for d := range x {
		if x[d] < b.Lo[d]-eps || x[d] > b.Hi[d]+eps {
			return false
		}
	}
	return true
}

// OptimizerConfig controls acquisition maximization.
type OptimizerConfig struct {
	// RandomCandidates is the number of uniform random probes.
	RandomCandidates int
	// LocalStarts is the number of best probes refined by local search.
	LocalStarts int
	// LocalSteps is the number of coordinate-perturbation rounds per start.
	LocalSteps int
	// StepScale is the initial perturbation magnitude (fraction of range).
	StepScale float64
	// BatchBlock is the candidate-block width of the random-probe phase
	// (0 selects DefaultBatchBlock). Block partitioning is purely
	// mechanical: candidates never interact, so any width yields the same
	// recommendation.
	BatchBlock int
	// Bounds restricts the whole search — random probes, incumbent start
	// points and local refinement — to an axis-aligned box within [0,1]^m
	// (the trust region of a drift-aware session). Nil searches the full
	// cube. The seeded stream is consumed identically either way: probes
	// are drawn uniformly and affinely mapped into the box, so a full-cube
	// box is bit-identical to no box at all.
	Bounds *Box
	// Recorder receives a per-optimization span (nil records nothing).
	// Telemetry only — the recommendation never depends on it.
	Recorder obs.Recorder
}

// DefaultOptimizerConfig returns settings balancing quality and cost for the
// dimensionalities in this repository (2-20 knobs).
func DefaultOptimizerConfig() OptimizerConfig {
	return OptimizerConfig{RandomCandidates: 512, LocalStarts: 5, LocalSteps: 40, StepScale: 0.1}
}

// OptimizeAcqBatch maximizes acq over [0,1]^dim with random sampling
// followed by a shrinking random local search from the best candidates.
// incumbents, if non-nil, are extra start points (e.g. previously evaluated
// configurations) included among the probes, which helps exploitation near
// known-good regions.
//
// Both phases score through acq in blocks and fan out deterministically.
// All probe coordinates are pre-drawn from the seeded stream in index order;
// the probes are then block-partitioned (cfg.BatchBlock per block) and the
// blocks scored across par workers. Local search steps every start in
// lockstep: each start draws its perturbation from its own sub-stream
// (partitioned from the seeded stream in start order, consumed exactly as a
// start-by-start search would), and each step's candidates — one per start
// — are scored with one acq call per worker group. Blocks write disjoint
// result ranges, reductions are index-ordered with first-index tie-breaks,
// and a conforming acq scores every candidate independently of its block,
// so the recommendation is bit-identical at any GOMAXPROCS and any block
// width.
func OptimizeAcqBatch(acq BatchAcqFunc, dim int, cfg OptimizerConfig, incumbents [][]float64, r *rand.Rand) []float64 {
	rec := obs.OrNop(cfg.Recorder)
	var sp obs.Span
	if rec.Enabled() {
		sp = rec.Span("bo.optimize_acq",
			obs.Int("dim", dim),
			obs.Int("candidates", cfg.RandomCandidates),
			obs.Int("incumbents", len(incumbents)),
			obs.Int("starts", cfg.LocalStarts))
		defer sp.End()
	}
	// All probe (and incumbent) coordinates live in one contiguous backing
	// array — one allocation instead of one per candidate, and cache-dense
	// input for the batched cross-covariance pass. Draw order (candidate
	// major, dimension minor) matches a per-candidate loop, so the seeded
	// stream is consumed identically.
	box := cfg.Bounds
	if box != nil && (len(box.Lo) != dim || len(box.Hi) != dim) {
		panic("bo: OptimizerConfig.Bounds dimension mismatch")
	}
	total := cfg.RandomCandidates + len(incumbents)
	coords := make([]float64, total*dim)
	for i := 0; i < cfg.RandomCandidates*dim; i++ {
		coords[i] = r.Float64()
	}
	if box != nil {
		// Affine map of the uniform draws into the box. With the full cube
		// this is u*1.0 + 0 = u, so Bounds == [0,1]^m is bit-identical to
		// Bounds == nil.
		for i := 0; i < cfg.RandomCandidates; i++ {
			row := coords[i*dim : (i+1)*dim]
			for d := 0; d < dim; d++ {
				row[d] = box.Lo[d] + row[d]*(box.Hi[d]-box.Lo[d])
			}
		}
	}
	xs := make([][]float64, 0, total)
	for i := 0; i < cfg.RandomCandidates; i++ {
		xs = append(xs, coords[i*dim:(i+1)*dim:(i+1)*dim])
	}
	for k, inc := range incumbents {
		row := coords[(cfg.RandomCandidates+k)*dim : (cfg.RandomCandidates+k+1)*dim : (cfg.RandomCandidates+k+1)*dim]
		copy(row, inc)
		if box != nil {
			box.Clamp(row)
		}
		xs = append(xs, row)
	}
	if len(xs) == 0 {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		if box != nil {
			for d := range x {
				x[d] = box.Lo[d] + x[d]*(box.Hi[d]-box.Lo[d])
			}
		}
		return x
	}
	vals := make([]float64, len(xs))
	tScore := time.Now()
	block := cfg.BatchBlock
	if block <= 0 {
		block = DefaultBatchBlock
	}
	nb := scoreBlocks(acq, xs, vals, block)
	if sp != nil {
		sp.SetAttrs(obs.Int("batch_block", block), obs.Int("batch_blocks", nb))
		if el := time.Since(tScore).Seconds(); el > 0 {
			sp.SetAttrs(obs.Float("probe_score_ms", el*1e3),
				obs.Float("probes_per_sec", float64(len(xs))/el))
		}
	}

	// Partial selection of the top LocalStarts probes (first index wins
	// ties, matching a sequential scan).
	starts := cfg.LocalStarts
	if starts < 1 {
		starts = 1
	}
	if starts > len(xs) {
		starts = len(xs)
	}
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

	// Refine the selected starts in lockstep, one pre-seeded stream each.
	// cur[s] is start s's incumbent and cand[s] its proposal; an accepted
	// proposal swaps buffers, so the old incumbent becomes scratch.
	streams := rng.Partition(r, starts)
	buf := make([]float64, 2*starts*dim)
	cur := make([][]float64, starts)
	cand := make([][]float64, starts)
	curV := make([]float64, starts)
	candV := make([]float64, starts)
	step := make([]float64, starts)
	for s := 0; s < starts; s++ {
		cur[s] = buf[2*s*dim : (2*s+1)*dim : (2*s+1)*dim]
		cand[s] = buf[(2*s+1)*dim : (2*s+2)*dim : (2*s+2)*dim]
		copy(cur[s], xs[s])
		curV[s] = vals[s]
		step[s] = cfg.StepScale
	}
	// One block per par worker: the narrowest split that keeps every
	// worker busy.
	groups := runtime.GOMAXPROCS(0)
	width := (starts + groups - 1) / groups
	for it := 0; it < cfg.LocalSteps; it++ {
		for s, sr := range streams {
			c := cand[s]
			for d := range c {
				c[d] = clamp01(cur[s][d] + step[s]*sr.NormFloat64())
			}
			if box != nil {
				box.Clamp(c)
			}
		}
		scoreBlocks(acq, cand, candV, width)
		for s := range cand {
			if candV[s] > curV[s] {
				cur[s], cand[s] = cand[s], cur[s]
				curV[s] = candV[s]
			} else {
				step[s] *= 0.9 // shrink on failure
			}
		}
	}

	best, bestV := xs[0], vals[0]
	for s := 0; s < starts; s++ {
		if curV[s] > bestV {
			best, bestV = cur[s], curV[s]
		}
	}
	return best
}

// scoreBlocks scores xs into vals through acq in contiguous blocks of the
// given width (the last may be shorter), blocks scored concurrently, and
// returns the number of blocks.
func scoreBlocks(acq BatchAcqFunc, xs [][]float64, vals []float64, width int) int {
	nb := (len(xs) + width - 1) / width
	if nb <= 1 {
		acq(xs, vals)
		return 1
	}
	par.ForEach(nb, func(b int) {
		lo, hi := b*width, min((b+1)*width, len(xs))
		acq(xs[lo:hi], vals[lo:hi])
	})
	return nb
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
