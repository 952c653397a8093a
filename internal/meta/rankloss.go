package meta

import "sort"

// RankingLoss counts misranked pairs (Eq. 9) between predictions and ground
// truths: Σ_j Σ_k 1(pred_j ≤ pred_k) XOR 1(true_j ≤ true_k), over all n²
// ordered pairs. It runs in O(n log n) via merge-sort inversion counting;
// for repeated evaluations against the same ground truth (the posterior-
// sampling loop of DynamicWeightsOpts) build a RankEvaluator once instead.
func RankingLoss(pred, truth []float64) int {
	return NewRankEvaluator(truth).Loss(pred)
}

// RankEvaluator precomputes the truth-side structure of the Eq. 9 ranking
// loss — the sort order of the ground truths and their tie groups — so each
// evaluation against a fresh prediction vector costs one O(n log n)
// inversion count instead of the O(n²) pairwise scan.
//
// Decomposition: writing D for the number of unordered pairs ranked in
// strictly opposite order and T_p, T_t, T_b for the pairs tied in pred only,
// truth only, and both, the pairwise double sum equals
//
//	loss = 2·D + T_p + T_t − 2·T_b
//
// (a strictly discordant pair misranks both ordered directions; a pair tied
// on exactly one side misranks one direction; pairs tied on both sides, and
// the j==k diagonal, misrank none).
type RankEvaluator struct {
	// Immutable after construction (safe to share across Clone instances):
	n         int
	order     []int    // indices sorted by ascending truth
	groups    [][2]int // [start,end) runs of equal truth in order, len >= 2 only
	tiesTruth int      // Σ over groups of m(m−1)/2

	// Per-instance scratch:
	a, buf []float64
}

// NewRankEvaluator builds the truth-side structure for repeated Loss calls.
func NewRankEvaluator(truth []float64) *RankEvaluator {
	n := len(truth)
	e := &RankEvaluator{
		n:     n,
		order: make([]int, n),
		a:     make([]float64, n),
		buf:   make([]float64, n),
	}
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(i, j int) bool {
		return truth[e.order[i]] < truth[e.order[j]]
	})
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && truth[e.order[hi]] == truth[e.order[lo]] {
			hi++
		}
		if m := hi - lo; m > 1 {
			e.groups = append(e.groups, [2]int{lo, hi})
			e.tiesTruth += m * (m - 1) / 2
		}
		lo = hi
	}
	return e
}

// Clone returns an evaluator sharing the (read-only) truth structure with
// its own scratch buffers, so parallel workers can evaluate concurrently.
func (e *RankEvaluator) Clone() *RankEvaluator {
	c := *e
	c.a = make([]float64, e.n)
	c.buf = make([]float64, e.n)
	return &c
}

// Loss returns the Eq. 9 pairwise ranking loss of pred against the
// evaluator's ground truth. It allocates nothing.
func (e *RankEvaluator) Loss(pred []float64) int {
	if len(pred) != e.n {
		panic("meta: ranking loss length mismatch")
	}
	n := e.n
	if n < 2 {
		return 0
	}
	a := e.a[:n]
	for i, idx := range e.order {
		a[i] = pred[idx]
	}
	// Within each truth-tie group, order predictions ascending so tied-truth
	// pairs contribute no inversions; count pairs tied on both sides while
	// at it. Groups are rare and small for continuous metrics.
	tiesBoth := 0
	for _, g := range e.groups {
		seg := a[g[0]:g[1]]
		insertionSort(seg)
		tiesBoth += countEqualPairs(seg)
	}
	inv, sorted := countInversions(a, e.buf)
	tiesPred := countEqualPairs(sorted)
	return 2*inv + tiesPred + e.tiesTruth - 2*tiesBoth
}

// insertionSort sorts a small slice ascending in place.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// countEqualPairs returns Σ m(m−1)/2 over runs of equal values in the
// sorted slice s.
func countEqualPairs(s []float64) int {
	ties, run := 0, 1
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			continue
		}
		ties += run * (run - 1) / 2
		run = 1
	}
	return ties + run*(run-1)/2
}

// invRun is the run length of countInversions' insertion-sort pass: long
// enough that the merge levels start three rounds up, short enough that
// shifting stays cheaper than merging.
const invRun = 16

// countInversions counts pairs i < j with a[i] > a[j] (strict) and returns
// the count with the values sorted ascending — in a or in buf, whichever
// the last merge wrote (buf must have len(a) capacity; both are clobbered).
//
// Runs of invRun elements are insertion-sorted first; every shift moves an
// element past one strictly greater predecessor, so the shifts count the
// in-run inversions exactly. Sorted runs then merge pairwise, ping-ponging
// between a and buf with no copy-back, and a merge that takes the right
// element while k left elements remain adds those k inversions. Equal
// values never shift or count, so the total matches Eq. 9's pairwise scan.
func countInversions(a, buf []float64) (int, []float64) {
	n := len(a)
	inv := 0
	for lo := 0; lo < n; lo += invRun {
		run := a[lo:min(lo+invRun, n)]
		for i := 1; i < len(run); i++ {
			v := run[i]
			j := i - 1
			for j >= 0 && run[j] > v {
				run[j+1] = run[j]
				j--
			}
			run[j+1] = v
			inv += i - 1 - j
		}
	}
	src, dst := a, buf[:n]
	for width := invRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j] < src[i] { // strict: equal values are not inversions
					inv += mid - i
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	return inv, src
}
