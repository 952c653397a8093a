package meta

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// bruteRankingLoss is the original O(n²) pairwise definition of Eq. 9, kept
// as the reference the merge-sort implementation must reproduce exactly.
func bruteRankingLoss(pred, truth []float64) int {
	n := len(pred)
	loss := 0
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if (pred[j] <= pred[k]) != (truth[j] <= truth[k]) {
				loss++
			}
		}
	}
	return loss
}

// Property: the O(n log n) inversion-count loss equals the O(n²) pairwise
// scan on random inputs with deliberately injected ties on both sides.
func TestQuickRankingLossMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			// Draw from small integer grids so ties are common.
			pred[i] = float64(r.Intn(6))
			truth[i] = float64(r.Intn(6))
		}
		if RankingLoss(pred, truth) != bruteRankingLoss(pred, truth) {
			return false
		}
		// Continuous (tie-free) draws too.
		for i := range pred {
			pred[i] = r.NormFloat64()
			truth[i] = r.NormFloat64()
		}
		return RankingLoss(pred, truth) == bruteRankingLoss(pred, truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankEvaluatorReuseAndClone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	truth := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	e := NewRankEvaluator(truth)
	c := e.Clone()
	for rep := 0; rep < 50; rep++ {
		pred := make([]float64, len(truth))
		for i := range pred {
			pred[i] = float64(r.Intn(5))
		}
		want := bruteRankingLoss(pred, truth)
		if got := e.Loss(pred); got != want {
			t.Fatalf("rep %d: evaluator loss %d want %d", rep, got, want)
		}
		if got := c.Loss(pred); got != want {
			t.Fatalf("rep %d: cloned evaluator loss %d want %d", rep, got, want)
		}
	}
}

func TestRankEvaluatorDegenerate(t *testing.T) {
	if got := NewRankEvaluator(nil).Loss(nil); got != 0 {
		t.Fatalf("empty loss %d", got)
	}
	if got := NewRankEvaluator([]float64{7}).Loss([]float64{1}); got != 0 {
		t.Fatalf("singleton loss %d", got)
	}
	// All-tied truth vs strictly ordered pred: every unordered pair is tied
	// on exactly one side -> n(n-1)/2 misranked ordered pairs.
	if got := RankingLoss([]float64{1, 2, 3, 4}, []float64{5, 5, 5, 5}); got != 6 {
		t.Fatalf("tied-truth loss %d want 6", got)
	}
}

// TestDynamicWeightsDeterministicAcrossGOMAXPROCS checks the meta-level
// fan-out contract: identical weights at any parallelism for a fixed seed.
func TestDynamicWeightsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	targetHist := synthHistory(12, 0.3, 10, 5, 1)
	similar := mustLearner(t, "similar", nil, synthHistory(25, 0.3, 500, 300, 2), 2)
	dissimilar := mustLearner(t, "dissimilar", nil, synthHistory(25, 0.9, 10, 5, 3), 3)
	target := mustLearner(t, "target", nil, targetHist, 4)

	run := func(procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		r := rand.New(rand.NewSource(42))
		return DynamicWeightsOpts([]*BaseLearner{similar, dissimilar}, target,
			DynamicOptions{Samples: 100, DilutionGuard: true}, r)
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights differ across GOMAXPROCS: %v vs %v", a, b)
		}
	}
}

// mergeCountInversions is the bottom-up merge sort countInversions
// replaced (width-1 runs, copy-back at every level), kept as a reference:
// it counts pairs i < j with a[i] > a[j] and sorts a ascending in place.
func mergeCountInversions(a, buf []float64) int {
	n := len(a)
	inv := 0
	buf = buf[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if a[j] < a[i] {
					inv += mid - i
					buf[k] = a[j]
					j++
				} else {
					buf[k] = a[i]
					i++
				}
				k++
			}
			copy(buf[k:], a[i:mid])
			copy(buf[k+mid-i:hi], a[j:hi])
			copy(a[lo:hi], buf[lo:hi])
		}
	}
	return inv
}

// FuzzRankingLoss decodes bytes into a prediction/truth pair — a level
// count byte, then one byte per value reduced modulo the level count, so
// small level counts give dense ties on both sides — and checks that the
// run-and-ping-pong inversion count equals the old merge sort and the
// O(n²) pairwise count, leaves the values sorted, and that the full Eq. 9
// loss matches the pairwise scan.
func FuzzRankingLoss(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 2, 1, 0, 2, 2})
	f.Add([]byte{255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		levels := 1 + int(data[0])
		data = data[1:]
		n := min(len(data)/2, 300)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := 0; i < n; i++ {
			pred[i] = float64(int(data[2*i])%levels) - float64(levels)/3
			truth[i] = float64(int(data[2*i+1]) % levels)
		}

		pairs := 0
		for i := range pred {
			for j := i + 1; j < n; j++ {
				if pred[i] > pred[j] {
					pairs++
				}
			}
		}
		a := append([]float64(nil), pred...)
		got, sorted := countInversions(a, make([]float64, n))
		ref := append([]float64(nil), pred...)
		want := mergeCountInversions(ref, make([]float64, n))
		if got != want || got != pairs {
			t.Fatalf("inversions: got %d, merge-sort reference %d, pairwise %d", got, want, pairs)
		}
		for i := range sorted {
			if sorted[i] != ref[i] {
				t.Fatalf("sorted output differs at %d: %v vs %v", i, sorted, ref)
			}
		}
		if got, want := RankingLoss(pred, truth), bruteRankingLoss(pred, truth); got != want {
			t.Fatalf("ranking loss %d, pairwise scan %d", got, want)
		}
	})
}
