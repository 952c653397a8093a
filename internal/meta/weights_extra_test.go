package meta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bo"
)

func TestDilutionGuardDiscardsBadLearners(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	target := mustLearner(t, "t", nil, synthHistory(20, 0.3, 10, 0, 5), 5)
	// Anti-correlated learner: its surface inverts the target's ordering.
	bad := mustLearner(t, "bad", nil, antiHistory(30, 0.3, 6), 6)
	// Mild learner: similar optimum.
	good := mustLearner(t, "good", nil, synthHistory(30, 0.32, 200, 50, 7), 7)

	guarded := DynamicWeightsOpts([]*BaseLearner{bad, good}, target,
		DynamicOptions{Samples: 200, DilutionGuard: true}, r)
	if guarded[0] != 0 {
		t.Fatalf("anti-correlated learner should be discarded by the guard: %v", guarded)
	}
	sum := 0.0
	for _, w := range guarded {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights must still sum to 1: %v", guarded)
	}
}

// antiHistory builds a task whose res ordering is inverted relative to
// synthHistory's (res decreases toward the target's optimum region).
func antiHistory(n int, opt float64, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	var h bo.History
	for i := 0; i < n; i++ {
		x := float64(i)/float64(n-1) + 0.001*r.NormFloat64()
		res := -10*(x-opt)*(x-opt) + 100
		h = append(h, bo.Observation{
			Theta: []float64{x},
			Res:   res,
			Tps:   1000 + res*2,
			Lat:   10 - res*0.05,
		})
	}
	return h
}

func TestDilutionGuardKeepsGoodLearners(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	target := mustLearner(t, "t", nil, synthHistory(15, 0.3, 10, 0, 15), 15)
	twin := mustLearner(t, "twin", nil, synthHistory(40, 0.3, 50, 5, 16), 16)
	w := DynamicWeightsOpts([]*BaseLearner{twin}, target,
		DynamicOptions{Samples: 200, DilutionGuard: true}, r)
	if w[0] == 0 {
		t.Fatalf("a well-aligned learner must survive the guard: %v", w)
	}
}

func TestPercentileInt(t *testing.T) {
	vals := []int{5, 1, 3, 2, 4}
	if got := percentileInt(vals, 0.5); got != 3 {
		t.Fatalf("median: %d", got)
	}
	if got := percentileInt(vals, 0); got != 1 {
		t.Fatalf("min: %d", got)
	}
	if got := percentileInt(vals, 1); got != 5 {
		t.Fatalf("max: %d", got)
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("percentileInt mutated its input")
	}
}

func TestWeightedVarianceEnsemble(t *testing.T) {
	b1 := mustLearner(t, "b1", nil, synthHistory(15, 0.3, 10, 0, 1), 1)
	target := mustLearner(t, "t", nil, synthHistory(6, 0.3, 10, 0, 3), 3)
	e := NewEnsemble([]*BaseLearner{b1}, target, []float64{1, 1})
	x := []float64{0.4}

	_, vTargetOnly := e.Predict(bo.Res, x)
	_, vt := target.Predict(bo.Res, x)
	if vTargetOnly != vt {
		t.Fatal("default ensemble must use target-only variance (Eq. 7)")
	}

	we := e.WithWeightedVariance()
	_, vWeighted := we.Predict(bo.Res, x)
	_, v1 := b1.Predict(bo.Res, x)
	want := (v1 + vt) / 2
	if math.Abs(vWeighted-want) > 1e-9 {
		t.Fatalf("weighted variance: got %v want %v", vWeighted, want)
	}
	// The original ensemble is unchanged (WithWeightedVariance copies).
	if _, v := e.Predict(bo.Res, x); v != vt {
		t.Fatal("WithWeightedVariance must not mutate the receiver")
	}
}

// TestPosteriorMemoMatchesPointwise pins the memo's values to point-wise
// BaseLearner.Predict bit for bit as the history grows one observation at
// a time, across a learner dropped from and re-added to the base list, a
// Reset, and a history on a different backing array.
func TestPosteriorMemoMatchesPointwise(t *testing.T) {
	a := mustLearner(t, "a", nil, synthHistory(25, 0.3, 500, 300, 2), 2)
	b := mustLearner(t, "b", nil, synthHistory(25, 0.9, 10, 5, 3), 3)
	full := synthHistory(16, 0.4, 10, 5, 7)
	h := make(bo.History, 0, len(full))
	m := NewPosteriorMemo()
	check := func(step string, base []*BaseLearner, h bo.History) {
		t.Helper()
		m.Update(base, h)
		if len(m.entries) != len(base) {
			t.Fatalf("%s: memo holds %d learners, want %d", step, len(m.entries), len(base))
		}
		for _, bl := range base {
			lp := m.entries[bl]
			for mi, metric := range bo.Metrics {
				if len(lp.mu[mi]) != len(h) {
					t.Fatalf("%s: %s covers %d of %d observations", step, bl.TaskID, len(lp.mu[mi]), len(h))
				}
				for j, o := range h {
					mu, v := bl.Predict(metric, o.Theta)
					if math.Float64bits(lp.mu[mi][j]) != math.Float64bits(mu) ||
						math.Float64bits(lp.sd[mi][j]) != math.Float64bits(math.Sqrt(v)) {
						t.Fatalf("%s: %s metric %d obs %d: memo (%x, %x) != point-wise (%x, %x)",
							step, bl.TaskID, mi, j, lp.mu[mi][j], lp.sd[mi][j], mu, math.Sqrt(v))
					}
				}
			}
		}
	}
	for i, o := range full {
		h = append(h, o)
		base := []*BaseLearner{a, b}
		if i%5 == 3 {
			base = base[:1] // b drops out, and is predicted afresh when it returns
		}
		check(fmt.Sprintf("grow %d", i), base, h)
	}
	m.Reset()
	check("after reset", []*BaseLearner{b, a}, h)
	check("new backing array", []*BaseLearner{a, b}, append(bo.History(nil), h[:9]...))
}
