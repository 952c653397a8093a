package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bo"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/workload"
)

// runMemoSession runs one session to completion, with the session's
// posterior memo (memo=true, the default) or without it (every dynamic
// weight assignment then predicts every base learner at every observation
// afresh), and returns its canonical trace, drift fields included.
func runMemoSession(t *testing.T, memo bool, cfg Config, ev Evaluator, iters int) (string, *Result) {
	t.Helper()
	s, err := NewSession(cfg, ev, iters)
	if err != nil {
		t.Fatal(err)
	}
	if !memo {
		s.post = nil
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return driftTrace(res), res
}

// signatureCorpusTasks is one LHS-sampled task per Twitter variant keyed by
// its runtime signature; fits counts every materialization.
func signatureCorpusTasks(fits *atomic.Int64) []meta.CorpusTask {
	space := knobs.CaseStudySpace()
	tasks := make([]meta.CorpusTask, 0, 5)
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		s := int64(31 * i)
		sig := w.Signature()
		tasks = append(tasks, meta.CorpusTask{
			ID:          w.Name,
			MetaFeature: sig,
			Fit: func() (*meta.BaseLearner, error) {
				fits.Add(1)
				sim := dbsim.New(dbsim.Instance("A"), w.Profile, s, dbsim.WithHalfRAMBufferPool())
				h := make(bo.History, 0, 14)
				for _, u := range LHSInit(14, space.Dim(), s) {
					theta := space.Quantize(u)
					m := sim.Eval(space, space.Denormalize(theta))
					h = append(h, bo.Observation{Theta: theta, Res: m.CPUUtilPct, Tps: m.TPS, Lat: m.LatencyP99Ms})
				}
				return meta.NewBaseLearner(w.Name, w.Name, "A", sig, h, space.Dim(), s)
			},
		})
	}
	return tasks
}

// TestPosteriorMemoBitIdenticalToUncached is the property test for the
// incremental dynamic weights: a session whose weight assignments read
// memoized base-learner posteriors must make exactly the decisions — θ,
// measurements, weights, drift responses — of one that recomputes every
// posterior each iteration. One corpus serves three drift-aware sessions
// in turn (targets A, B, A), with forced shortlisting, zero-weight pruning
// and a one-learner residency cap, so the run covers shortlist pruning, a
// tier-2 re-activation, and LRU eviction followed by a refit of an evicted
// learner; each mode gets its own identical corpus.
func TestPosteriorMemoBitIdenticalToUncached(t *testing.T) {
	const iters = 40
	targets := []workload.Workload{workload.Twitter(), workload.TwitterVariant(4), workload.Twitter()}
	var fits [2]atomic.Int64
	traces := [2][]string{}
	var pruned, reset bool
	for mode, memo := range []bool{true, false} {
		corpus := meta.NewCorpus(signatureCorpusTasks(&fits[mode]), meta.CorpusOptions{
			ExactThreshold: -1, ShortlistK: 3, PruneAfter: 2, MaxResident: 1,
		})
		for i, w := range targets {
			tl, err := workload.TimelineProfile("spike")
			if err != nil {
				t.Fatal(err)
			}
			sim := dbsim.New(dbsim.Instance("A"), w.Profile, int64(13+i), dbsim.WithHalfRAMBufferPool())
			ev := NewTimelineEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct, w, tl, iters)
			cfg := DefaultConfig(int64(13 + i))
			cfg.InitIters = 5
			cfg.Acq = fastAcq()
			cfg.Corpus = corpus
			cfg.TargetMetaFeature = w.Signature()
			cfg.DynamicSamples = 40
			cfg.Drift = &DriftConfig{ResetThreshold: 0.085}
			trace, res := runMemoSession(t, memo, cfg, ev, iters)
			traces[mode] = append(traces[mode], trace)
			for k, it := range res.Iterations {
				if k > 0 && it.Shortlist > 0 && res.Iterations[k-1].Shortlist > it.Shortlist {
					pruned = true
				}
				reset = reset || it.DriftTier == DriftReset
			}
		}
	}
	for i := range targets {
		if traces[0][i] != traces[1][i] {
			t.Fatalf("session %d: memoized trace differs from uncached:\n--- memo\n%s\n--- uncached\n%s",
				i, traces[0][i], traces[1][i])
		}
	}
	if !pruned {
		t.Error("no session pruned its shortlist; the memo's learner-drop path went unexercised")
	}
	if !reset {
		t.Error("no tier-2 drift reset; the memo's re-activation path went unexercised")
	}
	if n := fits[0].Load(); n <= 5 {
		t.Errorf("%d fits over 5 tasks: no evicted learner was refitted", n)
	}
}

// TestPosteriorMemoFleetMatchesUncachedSolo extends the property to the
// fleet: sessions stepping concurrently over one SharedCorpus (each with
// its own memo) at GOMAXPROCS 1 and 8 must reproduce solo sessions that
// recompute every posterior.
func TestPosteriorMemoFleetMatchesUncachedSolo(t *testing.T) {
	const nTasks, nSessions, iters = 6, 3, 9
	tasks := fleetTestCorpusTasks(t, nTasks)
	solo := make([]string, nSessions)
	for s := 0; s < nSessions; s++ {
		spec := fleetTestSpec(meta.NewSharedCorpus(tasks, nil), int64(7+s), iters)
		solo[s], _ = runMemoSession(t, false, spec.Config, spec.Evaluator, spec.Iters)
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		sc := meta.NewSharedCorpus(tasks, nil)
		specs := make([]SessionSpec, nSessions)
		for s := range specs {
			specs[s] = fleetTestSpec(sc, int64(7+s), iters)
		}
		results := NewFleet(FleetConfig{Workers: nSessions}).Run(specs)
		runtime.GOMAXPROCS(old)
		for s, r := range results {
			if r.Err != nil {
				t.Fatalf("session %s: %v", r.Name, r.Err)
			}
			if got := driftTrace(r.Result); got != solo[s] {
				t.Fatalf("GOMAXPROCS=%d session %d: fleet (memoized) trace differs from uncached solo:\n--- fleet\n%s\n--- solo\n%s",
					procs, s, got, solo[s])
			}
		}
	}
}
