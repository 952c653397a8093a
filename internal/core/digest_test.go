package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/workload"
)

// updateDigests rewrites testdata/trace_digests.txt from the current code
// instead of checking against it:
//
//	go test ./internal/core -run TestCrossVersionTraceDigests -update-digests
//
// Only do this for a deliberate change of tuning decisions, and say so.
var updateDigests = flag.Bool("update-digests", false, "rewrite the committed cross-version trace digests")

const digestFile = "testdata/trace_digests.txt"

// canonicalTrace prints every decision-bearing field of a result as raw
// float bits: the SLA thresholds, then per iteration the phase, evaluated
// θ, observed metrics, feasibility, ensemble weights and drift/trust-region
// state. Two code versions that make the same decisions print the same
// bytes; any changed bit in any θ or weight changes the digest.
func canonicalTrace(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sla=%x/%x\n", res.Method, res.SLA.LambdaTps, res.SLA.LambdaLat)
	for _, it := range res.Iterations {
		fmt.Fprintf(&b, "%d %s theta=%x res=%x tps=%x lat=%x feas=%v w=%x short=%d",
			it.Index, it.Phase, it.Observation.Theta, it.Observation.Res,
			it.Observation.Tps, it.Observation.Lat, it.Feasible, it.Weights, it.Shortlist)
		fmt.Fprintf(&b, " drift=%x/%d r=%x c=%x load=%x\n",
			it.DriftDistance, it.DriftTier, it.TrustRadius, it.TrustCenter, it.LoadMult)
	}
	return b.String()
}

func digestEvaluator(seed int64) *core.SimEvaluator {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return core.NewSimEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct)
}

func digestAcq() bo.OptimizerConfig {
	return bo.OptimizerConfig{RandomCandidates: 128, LocalStarts: 3, LocalSteps: 15, StepScale: 0.1}
}

// digestTasks is a small corpus over the case-study space: one LHS-sampled
// task per Twitter variant, keyed by the variant's runtime signature (the
// embedding a drifting evaluator streams), so both stationary and
// drift-aware sessions can shortlist against it.
func digestTasks(seed int64, n int) []meta.CorpusTask {
	space := knobs.CaseStudySpace()
	tasks := make([]meta.CorpusTask, 0, 5)
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		s := seed + int64(77*i)
		sig := w.Signature()
		tasks = append(tasks, meta.CorpusTask{
			ID:          w.Name,
			MetaFeature: sig,
			Fit: func() (*meta.BaseLearner, error) {
				sim := dbsim.New(dbsim.Instance("A"), w.Profile, s, dbsim.WithHalfRAMBufferPool())
				h := make(bo.History, 0, n)
				for _, u := range core.LHSInit(n, space.Dim(), s) {
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

// digestCases are the pinned sessions. Each returns its result; the test
// also checks that each still exercises the path it is there for.
var digestCases = []struct {
	name string
	run  func(t *testing.T) *core.Result
}{
	{"restune-meta", func(t *testing.T) *core.Result {
		cfg := core.DefaultConfig(11)
		cfg.InitIters = 4
		cfg.Acq = digestAcq()
		cfg.Corpus = meta.NewCorpus(digestTasks(5, 16), meta.CorpusOptions{})
		cfg.TargetMetaFeature = workload.Twitter().Signature()
		cfg.DynamicSamples = 60
		cfg.DilutionGuard = true
		res, err := core.New(cfg).Run(digestEvaluator(11), 14)
		if err != nil {
			t.Fatal(err)
		}
		multi := false
		for _, it := range res.Iterations {
			if it.Phase != "dynamic" {
				continue
			}
			nz := 0
			for _, w := range it.Weights {
				if w != 0 {
					nz++
				}
			}
			multi = multi || nz > 1
		}
		if !multi {
			t.Fatal("restune-meta never reached a dynamic phase with more than one nonzero weight")
		}
		return res
	}},
	{"wo-ml-cbo", func(t *testing.T) *core.Result {
		cfg := core.DefaultConfig(12)
		cfg.InitIters = 4
		cfg.Acq = digestAcq()
		res, err := core.New(cfg).Run(digestEvaluator(12), 14)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}},
	{"drift-sparse", func(t *testing.T) *core.Result {
		const iters = 40
		space := knobs.CaseStudySpace()
		w := workload.Twitter()
		tl, err := workload.TimelineProfile("spike")
		if err != nil {
			t.Fatal(err)
		}
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, 13, dbsim.WithHalfRAMBufferPool())
		ev := core.NewTimelineEvaluator(sim, space, dbsim.CPUPct, w, tl, iters)
		cfg := core.DefaultConfig(13)
		cfg.InitIters = 5
		cfg.Acq = digestAcq()
		cfg.Corpus = meta.NewCorpus(digestTasks(6, 16), meta.CorpusOptions{})
		cfg.TargetMetaFeature = w.Signature()
		cfg.DynamicSamples = 40
		cfg.Drift = &core.DriftConfig{ResetThreshold: 0.085}
		cfg.Sparse = gp.SparseConfig{Threshold: 12, MaxAnchors: 10, ReselectEvery: 4}
		res, err := core.New(cfg).Run(ev, iters)
		if err != nil {
			t.Fatal(err)
		}
		tiers := map[int]bool{}
		for _, it := range res.Iterations {
			tiers[it.DriftTier] = true
		}
		if !tiers[core.DriftTranslate] || !tiers[core.DriftReset] {
			t.Fatalf("drift-sparse session saw tiers %v, want both a translation and a reset", tiers)
		}
		return res
	}},
	{"ituned", func(t *testing.T) *core.Result {
		tuner := baselines.NewITuned(14)
		tuner.InitIters = 5
		tuner.Acq = digestAcq()
		res, err := tuner.Run(digestEvaluator(14), 12)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}},
	{"penalty-bo", func(t *testing.T) *core.Result {
		tuner := baselines.NewPenaltyBO(15)
		tuner.InitIters = 5
		tuner.Acq = digestAcq()
		res, err := tuner.Run(digestEvaluator(15), 12)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}},
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("reading committed digests: %v (generate with -update-digests)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed digest line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrossVersionTraceDigests compares tuning decisions across code
// versions, which the within-build determinism tests cannot: each pinned
// session's canonical float-bit trace is hashed and checked against the
// SHA-256 committed under testdata/. A change that moves any θ, metric or
// weight by one bit fails here even if it is deterministic.
//
// The digests are amd64-only: arm64 (and other targets) may fuse
// multiply-adds, which legitimately changes low bits.
func TestCrossVersionTraceDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trace digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, c := range digestCases {
		sum := sha256.Sum256([]byte(canonicalTrace(c.run(t))))
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *updateDigests {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# SHA-256 of canonical float-bit session traces (TestCrossVersionTraceDigests, amd64).\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, c := range digestCases {
		if want[c.name] == "" {
			t.Errorf("%s: no committed digest", c.name)
			continue
		}
		if got[c.name] != want[c.name] {
			t.Errorf("%s: trace digest %s, committed %s — a tuning decision changed", c.name, got[c.name], want[c.name])
		}
	}
}
