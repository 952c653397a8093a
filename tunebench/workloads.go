package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/minidb"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rng"
	"repro/internal/workload"
)

// shape sizes every workload. It is fixed for a benchmark run: the seed
// changes the inputs (simulator noise, engine statement streams, tuner
// random streams), never the amount of work, so a run's quality metrics
// depend on the seed alone.
type shape struct {
	// paper-meta: repository tasks are tuned for repoIters iterations,
	// each target for paperIters.
	repoIters, paperIters int
	// engine-replay: iterations per target.
	engineIters int
	// always-on-fleet: sessions, iterations per session, and the
	// iterations that make up one simulated day.
	fleetSessions, fleetIters, fleetStepsPerDay int
}

// fullShape is the benchmark's shape. The fleet's sessions outlast the
// sparse GP threshold (gp.DefaultSparseConfig: 256 observations) and play
// three diurnal days each. The fleet has one worker (see buildFleet), so a
// session waits for one step of the other between two of its own.
var fullShape = shape{
	repoIters: 30, paperIters: 100,
	engineIters:   60,
	fleetSessions: 2, fleetIters: 264, fleetStepsPerDay: 88,
}

const (
	// engineRows is the dataset size per table on engine-replay.
	engineRows = 500
	// fleetTaskObs is the LHS history length of each signature-corpus task.
	fleetTaskObs = 30
)

// sessionRun is one tuning session of a batch and what it produced.
type sessionRun struct {
	name   string
	budget int
	warmup int
	timed  *timedEvaluator
	sess   *core.Session    // serial workloads: created and probed in set-up
	spec   core.SessionSpec // fleet workload: handed to core.Fleet
	rec    *memRecorder     // nil when untraced
	start  time.Time        // when the session began its first tuning iteration
	res    *core.Result
	err    error
}

// batch is the fixed set of sessions one seed defines.
type batch struct {
	runs     []*sessionRun
	fleet    *core.Fleet  // nil: sessions run one after another
	fleetRec *memRecorder // fleet and shared-corpus telemetry (traced only)
	corpRec  *memRecorder // corpus telemetry recorded during set-up (traced only)
	engine   bool         // replay is the minidb engine rather than dbsim
	setupMs  map[string]float64
	cleanup  func()
}

// workloadDef names a workload and builds its batches.
type workloadDef struct {
	name string
	// setupReps is how many times a run repeats set-up to report its median.
	setupReps int
	// batches is how many batches every run measures; the quality metrics
	// come from these.
	batches int
	// build constructs the batch for seed; traced attaches a fresh
	// memRecorder to every recorder the program accepts.
	build func(seed int64, traced bool, scratch string, sh shape) (*batch, error)
}

var workloads = []workloadDef{
	{name: "paper-meta", setupReps: 3, batches: 2, build: buildPaperMeta},
	{name: "engine-replay", setupReps: 7, batches: 4, build: buildEngineReplay},
	{name: "always-on-fleet", setupReps: 25, batches: 1, build: buildFleet},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func recorderIf(traced bool) *memRecorder {
	if traced {
		return newMemRecorder()
	}
	return nil
}

// asRecorder turns an absent memRecorder into a nil obs.Recorder, which
// every component the program accepts treats as Nop.
func asRecorder(rec *memRecorder) obs.Recorder {
	if rec == nil {
		return nil
	}
	return rec
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// parallel runs n independent jobs on GOMAXPROCS goroutines.
func parallel(n int, job func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// calibratedRate applies the paper's request-rate protocol to a repository
// task: on instance A the published rate stands; elsewhere it is capped at
// 90% of the instance's open-loop default-configuration throughput.
func calibratedRate(w workload.Workload, hwName string, seed int64, opts ...dbsim.Option) workload.Workload {
	if hwName == "A" || w.Profile.RequestRate <= 0 {
		return w
	}
	open := w
	open.Profile.RequestRate = 0
	capacity := dbsim.New(dbsim.Instance(hwName), open.Profile, seed, opts...).EvalNoiseless(nil, nil).TPS
	if c := 0.9 * capacity; c < w.Profile.RequestRate {
		return w.WithRequestRate(c)
	}
	return w
}

// buildPaperMeta is serial meta-learning ResTune at the paper's shape. Its
// set-up trains the workload characterizer, builds the 34-task CPU data
// repository by running the scratch tuner on every repository workload,
// and fits each target's base-learners with the target's own tasks held
// out. (experiments.BuildRepository memoizes per seed, so it cannot be
// timed repeatedly; this is the same protocol, built fresh.)
func buildPaperMeta(seed int64, traced bool, _ string, sh shape) (*batch, error) {
	b := &batch{setupMs: map[string]float64{}, corpRec: recorderIf(traced), cleanup: func() {}}
	space := knobs.CPUSpace()
	repoWls := experiments.RepoWorkloads()

	t := time.Now()
	charCorpus := append(workload.Five(), workload.TwitterVariant(1), workload.TwitterVariant(2),
		workload.TwitterVariant(3), workload.TwitterVariant(4), workload.TwitterVariant(5))
	ch, err := workload.NewCharacterizer(charCorpus, seed)
	if err != nil {
		return nil, err
	}
	mf := make(map[string][]float64, len(repoWls))
	for _, w := range repoWls {
		mf[w.Name] = ch.MetaFeature(w, 10000, rng.Derive(seed, "mf:"+w.Name))
	}
	b.setupMs["workload.characterize_ms"] = msSince(t)

	t = time.Now()
	type task struct {
		w  workload.Workload
		hw string
	}
	var tasks []task
	for _, hw := range []string{"A", "B"} {
		for _, w := range repoWls {
			tasks = append(tasks, task{w, hw})
		}
	}
	records := make([]repo.TaskRecord, len(tasks))
	acq := experiments.Quick().Acq
	err = parallel(len(tasks), func(i int) error {
		tk := tasks[i]
		s := seed + int64(1000*i) + int64(len(tk.hw))
		hw := dbsim.Instance(tk.hw)
		pool := dbsim.WithFixedBufferPool(hw.RAMBytes / 2)
		w := calibratedRate(tk.w, tk.hw, s, pool)
		ev := core.NewSimEvaluator(dbsim.New(hw, w.Profile, s, pool), space, dbsim.CPUPct)
		cfg := core.DefaultConfig(s)
		cfg.Acq = acq
		cfg.Name = "repo-build"
		res, err := core.New(cfg).Run(ev, sh.repoIters)
		if err != nil {
			return fmt.Errorf("repository task %s@%s: %w", w.Name, tk.hw, err)
		}
		records[i] = repo.FromResult(w.Name+"@"+tk.hw, w.Name, tk.hw, mf[tk.w.Name], space, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &repo.Repository{Tasks: records}
	b.setupMs["repo.build_ms"] = msSince(t)

	t = time.Now()
	targets := []workload.Workload{workload.Twitter(), workload.TPCC(200), workload.Sysbench(10)}
	corpora := make([]*meta.Corpus, len(targets))
	for i, target := range targets {
		name := target.Name
		c, err := r.Corpus(space, seed, func(t repo.TaskRecord) bool { return t.Workload != name },
			meta.CorpusOptions{Recorder: asRecorder(b.corpRec)})
		if err != nil {
			return nil, err
		}
		// Fit every base-learner now; the session's own Activate keeps them.
		if err := c.Activate(mf[name]); err != nil {
			return nil, err
		}
		if _, _, err := c.ActiveLearners(); err != nil {
			return nil, err
		}
		corpora[i] = c
	}
	b.setupMs["repo.base_learners_ms"] = msSince(t)

	for i, target := range targets {
		s := seed + int64(100*i)
		sim := dbsim.New(dbsim.Instance("A"), target.Profile, s, dbsim.WithHalfRAMBufferPool())
		cfg := core.DefaultConfig(s)
		cfg.Corpus = corpora[i]
		cfg.TargetMetaFeature = mf[target.Name]
		run := &sessionRun{name: target.Name, budget: sh.paperIters, warmup: cfg.InitIters, rec: recorderIf(traced)}
		cfg.Recorder = asRecorder(run.rec)
		var ev core.Evaluator
		run.timed, ev = wrapEvaluator(core.NewSimEvaluator(sim, space, dbsim.CPUPct), sh.paperIters)
		if run.sess, err = core.NewSession(cfg, ev, sh.paperIters); err != nil {
			return nil, err
		}
		b.runs = append(b.runs, run)
	}
	return b, nil
}

// buildEngineReplay is serial ResTune-w/o-ML on the real minidb engine in
// its deterministic mode, minimizing memory over the 11-knob engine space
// for one read-heavy and one insert-heavy target. Tables hold 500 rows
// rather than the evaluator's 2000: a measurement then takes about half as
// long, so a run fits twice the sessions, and the per-iteration cost — which
// follows the buffer-pool size each session happens to try — averages over
// more trajectories.
func buildEngineReplay(seed int64, traced bool, scratch string, sh shape) (*batch, error) {
	base, err := os.MkdirTemp(scratch, "engine-")
	if err != nil {
		return nil, err
	}
	b := &batch{engine: true, setupMs: map[string]float64{}, cleanup: func() { os.RemoveAll(base) }}
	space := knobs.RealEngineSpace()
	for i, target := range []workload.Workload{workload.Sysbench(10), workload.TwitterVariant(5)} {
		s := seed + int64(100*i)
		run := &sessionRun{name: target.Name, budget: sh.engineIters, rec: recorderIf(traced)}
		ev := minidb.NewEvaluator(filepath.Join(base, target.Name), space, dbsim.MemoryBytes, target, s)
		ev.Deterministic = true
		ev.Rows = engineRows
		ev.Recorder = asRecorder(run.rec)
		cfg := core.DefaultConfig(s)
		cfg.Recorder = asRecorder(run.rec)
		run.warmup = cfg.InitIters
		var wrapped core.Evaluator
		run.timed, wrapped = wrapEvaluator(ev, sh.engineIters)
		if run.sess, err = core.NewSession(cfg, wrapped, sh.engineIters); err != nil {
			b.cleanup()
			return nil, err
		}
		b.runs = append(b.runs, run)
	}
	return b, nil
}

// signatureTasks is the drift experiments' meta-learning corpus: one
// LHS-sampled base task per Twitter case-study variant, keyed by the
// variant's runtime signature — the embedding a drifting evaluator streams.
func signatureTasks(seed int64, space *knobs.Space) []meta.CorpusTask {
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
				h := make(bo.History, 0, fleetTaskObs)
				for _, u := range core.LHSInit(fleetTaskObs, space.Dim(), s) {
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

// buildFleet is a one-worker core.Fleet running drift-aware, sparse-GP
// sessions that share one meta.SharedCorpus and each play a diurnal
// timeline for several simulated days. One worker, not GOMAXPROCS: a step
// already fans out over GOMAXPROCS goroutines (internal/par), so with one
// worker per vCPU the steps of different sessions fought over the same
// cores and the latency of one seed moved by up to 15% from run to run.
func buildFleet(seed int64, traced bool, _ string, sh shape) (*batch, error) {
	b := &batch{setupMs: map[string]float64{}, fleetRec: recorderIf(traced), cleanup: func() {}}
	space := knobs.CaseStudySpace()
	w := workload.Twitter()

	sc := meta.NewSharedCorpus(signatureTasks(seed, space), asRecorder(b.fleetRec))
	t := time.Now()
	warm := sc.NewSession(meta.CorpusOptions{})
	if err := warm.Activate(w.Signature()); err != nil {
		return nil, err
	}
	if _, _, err := warm.ActiveLearners(); err != nil {
		return nil, err
	}
	b.setupMs["repo.base_learners_ms"] = msSince(t)
	b.fleet = core.NewFleet(core.FleetConfig{Workers: 1, Recorder: asRecorder(b.fleetRec)})

	for i := 0; i < sh.fleetSessions; i++ {
		s := seed + int64(100*i)
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, s, dbsim.WithHalfRAMBufferPool())
		tl := core.NewTimelineEvaluator(sim, space, dbsim.CPUPct, w, workload.DiurnalTimeline(), sh.fleetStepsPerDay)
		run := &sessionRun{name: fmt.Sprintf("s%d", i), budget: sh.fleetIters, rec: recorderIf(traced)}
		cfg := core.DefaultConfig(s)
		cfg.Acq = experiments.Quick().Acq
		cfg.Corpus = sc.NewSession(meta.CorpusOptions{Recorder: asRecorder(run.rec)})
		cfg.TargetMetaFeature = w.Signature()
		cfg.Drift = &core.DriftConfig{}
		cfg.Sparse = gp.DefaultSparseConfig()
		cfg.Recorder = asRecorder(run.rec)
		run.warmup = cfg.InitIters
		var ev core.Evaluator
		run.timed, ev = wrapEvaluator(tl, sh.fleetIters)
		run.spec = core.SessionSpec{Name: run.name, Config: cfg, Evaluator: ev, Iters: sh.fleetIters}
		b.runs = append(b.runs, run)
	}
	return b, nil
}
