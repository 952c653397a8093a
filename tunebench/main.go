// Command tunebench is the repository's end-to-end tuning benchmark. It runs
// the real tuner (core.Session and core.Fleet) on one of three seeded
// workloads and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict and its metrics:
//
//	tunebench --workload paper-meta --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reruns the workload's first batch with an in-memory recorder
// attached and reports the per-layer breakdown. README.md beside this file
// lists the metrics, the workloads and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-meta, engine-replay or always-on-fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "minimum measured time; whole batches run until it has passed")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown of a traced run instead")
	scratch := flag.String("scratch", ".bench_build", "directory for the engine's scratch databases")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "tunebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *scratch, fullShape)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run. Set-up is repeated setupReps times and its
// median reported; the last set-up's batch is the first one measured. Each
// later batch is built from its own seed, derived from the run's seed. The
// workload's fixed number of batches always runs, and the quality metrics
// come from those alone, so they are a function of the seed. The untraced
// run then adds batches until at least `seconds` have passed, for timing
// only. The traced run repeats the first batch with recorders attached and
// requires it to make the same decisions as the untraced one. Every set-up
// and batch starts on a freshly collected heap, so garbage left by the one
// before is not collected on its clock.
func run(w workloadDef, seed int64, seconds time.Duration, traced bool, scratch string, sh shape) (*result, error) {
	var setupS []float64
	setupMs := map[string][]float64{}
	// Untimed set-ups first, so the timed ones do not pay for the process's
	// cold start: the first few of a fleet's took twice as long as the rest.
	for t := time.Now(); time.Since(t) < setupWarmUp; {
		b, err := prepare(w, seed, false, scratch, sh)
		if err != nil {
			return nil, err
		}
		b.cleanup()
	}
	var first *batch
	for i := 0; i < w.setupReps; i++ {
		if first != nil {
			first.cleanup()
		}
		runtime.GC()
		t := time.Now()
		b, err := prepare(w, seed, false, scratch, sh)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		for k, v := range b.setupMs {
			setupMs[k] = append(setupMs[k], v)
		}
		first = b
	}

	var m measured
	start := time.Now()
	for i := 0; i < w.batches || (!traced && time.Since(start) < seconds); i++ {
		b := first
		if i > 0 {
			var err error
			if b, err = prepare(w, batchSeed(seed, i), false, scratch, sh); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		m.add(runBatch(b), i < w.batches)
		b.cleanup()
	}
	if !traced {
		report(m.problems)
		return &result{
			Correct: m.correct(), Attempted: m.attempted, Failed: m.failed,
			Metrics: endToEnd(&m, median(setupS)),
		}, nil
	}

	tb, err := prepare(w, seed, true, scratch, sh)
	if err != nil {
		return nil, err
	}
	var tm measured
	runtime.GC()
	tm.add(runBatch(tb), false)
	tb.cleanup()
	problems := append(m.problems, tm.problems...)
	if err := sameDecisions(first.runs, tb.runs); err != nil {
		problems = append(problems, err.Error())
	}
	report(problems)
	return &result{
		Correct: len(problems) == 0, Attempted: m.attempted + tm.attempted, Failed: m.failed + tm.failed,
		Metrics: perLayer(&m, &tm, tb, setupMs),
	}, nil
}

// report prints each correctness problem to standard error.
func report(problems []string) {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "tunebench:", p)
	}
}

// setupWarmUp is how long a run repeats set-up untimed before timing it.
const setupWarmUp = 250 * time.Millisecond

// batchSeed derives the seed of a run's i-th extra batch.
func batchSeed(seed int64, i int) int64 { return seed*7919 + int64(i)*104729 }

// prepare builds a batch and, for serial workloads, runs every session's
// iteration 0 (corpus activation and the DBA-default probe), which belongs
// to set-up. Fleet sessions probe the default inside core.Fleet.Run.
func prepare(w workloadDef, seed int64, traced bool, scratch string, sh shape) (*batch, error) {
	b, err := w.build(seed, traced, scratch, sh)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if b.fleet == nil {
		for _, r := range b.runs {
			_, r.err = step(r)
		}
	}
	return b, nil
}

// step advances a serial session by one Step, turning a panic into an error
// so the session counts as failed instead of ending the run.
func step(r *sessionRun) (done bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			done, err = true, fmt.Errorf("session %s panicked: %v", r.name, p)
		}
	}()
	return r.sess.Step()
}

// batchStats is what one measured batch contributes.
type batchStats struct {
	runs     []*sessionRun
	allocB   uint64
	setupEnd time.Duration // fleet only: time until every session has probed its default
}

// runBatch steps every session of b to completion: one after another for a
// serial workload, all at once through core.Fleet for the fleet workload.
// A panic inside core.Fleet still ends the whole process.
func runBatch(b *batch) batchStats {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st := batchStats{runs: b.runs}
	if b.fleet != nil {
		specs := make([]core.SessionSpec, len(b.runs))
		for i, r := range b.runs {
			specs[i] = r.spec
		}
		t0 := time.Now()
		results := b.fleet.Run(specs)
		for i, r := range b.runs {
			r.res, r.err = results[i].Result, results[i].Err
			if len(r.timed.ends) > 0 {
				r.start = r.timed.ends[0]
				st.setupEnd = max(st.setupEnd, r.start.Sub(t0))
			}
		}
	} else {
		for _, r := range b.runs {
			if r.err != nil {
				continue
			}
			r.start = time.Now()
			for {
				done, err := step(r)
				if err != nil {
					r.err = err
					break
				}
				if done {
					r.res = r.sess.Result()
					break
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	st.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	return st
}
