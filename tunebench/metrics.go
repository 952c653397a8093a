package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// measured accumulates the batches of one pass.
type measured struct {
	attempted, failed int
	problems          []string
	iterMs            []float64 // one sample per tuning iteration
	wallS             float64   // time during which some session was iterating
	iters             int
	allocB            uint64
	quality           []*sessionRun // the workload's fixed batches
	fleetSetup        time.Duration // of the first batch
	firstP50          float64       // iteration latency p50 of the first batch
}

// add folds in one batch; forQuality marks the workload's fixed batches.
func (m *measured) add(st batchStats, forQuality bool) {
	firstBatch := m.attempted == 0
	if firstBatch {
		m.fleetSetup = st.setupEnd
	}
	if forQuality {
		m.quality = append(m.quality, st.runs...)
	}
	m.allocB += st.allocB
	var spans [][2]time.Time
	for _, r := range st.runs {
		m.attempted++
		if err := checkSession(r); err != nil {
			if r.err != nil {
				m.failed++
			}
			m.problems = append(m.problems, err.Error())
			continue
		}
		prev := r.start
		for _, end := range r.timed.ends[1:] {
			m.iterMs = append(m.iterMs, float64(end.Sub(prev))/1e6)
			prev = end
		}
		m.iters += len(r.timed.ends) - 1
		spans = append(spans, [2]time.Time{r.start, prev})
	}
	m.wallS += unionSeconds(spans)
	if firstBatch {
		m.firstP50 = percentile(m.iterMs, 0.5)
	}
}

func (m *measured) correct() bool { return len(m.problems) == 0 }

// checkSession verifies a finished session: no error, the full budget of
// iterations, one Measure call per iteration, and finite observations with
// θ inside the unit cube.
func checkSession(r *sessionRun) error {
	if r.err != nil {
		return fmt.Errorf("session %s: %w", r.name, r.err)
	}
	if r.res == nil || len(r.res.Iterations) != r.budget+1 {
		return fmt.Errorf("session %s: ended before its budget of %d iterations", r.name, r.budget)
	}
	if len(r.timed.ends) != r.budget+1 {
		return fmt.Errorf("session %s: %d measurements for %d iterations", r.name, len(r.timed.ends), r.budget+1)
	}
	for _, it := range r.res.Iterations {
		o := it.Observation
		if !finite(o.Res) || !finite(o.Tps) || !finite(o.Lat) {
			return fmt.Errorf("session %s: non-finite observation at iteration %d", r.name, it.Index)
		}
		for _, x := range o.Theta {
			if !(x >= 0 && x <= 1) {
				return fmt.Errorf("session %s: θ outside the unit cube at iteration %d", r.name, it.Index)
			}
		}
	}
	return nil
}

// unionSeconds is the total length of the union of time intervals: the sum
// of session spans for a serial batch, the fleet's span for a fleet batch.
func unionSeconds(spans [][2]time.Time) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, s := range spans {
		if i == 0 || s[0].After(cur[1]) {
			if i > 0 {
				total += cur[1].Sub(cur[0])
			}
			cur = s
			continue
		}
		if s[1].After(cur[1]) {
			cur[1] = s[1]
		}
	}
	if len(spans) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total.Seconds()
}

// sameDecisions reports the first session and iteration at which two runs
// of the same batch differ in θ, res, tps or lat, bit for bit.
func sameDecisions(a, b []*sessionRun) error {
	if len(a) != len(b) {
		return fmt.Errorf("decision check: %d sessions against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].res == nil || b[i].res == nil {
			return fmt.Errorf("decision check: session %s has no result", a[i].name)
		}
		if k := firstDifference(a[i].res, b[i].res); k >= 0 {
			return fmt.Errorf("decision check: session %s differs at iteration %d", a[i].name, k)
		}
	}
	return nil
}

// firstDifference returns the first iteration whose (θ, res, tps, lat)
// differ in any bit between x and y, or -1 when the traces are identical.
func firstDifference(x, y *core.Result) int {
	n := min(len(x.Iterations), len(y.Iterations))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k := 0; k < n; k++ {
		ox, oy := x.Iterations[k].Observation, y.Iterations[k].Observation
		if len(ox.Theta) != len(oy.Theta) || !same(ox.Res, oy.Res) || !same(ox.Tps, oy.Tps) || !same(ox.Lat, oy.Lat) {
			return k
		}
		for d := range ox.Theta {
			if !same(ox.Theta[d], oy.Theta[d]) {
				return k
			}
		}
	}
	if len(x.Iterations) != len(y.Iterations) {
		return n
	}
	return -1
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (0 when v is empty).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quality derives the tuning-quality metrics from the fixed batches: mean
// best-feasible improvement over the DBA default, the share of post-warm-up
// iterations that broke the SLA (load-scaled on timelines, as the session
// judged it) and the mean iteration at which each session's best-feasible
// value came within 2% of its final best — the efficiency rule of the
// repository's Figure 3 harness.
func quality(runs []*sessionRun) (improvementPct, violationPct, itersToBest float64) {
	var imp, best []float64
	violations, judged := 0, 0
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		imp = append(imp, r.res.ImprovementPct())
		best = append(best, float64(itersToWithin(r.res.BestFeasibleSeries(), 0.02)))
		for _, it := range r.res.Iterations {
			if it.Index > r.warmup {
				judged++
				if !it.Feasible {
					violations++
				}
			}
		}
	}
	if judged > 0 {
		violationPct = 100 * float64(violations) / float64(judged)
	}
	return mean(imp), violationPct, mean(best)
}

// itersToWithin returns the first iteration whose value is within tol
// (relative) of the series' final value; series is non-increasing.
func itersToWithin(series []float64, tol float64) int {
	final := series[len(series)-1]
	for i, v := range series {
		if v <= final*(1+tol) {
			return i
		}
	}
	return len(series) - 1
}

// endToEnd reports the untraced run's user-facing metrics.
func endToEnd(m *measured, setupS float64) map[string]metric {
	imp, _, _ := quality(m.quality)
	iters := float64(max(m.iters, 1))
	return map[string]metric{
		"iter_ms_p50":         {percentile(m.iterMs, 0.5), "ms"},
		"iter_ms_p90":         {percentile(m.iterMs, 0.9), "ms"},
		"iters_per_s":         {iters / m.wallS, "1/s"},
		"setup_s":             {setupS + m.fleetSetup.Seconds(), "s"},
		"res_improvement_pct": {imp, "%"},
		"alloc_mb_per_iter":   {float64(m.allocB) / 1e6 / iters, "MB"},
	}
}

// perLayer reports the traced run's per-layer breakdown. Spans carry no
// parent links, so self time follows from the known nesting:
// gp.fit_hyperparams runs inside bo.trigp.fit, and bo.trigp.fit,
// meta.dynamic_weights, bo.optimize_acq and the replay (the Measure call)
// inside core.iteration.
func perLayer(untraced, traced *measured, b *batch, setupMs map[string][]float64) map[string]metric {
	rec := newMemRecorder()
	for _, r := range b.runs {
		if r.rec != nil {
			rec.merge(r.rec)
		}
	}
	for _, o := range []*memRecorder{b.corpRec, b.fleetRec} {
		if o != nil {
			rec.merge(o)
		}
	}
	iters := float64(max(traced.iters, 1))
	perIter := func(span string) float64 { return rec.spanMs(span) / iters }

	var replayMs float64
	for _, r := range b.runs {
		for _, d := range r.timed.busy[1:] {
			replayMs += float64(d) / 1e6
		}
	}
	replayMs /= iters
	dbsimMs, minidbMs := replayMs, 0.0
	if b.engine {
		dbsimMs, minidbMs = 0, replayMs
	}

	iterMs := perIter("core.iteration")
	hyperMs := perIter("gp.fit_hyperparams")
	trigpMs := perIter("bo.trigp.fit")
	acqMs := perIter("bo.optimize_acq")
	weightsMs := perIter("meta.dynamic_weights")
	probes, _ := rec.attrMean("bo.optimize_acq", "probes_per_sec")
	_, sparseIters := rec.attrMean("core.iteration", "gp_sparse_m")

	ratio := func(num, den float64) float64 {
		if num+den == 0 {
			return 0
		}
		return num / (num + den)
	}
	shard := func(suffix string) float64 {
		return rec.counterSum(func(n string) bool {
			return strings.HasPrefix(n, "minidb.pool.shard") && strings.HasSuffix(n, suffix)
		})
	}
	fsyncs := rec.hist("minidb.wal.fsync_us")

	_, violations, toBest := quality(untraced.quality)
	errorPct := 100 * float64(untraced.failed+traced.failed) / float64(max(untraced.attempted+traced.attempted, 1))

	overhead := 0.0
	if untraced.firstP50 > 0 {
		overhead = 100 * (traced.firstP50/untraced.firstP50 - 1)
	}
	return map[string]metric{
		"core.iteration.ms_per_iter":       {iterMs, "ms"},
		"bo.optimize_acq.ms_per_iter":      {acqMs, "ms"},
		"bo.optimize_acq.probes_per_s":     {probes, "1/s"},
		"bo.trigp.fit.ms_per_iter":         {trigpMs - hyperMs, "ms"},
		"meta.dynamic_weights.ms_per_iter": {weightsMs, "ms"},
		"meta.shared_fit.hit_rate": {ratio(rec.counter("meta.shared_fit_hits"),
			rec.counter("meta.shared_fit_misses")), "ratio"},
		"meta.shared_fit.ms":             {rec.spanMs("meta.shared_fit"), "ms"},
		"meta.corpus_fits":               {rec.counter("meta.corpus_fits"), "count"},
		"meta.index_query.ms":            {rec.spanMs("meta.index_query"), "ms"},
		"gp.fit_hyperparams.ms_per_iter": {hyperMs, "ms"},
		"gp.fit_hyperparams.calls":       {float64(rec.spanCount("gp.fit_hyperparams")), "count"},
		"gp.sparse_active_iters":         {float64(sparseIters), "count"},
		"core.self_ms_per_iter":          {iterMs - trigpMs - acqMs - weightsMs - replayMs, "ms"},
		"core.sla_violation_pct":         {violations, "%"},
		"core.iters_to_best":             {toBest, "iter"},
		"core.error_pct":                 {errorPct, "%"},
		"core.drift_translations":        {rec.counter("core.drift_translations"), "count"},
		"core.drift_resets":              {rec.counter("core.drift_resets"), "count"},
		"core.fleet_steps":               {rec.counter("core.fleet_steps"), "count"},
		"dbsim.measure_ms":               {dbsimMs, "ms"},
		"minidb.measure_ms":              {minidbMs, "ms"},
		"minidb.pool.hit_rate":           {ratio(shard(".hits"), shard(".misses")), "ratio"},
		"minidb.pool.evictions":          {shard(".evictions"), "count"},
		"minidb.wal.fsyncs":              {float64(len(fsyncs)), "count"},
		"minidb.wal.fsync_us_p50":        {median(fsyncs), "us"},
		"minidb.wal.commits_per_fsync":   {mean(rec.hist("minidb.wal.commits_per_fsync")), "count"},
		"minidb.locks.waits":             {rec.counter("minidb.locks.waits"), "count"},
		"minidb.btree.latch_waits":       {rec.counter("minidb.btree.latch_waits"), "count"},
		"repo.build_ms":                  {median(setupMs["repo.build_ms"]), "ms"},
		"repo.base_learners_ms":          {median(setupMs["repo.base_learners_ms"]), "ms"},
		"workload.characterize_ms":       {median(setupMs["workload.characterize_ms"]), "ms"},
		"obs.trace_overhead_pct":         {overhead, "%"},
	}
}
