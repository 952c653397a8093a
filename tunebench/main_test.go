package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/bo"
	"repro/internal/core"
)

// tinyShape runs every workload end to end in seconds.
var tinyShape = shape{
	repoIters: 4, paperIters: 12,
	engineIters:   12,
	fleetSessions: 2, fleetIters: 14, fleetStepsPerDay: 8,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricPrintedWithUnit runs each workload at a tiny budget, traced
// and untraced, and checks that the result names exactly the metrics
// BENCHMARK.json declares for that mode, each finite and with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookupWorkload(sw.Name)
		if !ok {
			t.Fatalf("workload %q in BENCHMARK.json is unknown to the benchmark", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(w, 3, 1, traced, t.TempDir(), tinyShape)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s is %v", w.name, traced, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

func toyResult() *core.Result {
	res := &core.Result{}
	for k := 0; k < 4; k++ {
		res.Iterations = append(res.Iterations, core.Iteration{Index: k, Observation: bo.Observation{
			Theta: []float64{0.1 * float64(k), 0.5}, Res: 10 - float64(k), Tps: 100, Lat: 5,
		}})
	}
	return res
}

// TestDecisionCheckTrips flips one bit of one decision and expects the
// traced-versus-untraced identity check to name that iteration.
func TestDecisionCheckTrips(t *testing.T) {
	runs := func(r *core.Result) []*sessionRun { return []*sessionRun{{name: "s", res: r}} }
	if err := sameDecisions(runs(toyResult()), runs(toyResult())); err != nil {
		t.Fatalf("identical traces reported as different: %v", err)
	}
	for _, perturb := range []func(o *bo.Observation){
		func(o *bo.Observation) { o.Theta[1] = math.Nextafter(o.Theta[1], 1) },
		func(o *bo.Observation) { o.Res = math.Nextafter(o.Res, 0) },
		func(o *bo.Observation) { o.Tps++ },
		func(o *bo.Observation) { o.Lat = -o.Lat },
	} {
		changed := toyResult()
		perturb(&changed.Iterations[2].Observation)
		err := sameDecisions(runs(toyResult()), runs(changed))
		if err == nil || !strings.Contains(err.Error(), "iteration 2") {
			t.Errorf("perturbed iteration 2: got %v", err)
		}
	}
	short := toyResult()
	short.Iterations = short.Iterations[:3]
	if err := sameDecisions(runs(toyResult()), runs(short)); err == nil {
		t.Error("a shorter trace passed the decision check")
	}
}
