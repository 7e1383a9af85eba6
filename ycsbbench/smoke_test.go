package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	ws := workloads()
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, spec.Workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				res, err := run(config{
					workload: w.name, seed: 7, seconds: 200 * time.Millisecond, trace: traced,
					warmup: 50 * time.Millisecond, records: 2000, streamLen: 1 << 13,
					outDir: t.TempDir(), log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, want %s", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
