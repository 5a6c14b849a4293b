package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
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

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// and workload lists identical.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestWorkloads runs every workload at a small size, untraced and traced,
// and checks that each run emits every metric of its kind with its unit and
// passes the output checks.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(config{
					workload: name, seed: 7, seconds: 0.5, trace: trace,
					workdir: t.TempDir(), small: true,
				}, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
				if !res.Correct {
					t.Errorf("output checks failed:\n%s", log.String())
				}
			})
		}
	}
}
