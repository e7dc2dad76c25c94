package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the layout of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the tables of this program name the same workloads
// and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: the why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %q: repeated or too long", m.Name)
		}
		seen[m.Name] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
}

func TestDriverLineHasExactlyTheContractKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &result{Traced: traced, Correct: true, Ops: opCounts{Attempted: 10, OK: 10}, Metrics: map[string]float64{}}
		line, err := driverLine(res)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("keys %v", got)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, d.Name, m.Unit)
			}
		}
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 120, "higher", -0.20},
		{0, 5, "lower", 0},
	} {
		if got := worsening(tc.a, tc.b, tc.better); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("worsening(%g, %g, %s) = %g, want %g", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}
