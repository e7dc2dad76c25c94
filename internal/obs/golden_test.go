// Golden-path validation of the exporters against a real simulated run: a
// 2-node, 4-rank Alltoall must produce Chrome trace JSON that parses, has
// sane event shapes and the documented pid/tid mapping, and identical
// metrics across two runs.

package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// tinySpec is a 2-node × 2-core machine: ranks 0,1 on node 0 and 2,3 on
// node 1.
func tinySpec() netmodel.Spec {
	return netmodel.Spec{
		Name: "tiny",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: 2, UpBandwidth: 10e9, BusBandwidth: 20e9, Latency: 1e-6},
			{Name: "core", Arity: 2, Latency: 0.2e-6},
		},
		CoreFlops: 1e9,
	}
}

// runAlltoall runs one world-sized Alltoall under a fresh scope and
// returns the scope plus both serialized artifacts.
func runAlltoall(t *testing.T) (*obs.Scope, []byte, []byte) {
	t.Helper()
	sc := obs.New(obs.Options{P2PEvents: true})
	spec := tinySpec()
	binding := []int{0, 1, 2, 3}
	_, err := mpi.Run(spec, binding, mpi.Config{Obs: sc}, func(r *mpi.Rank) {
		w := r.World()
		w.Barrier(r)
		w.AlltoallBytes(r, 4096)
		w.Barrier(r)
	})
	if err != nil {
		t.Fatalf("mpi.Run: %v", err)
	}
	var traceBuf, promBuf bytes.Buffer
	if err := obs.WriteTraceJSON(&traceBuf, sc); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	if err := obs.WritePrometheus(&promBuf, sc.Registry()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sc, traceBuf.Bytes(), promBuf.Bytes()
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestGoldenTraceJSON(t *testing.T) {
	_, traceJSON, _ := runAlltoall(t)

	var doc struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	threadNames := map[[2]int]string{}
	lastTS := map[[2]int]float64{}
	sawSpan, sawInstant := false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				name, _ := ev.Args["name"].(string)
				threadNames[[2]int{ev.PID, ev.TID}] = name
			}
		case "X":
			sawSpan = true
			if ev.TS == nil || ev.Dur == nil {
				t.Fatalf("span %q missing ts/dur", ev.Name)
			}
			if *ev.Dur < 0 || math.IsNaN(*ev.Dur) {
				t.Errorf("span %q has dur %v", ev.Name, *ev.Dur)
			}
			key := [2]int{ev.PID, ev.TID}
			if *ev.TS < lastTS[key] {
				t.Errorf("span %q on track %v starts at %v before previous %v (not monotone)",
					ev.Name, key, *ev.TS, lastTS[key])
			}
			lastTS[key] = *ev.TS
			if ev.PID != obs.DriverPID {
				if ev.PID < 0 || ev.PID > 1 {
					t.Errorf("span %q on pid %d, want node 0 or 1", ev.Name, ev.PID)
				}
				if ev.TID < 0 || ev.TID > 3 {
					t.Errorf("span %q on tid %d, want rank 0..3", ev.Name, ev.TID)
				}
				// Ranks 0,1 live on node 0; ranks 2,3 on node 1.
				if want := ev.TID / 2; ev.PID != want {
					t.Errorf("span %q: rank %d on pid %d, want %d", ev.Name, ev.TID, ev.PID, want)
				}
			}
		case "i":
			sawInstant = true
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if !sawSpan {
		t.Error("no X (span) events recorded")
	}
	if !sawInstant {
		t.Error("P2PEvents enabled but no instant events recorded")
	}
	for rank := 0; rank < 4; rank++ {
		if name := threadNames[[2]int{rank / 2, rank}]; !strings.HasPrefix(name, "rank") {
			t.Errorf("rank %d missing thread_name metadata (got %q)", rank, name)
		}
	}
}

// TestGoldenDeterminism: a simulated run records nothing measured on the
// wall clock, so two identical runs export identical bytes, trace and
// Prometheus exposition alike.
func TestGoldenDeterminism(t *testing.T) {
	_, trace1, prom1 := runAlltoall(t)
	_, trace2, prom2 := runAlltoall(t)
	if !bytes.Equal(trace1, trace2) {
		t.Error("trace.json differs across two identical runs")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Errorf("metrics differ across two identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", prom1, prom2)
	}
}

func TestGoldenLevelBytesSumToTotal(t *testing.T) {
	sc, _, prom := runAlltoall(t)
	reg := sc.Registry()
	total := reg.FindCounter("mpi_bytes_total")
	if total <= 0 {
		t.Fatalf("mpi_bytes_total = %v, want > 0", total)
	}
	perLevel := reg.SumCounters("mpi_level_bytes_total")
	if math.Abs(total-perLevel) > 0.5 {
		t.Errorf("per-level bytes %v != total bytes %v", perLevel, total)
	}
	if !strings.Contains(string(prom), "mpi_level_bytes_total{level=\"node\"}") {
		t.Error("prometheus output missing per-level byte counter for the node level")
	}
}
