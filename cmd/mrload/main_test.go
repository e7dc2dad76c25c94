package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func TestBuildReportJSON(t *testing.T) {
	res := &loadgen.Result{Counts: loadgen.Counts{
		OK: 90, Attempts: 100, Shed: 7,
		Latencies: []time.Duration{
			time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 100 * time.Millisecond,
		},
	}}
	res.Buckets = []loadgen.Bucket{{Le: 2500 * time.Microsecond, Count: 1, ExemplarID: "abc", ExemplarLat: 2 * time.Millisecond}, {}}
	rep := buildReport(res, 2*time.Second, 8, 42, 1.2)
	if rep.GoodputReqS != 45 || rep.Retries != 10 {
		t.Fatalf("goodput = %v, retries = %d, want 45 and 10", rep.GoodputReqS, rep.Retries)
	}
	if rep.P50Ms != 2 || rep.MaxMs != 100 {
		t.Fatalf("p50 = %v, max = %v", rep.P50Ms, rep.MaxMs)
	}
	if rep.Skew != 1.2 || rep.Workers != 8 || rep.Shapes != 42 {
		t.Fatalf("config echo wrong: %+v", rep)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shed != 7 || len(back.Buckets) != 1 || back.Buckets[0].ExemplarTrace != "abc" || back.Buckets[0].LeMs != 2.5 {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
}

func TestTargetReportsSortedWithPercentiles(t *testing.T) {
	r1 := &loadgen.Counts{OK: 10, Attempts: 12}
	for i := 1; i <= 10; i++ {
		r1.Latencies = append(r1.Latencies, time.Duration(i)*time.Millisecond)
	}
	res := &loadgen.Result{Targets: map[string]*loadgen.Counts{
		"r1": r1,
		"r0": {OK: 5, Attempts: 6, Transport: 1},
	}}

	rows := targetReports(res.Targets, 2*time.Second)
	if len(rows) != 2 || rows[0].Target != "r0" || rows[1].Target != "r1" {
		t.Fatalf("rows not sorted by target: %+v", rows)
	}
	if rows[1].GoodputReqS != 5 {
		t.Fatalf("r1 goodput %v, want 10/2s = 5", rows[1].GoodputReqS)
	}
	if rows[1].P50Ms != 5 || rows[1].P99Ms != 9 {
		t.Fatalf("r1 percentiles p50=%v p99=%v, want 5 and 9", rows[1].P50Ms, rows[1].P99Ms)
	}

	// And they survive the JSON round trip inside the report.
	b, err := json.Marshal(buildReport(res, 2*time.Second, 4, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Targets) != 2 || back.Targets[1].OK != 10 {
		t.Fatalf("targets lost in round trip: %+v", back.Targets)
	}
}

// traceServer answers POST <path> after sleeps[path] with a traceparent
// header announcing trace id ids[path] (hex digits, zero-padded to 32).
func traceServer(t *testing.T, ids map[string]string, sleeps map[string]time.Duration) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(sleeps[r.URL.Path])
		w.Header().Set("traceparent", "00-"+traceID(ids[r.URL.Path])+"-00f067aa0ba902b7-01")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func traceID(id string) string { return strings.Repeat("0", 32-len(id)) + id }

// runShots issues one logical request per shot, in order, with the given
// number of workers, and folds the run into mrload's report.
func runShots(ts *httptest.Server, workers int, paths ...string) report {
	cfg := loadgen.Config{Client: ts.Client(), Targets: []string{ts.URL}, Workers: workers, Requests: len(paths)}
	for _, p := range paths {
		cfg.Shots = append(cfg.Shots, loadgen.Shot{Endpoint: p})
	}
	return buildReport(loadgen.Run(context.Background(), cfg), time.Second, workers, len(paths), 0)
}

// TestExemplarBucketsKeepSlowestTrace: the report's histogram names, per
// bucket, the slowest traced success in it, and prints it.
func TestExemplarBucketsKeepSlowestTrace(t *testing.T) {
	ts := traceServer(t,
		map[string]string{"/v1/fast": "a1", "/v1/slow": "b2", "/v1/slower": "c3"},
		map[string]time.Duration{"/v1/slow": 300 * time.Millisecond, "/v1/slower": 600 * time.Millisecond})
	rep := runShots(ts, 1, "/v1/fast", "/v1/slow", "/v1/slower")
	if rep.OK != 3 {
		t.Fatalf("ok %d, want 3", rep.OK)
	}
	var n int64
	for _, b := range rep.Buckets {
		n += b.Count
		if b.ExemplarTrace == "" || (b.LeMs > 0 && b.ExemplarMs > b.LeMs) {
			t.Fatalf("bucket %+v lacks an exemplar inside its bound", b)
		}
	}
	if n != 3 {
		t.Fatalf("histogram holds %d samples, want 3: %+v", n, rep.Buckets)
	}
	// Both slow requests land in (250ms, 1s]; the slower one is its exemplar.
	top := rep.Buckets[len(rep.Buckets)-1]
	if top.LeMs != 1000 || top.Count != 2 || top.ExemplarTrace != traceID("c3") || top.ExemplarMs != rep.MaxMs {
		t.Fatalf("≤1s bucket %+v, want count 2 exemplar c3 at max %vms", top, rep.MaxMs)
	}
	if first := rep.Buckets[0]; first.ExemplarTrace != traceID("a1") {
		t.Fatalf("fastest bucket %+v, want exemplar a1", first)
	}

	var buf strings.Builder
	writeText(&buf, rep)
	for _, want := range []string{"≤ 1s", traceID("c3"), traceID("a1")} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), traceID("b2")) {
		t.Fatalf("report names the faster b2 as an exemplar:\n%s", buf.String())
	}
}

// TestTotalsCollectExemplarBuckets: the report's histogram holds every
// worker's successes, with each worker's exemplars.
func TestTotalsCollectExemplarBuckets(t *testing.T) {
	ts := traceServer(t,
		map[string]string{"/v1/fast": "e1", "/v1/slow": "e2"},
		map[string]time.Duration{"/v1/slow": 300 * time.Millisecond})
	rep := runShots(ts, 2, "/v1/fast", "/v1/slow")
	var n int64
	for _, b := range rep.Buckets {
		n += b.Count
	}
	if n != 2 || len(rep.Buckets) != 2 {
		t.Fatalf("histogram %+v, want 2 samples in 2 buckets", rep.Buckets)
	}
	var buf strings.Builder
	writeText(&buf, rep)
	if !strings.Contains(buf.String(), traceID("e1")) || !strings.Contains(buf.String(), traceID("e2")) {
		t.Fatalf("merged exemplars missing:\n%s", buf.String())
	}
}

// reportGolden pins the -json key names and order: `make smoke-fleet`
// greps `"gave_up": 0`, `"other_5xx": 0`, and `"ok"` on the line after
// `"target"`.
const reportGolden = `{
  "ok": 1200,
  "attempts": 1210,
  "retries": 8,
  "shed_503": 6,
  "other_5xx": 0,
  "client_4xx": 2,
  "transport_errors": 4,
  "gave_up": 0,
  "duration_seconds": 3,
  "workers": 16,
  "shapes": 79,
  "skew": 0,
  "goodput_req_s": 400,
  "p50_ms": 1.5,
  "p90_ms": 4,
  "p99_ms": 9.25,
  "max_ms": 30,
  "latency_buckets": [
    {
      "le_ms": 2.5,
      "count": 1100,
      "exemplar_trace": "0af7651916cd43dd8448eb211c80319c",
      "exemplar_ms": 2.4,
      "gate_ms": 2.1,
      "server_ms": 1.7
    },
    {
      "le_ms": 0,
      "count": 100
    }
  ],
  "targets": [
    {
      "target": "r0",
      "ok": 700,
      "attempts": 702,
      "shed_503": 2,
      "other_5xx": 0,
      "transport_errors": 0,
      "goodput_req_s": 233.33333333333334,
      "p50_ms": 1.4,
      "p90_ms": 3.9,
      "p99_ms": 9
    },
    {
      "target": "r1",
      "ok": 500,
      "attempts": 508,
      "shed_503": 4,
      "other_5xx": 0,
      "transport_errors": 4,
      "goodput_req_s": 166.66666666666666,
      "p50_ms": 1.6,
      "p90_ms": 4.1,
      "p99_ms": 9.5
    }
  ]
}
`

func TestReportJSONGolden(t *testing.T) {
	r := report{
		OK: 1200, Attempts: 1210, Retries: 8, Shed: 6, ClientErr: 2, Transport: 4,
		DurationSeconds: 3, Workers: 16, Shapes: 79,
		GoodputReqS: 400, P50Ms: 1.5, P90Ms: 4, P99Ms: 9.25, MaxMs: 30,
		Buckets: []bucketReport{
			{LeMs: 2.5, Count: 1100, ExemplarTrace: "0af7651916cd43dd8448eb211c80319c", ExemplarMs: 2.4, GateMs: 2.1, ServerMs: 1.7},
			{Count: 100},
		},
		Targets: []targetReport{
			{Target: "r0", OK: 700, Attempts: 702, Shed: 2, GoodputReqS: 700.0 / 3, P50Ms: 1.4, P90Ms: 3.9, P99Ms: 9},
			{Target: "r1", OK: 500, Attempts: 508, Shed: 4, Transport: 4, GoodputReqS: 500.0 / 3, P50Ms: 1.6, P90Ms: 4.1, P99Ms: 9.5},
		},
	}
	var got strings.Builder
	if err := writeJSON(&got, r); err != nil {
		t.Fatal(err)
	}
	if got.String() != reportGolden {
		t.Fatalf("-json bytes changed:\n%s\nwant:\n%s", got.String(), reportGolden)
	}
}
