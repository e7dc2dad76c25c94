// The serving suite: boots the real mapd handler in-process behind an
// httptest listener and drives it with internal/loadgen — the client
// mrload applies to a live daemon, here hermetic enough for the
// regression gate. ns/op is the closed-loop per-request latency; req/s
// and latency percentiles ride along as custom metrics.

package perf

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/loadgen"
	"repro/internal/mapd"
)

// servingWorkload builds the request mix. Cache-friendly: a bounded set
// of distinct shapes, so after the first pass the daemon serves hits.
func servingWorkload() []loadgen.Shot {
	var shots []loadgen.Shot
	add := func(endpoint string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		shots = append(shots, loadgen.Shot{Endpoint: endpoint, Body: b})
	}
	rank := 5
	for _, h := range []string{"2,2,4", "2,4,2,8", "16,2,2,8"} {
		add("/v1/map", mapd.MapRequest{Hierarchy: h, Rank: &rank})
		add("/v1/metrics/order", mapd.OrderMetricsRequest{Hierarchy: h})
		add("/v1/select", mapd.SelectRequest{Hierarchy: h, N: 8})
	}
	shots = append(shots, adviseWorkload()...)
	return shots
}

// adviseWorkload is the evaluation-heavy slice: one advise scenario, so
// the cache-off benchmark measures the order search end to end.
func adviseWorkload() []loadgen.Shot {
	b, err := json.Marshal(mapd.AdviseRequest{
		Machine: "hydra", Nodes: 4, Collective: "alltoall", CommSize: 16,
	})
	if err != nil {
		panic(err)
	}
	return []loadgen.Shot{{Endpoint: "/v1/advise", Body: b}}
}

// driveLoad is the timed body of the serving and fleet benchmarks: with
// warm, one untimed pass over the shots first, then b.N requests from 8
// closed-loop workers against url, reporting req/s and the p50/p99
// latencies. A request that does not answer 200 fails the benchmark.
func driveLoad(b *B, url string, shots []loadgen.Shot, warm bool) {
	const workers = 8
	cfg := loadgen.Config{
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		}},
		Targets: []string{url},
		Shots:   shots,
		Workers: workers,
	}
	run := func(what string, n int) *loadgen.Result {
		cfg.Requests = n
		res := loadgen.Run(context.Background(), cfg)
		if res.OK != int64(n) {
			b.Fatalf("%s: %d of %d requests ok (%d 4xx, %d 503, %d other 5xx, %d transport)",
				what, res.OK, n, res.ClientErr, res.Shed, res.ServerErr, res.Transport)
		}
		return res
	}
	if warm {
		run("warmup", len(shots))
	}
	b.ResetTimer()
	start := time.Now()
	res := run("load", b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(loadgen.Percentile(res.Latencies, 0.50).Microseconds()), "p50_us")
	b.ReportMetric(float64(loadgen.Percentile(res.Latencies, 0.99).Microseconds()), "p99_us")
}

// ServingSuite benchmarks the end-to-end request path of the in-process
// mapd handler: a cache-hot mixed workload (the steady state the service
// is designed for) and a cache-off advise workload (the evaluation path).
func ServingSuite() Suite {
	s := Suite{
		Name:        "serving",
		Description: "in-process mapd handler under closed-loop load",
		// Serving latency is the noisiest family; the gate tolerates more.
		Threshold: 0.50,
	}
	mk := func(cacheEntries int, shots []loadgen.Shot, warm bool) func(*B) {
		return func(b *B) {
			ts := httptest.NewServer(mapd.New(mapd.Config{CacheEntries: cacheEntries}).Handler())
			defer ts.Close()
			driveLoad(b, ts.URL, shots, warm)
		}
	}
	s.Benches = append(s.Benches,
		Bench{Name: "Serving/mixed/cache-hot", F: mk(4096, servingWorkload(), true)},
		Bench{Name: "Serving/advise/no-cache", F: mk(-1, adviseWorkload(), false)},
	)
	return s
}
