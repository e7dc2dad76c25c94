package serve

import (
	"encoding/json"
	"strings"
)

// Verify checks, outside the timed path, every answer the window kept —
// for a hot workload the pre-warmed answers that every op was compared
// with — and then the fixed golden requests. It returns the number of
// wrong answers and the first failure.
func (r *Running) Verify(g *Golden) (int, error) {
	wrong := 0
	var first error
	check := func(a answer) {
		if !served(a.reply) {
			return // already counted as a failed op by the loop
		}
		if err := checkAnswer(a, g); err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	for _, a := range r.warm {
		check(a)
	}
	for _, as := range r.answers {
		for _, a := range as {
			check(a)
		}
	}
	if err := r.CheckGolden(g); err != nil {
		wrong++
		if first == nil {
			first = err
		}
	}
	return wrong, first
}

// Counters is one reading of the gate's and the replicas' /metrics.
type Counters struct{ Gate, Replicas Scrape }

// ReadCounters scrapes the gate and both replicas.
func (r *Running) ReadCounters() (Counters, error) {
	gate, err := scrape(r.clients[0], r.fleet.GateURL)
	if err != nil {
		return Counters{}, err
	}
	reps, err := scrapeAll(r.clients[0], r.fleet.ReplicaURLs...)
	return Counters{gate, reps}, err
}

// LayerMetrics derives the window's per-layer numbers of the serving
// tier from the counters read before and after it, the client's mean
// latency over the same requests, and the kept answers.
func (r *Running) LayerMetrics(before, after Counters, clientMeanMs float64) map[string]float64 {
	gate := func(name string) float64 { return after.Gate[name] - before.Gate[name] }
	rep := func(name string) float64 { return after.Replicas[name] - before.Replicas[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	gateMeanUs := 1e6 * ratio(gate("fleet_request_seconds_sum"), gate("fleet_request_seconds_count"))
	// What a request spends outside the gate's handler: both network
	// stacks and the load generator itself.
	m["client.net_us_per_req"] = clientMeanMs*1e3 - gateMeanUs
	m["fleet.gate_self_us_per_req"] = 1e6 * ratio(gate("fleet_request_seconds_sum")-rep("mapd_request_seconds_sum"),
		gate("fleet_request_seconds_count"))
	m["fleet.failovers_total"] = gate("fleet_failovers_total")
	m["fleet.retries_total"] = gate("fleet_retries_total")
	m["fleet.hedges_total"] = gate("fleet_hedges_total")
	var shareMax, shareSum float64
	for series := range after.Gate {
		if strings.HasPrefix(series, `fleet_requests_total{code="200"`) {
			d := gate(series)
			shareSum += d
			if d > shareMax {
				shareMax = d
			}
		}
	}
	m["fleet.replica_share_max"] = ratio(shareMax, shareSum)
	m["mapd.server_us_per_req"] = 1e6 * ratio(rep("mapd_request_seconds_sum"), rep("mapd_request_seconds_count"))
	hits, misses := rep("mapd_cache_hits_total"), rep("mapd_cache_misses_total")
	m["mapd.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["mapd.singleflight_shared_total"] = rep("mapd_singleflight_shared_total")
	m["mapd.shed_total"] = rep("mapd_shed_total")
	m["mapd.advise_fallback_total"] = rep("mapd_advise_fallback_total")
	m["mapd.matrix_fallback_total"] = rep("mapd_matrix_fallback_total")

	// Useful-work ratio of the search: model evaluations performed per
	// order the answer accounts for, over the advises of the window (of
	// the pre-warm pass for a hot workload).
	var evaluated, accounted float64
	count := func(a answer) {
		if a.v.kind != kindAdvise || !served(a.reply) {
			return
		}
		var w wire
		if json.Unmarshal(a.reply.Body, &w) == nil {
			evaluated += float64(w.OrdersEval)
			accounted += float64(w.Evaluated)
		}
	}
	for _, a := range r.warm {
		count(a)
	}
	for _, as := range r.answers {
		for _, a := range as {
			count(a)
		}
	}
	m["advisor.orders_evaluated_ratio"] = ratio(evaluated, accounted)
	return m
}
