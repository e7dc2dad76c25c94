// Fleet rollup: merged /v1/fleet/stats and /v1/fleet/slo answers,
// per-replica outlier scoring, scrape-failure handling, and the
// promtool-style lint of the fleet_* exposition.

package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// newStubFleet builds a router over stub replicas that answer /healthz
// healthy and serve the given fixed /v1/stats and /v1/slo documents.
func newStubFleet(t *testing.T, stats []mapd.StatsReport, slos []rt.SLOReport) (*Router, *httptest.Server) {
	t.Helper()
	n := len(stats)
	if n == 0 {
		n = len(slos)
	}
	var urls []string
	for i := 0; i < n; i++ {
		i := i
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"status":"healthy"}`))
		})
		mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			if i >= len(stats) {
				http.Error(w, "no stats", http.StatusInternalServerError)
				return
			}
			b, _ := json.Marshal(stats[i])
			_, _ = w.Write(b)
		})
		mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, r *http.Request) {
			if i >= len(slos) {
				http.Error(w, "no slo", http.StatusInternalServerError)
				return
			}
			b, _ := json.Marshal(slos[i])
			_, _ = w.Write(b)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{Replicas: urls, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gate := httptest.NewServer(g.Handler())
	t.Cleanup(gate.Close)
	return g, gate
}

func gateGet(t *testing.T, gate *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(gate.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// stubStats builds a minimal replica stats report whose summary is not
// full (no eviction floors), so merges are exact.
func stubStats(total uint64, classes ...mapd.ClassReport) mapd.StatsReport {
	return mapd.StatsReport{
		TotalRequests:  total,
		TrackedClasses: len(classes),
		MaxClasses:     mapd.DefaultStatsClasses,
		Classes:        classes,
		Collectives:    map[string]uint64{"alltoall": total},
		SearchModes:    map[string]uint64{},
		Endpoints:      map[string]uint64{"advise": total},
	}
}

// TestFleetStatsGolden pins the merged /v1/fleet/stats answer over two
// deterministic replicas: exact class sums, per-replica divergence, and
// an outlier flag on the replica whose shape mix diverges from the
// fleet's with enough traffic to mean it.
func TestFleetStatsGolden(t *testing.T) {
	r0 := stubStats(180,
		mapd.ClassReport{Shape: "2,2", Requests: 90, CacheHits: 45, CacheHitRate: 0.5, P50Ms: 1, P99Ms: 2},
		mapd.ClassReport{Shape: "3,3", Requests: 90, P50Ms: 2, P99Ms: 3},
	)
	r1 := stubStats(40,
		mapd.ClassReport{Shape: "9,9", Requests: 40, P50Ms: 5, P99Ms: 9},
	)
	_, gate := newStubFleet(t, []mapd.StatsReport{r0, r1}, nil)
	code, body := gateGet(t, gate, "/v1/fleet/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got FleetStats
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Replicas != 2 || got.Scraped != 2 {
		t.Fatalf("replicas/scraped = %d/%d", got.Replicas, got.Scraped)
	}
	if got.Merged.TotalRequests != 220 {
		t.Fatalf("merged total %d", got.Merged.TotalRequests)
	}
	wantClasses := []mapd.ClassReport{
		{Shape: "2,2", Requests: 90, CacheHits: 45, CacheHitRate: 0.5, P50Ms: 1, P99Ms: 2},
		{Shape: "3,3", Requests: 90, P50Ms: 2, P99Ms: 3},
		{Shape: "9,9", Requests: 40, P50Ms: 5, P99Ms: 9},
	}
	if len(got.Merged.Classes) != len(wantClasses) {
		t.Fatalf("merged classes = %+v", got.Merged.Classes)
	}
	for i, want := range wantClasses {
		if got.Merged.Classes[i] != want {
			t.Fatalf("merged class %d = %+v, want %+v", i, got.Merged.Classes[i], want)
		}
	}
	if got.Merged.Collectives["alltoall"] != 220 || got.Merged.Endpoints["advise"] != 220 {
		t.Fatalf("merged histograms = %+v / %+v", got.Merged.Collectives, got.Merged.Endpoints)
	}
	if len(got.PerReplica) != 2 {
		t.Fatalf("per_replica = %+v", got.PerReplica)
	}
	p0, p1 := got.PerReplica[0], got.PerReplica[1]
	if p0.Name != "r0" || p0.State != "healthy" || p0.TotalRequests != 180 {
		t.Fatalf("r0 row = %+v", p0)
	}
	// r0 tracks the fleet mix closely; r1 serves a disjoint shape with
	// enough traffic to clear the noise floor.
	if p0.Outlier || p0.ShapeDivergence >= shapeOutlierThreshold {
		t.Fatalf("r0 flagged an outlier: %+v", p0)
	}
	if !p1.Outlier || p1.ShapeDivergence < shapeOutlierThreshold {
		t.Fatalf("r1 not flagged an outlier: %+v", p1)
	}

	// /v1/fleet reflects the rollup's scores.
	code, body = gateGet(t, gate, "/v1/fleet")
	if code != http.StatusOK {
		t.Fatalf("/v1/fleet status %d", code)
	}
	if !strings.Contains(body, `"outlier":true`) || !strings.Contains(body, `"shape_divergence"`) {
		t.Fatalf("/v1/fleet missing rollup scores: %s", body)
	}
}

// stubSLO builds a single-endpoint SLO report with the given counts in
// two windows.
func stubSLO(requests, errors uint64) rt.SLOReport {
	win := func(w string) rt.WindowSLO {
		ws := rt.WindowSLO{
			Window: w, Requests: requests, Errors: errors,
			Availability:     1,
			AvailabilityBurn: float64(errors) / float64(requests) / 0.001,
		}
		if requests > 0 {
			ws.Availability = float64(requests-errors) / float64(requests)
		}
		return ws
	}
	return rt.SLOReport{
		AvailabilityTarget: 0.999,
		LatencyThreshold:   "250ms",
		LatencyObjective:   0.99,
		FastBurnFactor:     14,
		Endpoints: []rt.EndpointSLO{{
			Endpoint: "advise",
			Windows:  []rt.WindowSLO{win("1m0s"), win("5m0s")},
		}},
	}
}

// TestFleetSLORollup: windows merge by summing raw counts with burn
// rates recomputed on the union, and a replica burning far above the
// fleet is flagged burn_outlier.
func TestFleetSLORollup(t *testing.T) {
	quiet := stubSLO(10000, 0)
	burning := stubSLO(100, 50) // burn 500 vs fleet ≈ 4.95
	_, gate := newStubFleet(t, nil, []rt.SLOReport{quiet, burning})
	code, body := gateGet(t, gate, "/v1/fleet/slo")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got FleetSLO
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.AvailabilityTarget != 0.999 || got.Scraped != 2 {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Endpoints) != 1 || len(got.Endpoints[0].Windows) != 2 {
		t.Fatalf("endpoints = %+v", got.Endpoints)
	}
	w := got.Endpoints[0].Windows[0]
	if w.Requests != 10100 || w.Errors != 50 {
		t.Fatalf("merged window = %+v", w)
	}
	wantBurn := (50.0 / 10100.0) / 0.001
	if w.AvailabilityBurn < wantBurn-1e-9 || w.AvailabilityBurn > wantBurn+1e-9 {
		t.Fatalf("merged burn %v, want %v", w.AvailabilityBurn, wantBurn)
	}
	if got.FastBurning {
		t.Fatalf("fleet flagged fast-burning at burn %v", w.AvailabilityBurn)
	}
	if len(got.PerReplica) != 2 {
		t.Fatalf("per_replica = %+v", got.PerReplica)
	}
	if got.PerReplica[0].BurnOutlier {
		t.Fatalf("quiet replica flagged: %+v", got.PerReplica[0])
	}
	wantRep := (50.0 / 100.0) / 0.001
	if !got.PerReplica[1].BurnOutlier || got.PerReplica[1].BurnRate != wantRep {
		t.Fatalf("burning replica not flagged: %+v", got.PerReplica[1])
	}
}

// TestFleetRollupScrapeFailure: a replica that fails its scrape is
// excluded from the merge and reported with the error.
func TestFleetRollupScrapeFailure(t *testing.T) {
	r0 := stubStats(100, mapd.ClassReport{Shape: "2,2", Requests: 100})
	g, gate := newStubFleet(t, []mapd.StatsReport{r0}, nil)
	// Second replica: /v1/stats 500s (the stub has no document for it).
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"healthy"}`))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	g2, err := New(Config{Replicas: []string{g.cfg.Replicas[0], ts.URL}, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	gate2 := httptest.NewServer(g2.Handler())
	t.Cleanup(gate2.Close)
	_ = gate

	code, body := gateGet(t, gate2, "/v1/fleet/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got FleetStats
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Scraped != 1 || got.Merged.TotalRequests != 100 {
		t.Fatalf("merge included the failed replica: %+v", got)
	}
	if got.PerReplica[1].Error == "" {
		t.Fatalf("failed scrape not reported: %+v", got.PerReplica[1])
	}
}

// TestFleetExpositionLint: the gate's /metrics passes the promtool-style
// lint and every fleet_* metric with samples carries a HELP line, also
// after a rollup ran. The rollup's per-replica scores are served on
// /v1/fleet only, never as series.
func TestFleetExpositionLint(t *testing.T) {
	r0 := stubStats(100, mapd.ClassReport{Shape: "2,2", Requests: 100})
	_, gate := newStubFleet(t, []mapd.StatsReport{r0}, []rt.SLOReport{stubSLO(100, 1)})
	gateGet(t, gate, "/v1/fleet/stats")
	gateGet(t, gate, "/v1/fleet/slo")
	code, out := gateGet(t, gate, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if _, err := obs.LintPrometheus(out); err != nil {
		t.Fatalf("fleet exposition fails lint: %v", err)
	}
	if strings.Contains(out, "fleet_replica_") {
		t.Fatalf("exposition carries per-replica rollup series:\n%s", out)
	}
	if _, status := gateGet(t, gate, "/v1/fleet"); !strings.Contains(status, `"burn_rate"`) {
		t.Fatalf("/v1/fleet missing the rollup's burn rate: %s", status)
	}
	if missing := obs.MissingHelp(out, "fleet_"); len(missing) != 0 {
		t.Fatalf("fleet_* metrics missing HELP: %v", missing)
	}
}
