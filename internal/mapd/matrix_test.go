// End-to-end tests for /v1/map/matrix: the healthy matrix-aware search,
// digest-keyed caching, request validation, and the breaker-open degraded
// path, which must serve the σ-order baseline labeled "fallback".

package mapd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// hubMatrixBody builds a matrix-map request over a 2,2,2 hierarchy whose
// traffic concentrates on a hub rank, with the edges listed in the given
// rotation so that two bodies with different edge orderings share a digest.
func hubMatrixBody(rot int) string {
	edges := []string{
		`{"a":0,"b":7,"bytes":1000}`,
		`{"a":1,"b":7,"bytes":900}`,
		`{"a":2,"b":7,"bytes":800}`,
		`{"a":3,"b":7,"bytes":700}`,
		`{"a":4,"b":5,"bytes":10}`,
		`{"a":4,"b":6,"bytes":10}`,
	}
	rot %= len(edges)
	rotated := append(append([]string(nil), edges[rot:]...), edges[:rot]...)
	return fmt.Sprintf(`{"hierarchy":"2,2,2","matrix":{"ranks":8,"edges":[%s]},"seed":1}`,
		strings.Join(rotated, ","))
}

func decodeMatrixResp(t *testing.T, body string) *MatrixMapResponse {
	t.Helper()
	var resp MatrixMapResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding matrix response: %v\nbody: %s", err, body)
	}
	return &resp
}

func TestMatrixMapEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})

	code, body := post(t, ts, "/v1/map/matrix", hubMatrixBody(0))
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	resp := decodeMatrixResp(t, body)
	if resp.SearchMode != ModeMatrix {
		t.Errorf("search_mode %q, want %q", resp.SearchMode, ModeMatrix)
	}
	if resp.Degraded {
		t.Error("healthy answer flagged degraded")
	}
	if resp.Ranks != 8 || len(resp.Placement) != 8 {
		t.Fatalf("ranks %d, placement %v, want 8 ranks", resp.Ranks, resp.Placement)
	}
	seen := make([]bool, 8)
	for _, c := range resp.Placement {
		if c < 0 || c >= 8 || seen[c] {
			t.Fatalf("placement %v is not a permutation of 8 cores", resp.Placement)
		}
		seen[c] = true
	}
	if resp.Cost > resp.BestOrderCost {
		t.Errorf("cost %g exceeds the σ baseline %g", resp.Cost, resp.BestOrderCost)
	}
	if resp.OrdersEvaluated != 6 {
		t.Errorf("orders_evaluated = %d, want 3! = 6", resp.OrdersEvaluated)
	}
	if resp.MatrixDigest == "" {
		t.Error("response missing the matrix digest")
	}
	if len(resp.BestOrder) != 3 {
		t.Errorf("best_order %v, want a depth-3 permutation", resp.BestOrder)
	}

	// A second request with the same edges in a different order has the
	// same digest, hence the same cache key.
	code, body2 := post(t, ts, "/v1/map/matrix", hubMatrixBody(3))
	if code != http.StatusOK {
		t.Fatalf("rotated request status %d, body %s", code, body2)
	}
	if body2 != body {
		t.Errorf("digest-identical request answered differently:\n%s\n%s", body, body2)
	}
	hl := obs.L("endpoint", "map_matrix")
	if v := reg.FindCounter("mapd_cache_hits_total", hl); v != 1 {
		t.Errorf("map_matrix cache hits = %v, want 1", v)
	}

	// Workload analytics attribute the traffic to the endpoint mix.
	var rep StatsReport
	if code, sb := post0(t, ts, "/v1/stats"); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	} else if err := json.Unmarshal([]byte(sb), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints["map_matrix"] != 2 {
		t.Errorf("endpoint mix %v, want map_matrix=2", rep.Endpoints)
	}
	if rep.SearchModes[ModeMatrix] < 1 {
		t.Errorf("search modes %v missing %q", rep.SearchModes, ModeMatrix)
	}
}

// post0 GETs a path (the stats endpoint answers GET).
func post0(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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

func TestMatrixMapValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, req string
	}{
		{"rank mismatch", `{"hierarchy":"2,2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1}]}}`},
		{"self edge", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":2,"b":2,"bytes":1}]}}`},
		{"duplicate pair", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1},{"a":1,"b":0,"bytes":2}]}}`},
		{"non-positive volume", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":0}]}}`},
		{"out of range", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":9,"bytes":1}]}}`},
		{"unknown field", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"bogus":1}`},
		{"rounds out of range", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"max_rounds":65}`},
		{"too deep", `{"hierarchy":"2,2,2,2,2,2,2","matrix":{"ranks":128,"edges":[]}}`},
	}
	for _, tc := range cases {
		if code, body := post(t, ts, "/v1/map/matrix", tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, code, body)
		}
	}
}

// TestMatrixMapBreakerFallback trips the shared circuit breaker with
// timed-out matrix searches, then verifies that a breaker-open request is
// served straight from the σ-order fallback and that the degraded path is
// visible on /metrics.
func TestMatrixMapBreakerFallback(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry:     reg,
		CacheEntries: -1,
		Timeout:      time.Millisecond,
	})
	stopBreakerClock(s)
	s.MatrixHook = func() { time.Sleep(20 * time.Millisecond) }

	// Every search overruns the evaluation timeout: each answers 504 and
	// records a breaker failure, until the breaker opens.
	tripBreaker(t, s, ts, "/v1/map/matrix", hubMatrixBody(0))

	// Breaker open: even a healthy request is served from the fallback.
	s.MatrixHook = nil
	code, body := post(t, ts, "/v1/map/matrix", hubMatrixBody(0))
	if code != http.StatusOK {
		t.Fatalf("breaker-open status %d (body %s)", code, body)
	}
	resp := decodeMatrixResp(t, body)
	if !resp.Degraded || resp.SearchMode != "fallback" {
		t.Fatalf("breaker-open answer degraded=%v mode=%q, want labeled fallback", resp.Degraded, resp.SearchMode)
	}
	if v := reg.FindCounter("mapd_matrix_fallback_total"); v != 1 {
		t.Errorf("mapd_matrix_fallback_total = %v, want 1", v)
	}
	// The fallback charges the k! heuristic evaluations to mode=fallback.
	ml := obs.L("mode", "fallback")
	if v := reg.FindCounter("advisor_class_misses_total", ml); v != 6 {
		t.Errorf("fallback class misses = %v, want 3! orders = 6", v)
	}

	// Both families are on the exposition, labeled.
	_, mb := post0(t, ts, "/metrics")
	for _, want := range []string{
		"mapd_matrix_fallback_total 1",
		`advisor_search_seconds_count{mode="fallback"} 1`,
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The workload analytics see only fallback searches.
	var rep StatsReport
	if code, sb := post0(t, ts, "/v1/stats"); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	} else if err := json.Unmarshal([]byte(sb), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SearchModes["fallback"] != 1 {
		t.Errorf("search modes %v, want 1 fallback", rep.SearchModes)
	}
}
