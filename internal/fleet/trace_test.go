// Gate-side tracing: the router joins the forwarded trace — its route
// root, per-attempt proxy spans, and failover annotations commit under
// the exact trace id it relays to the replicas, which is what the
// mrtrace -stitch mode later joins replica exports on.

package fleet

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

const testTraceparent = "00-1af7651916cd43dd8448eb211c80319d-b7ad6b7169203331-01"

// spansOnTrace collects the gate's committed span names on the given
// trace id's thread track.
func spansOnTrace(sc *obs.Scope, traceID string) []string {
	var names []string
	for _, sp := range sc.Spans() {
		if sc.ThreadName(sp.PID, sp.TID) == "trace "+traceID {
			names = append(names, sp.Name)
		}
	}
	return names
}

// TestGateTraceJoinsForwardedTrace: a request carrying an upstream
// traceparent produces gate route + proxy spans on that same trace id,
// and the response relays the id back.
func TestGateTraceJoinsForwardedTrace(t *testing.T) {
	tracer := rt.NewTracer(rt.Options{Service: "mrgate", SampleRatio: -1})
	_, gate, _ := newFleet(t, 2, Config{Tracer: tracer})

	req, err := http.NewRequest(http.MethodPost, gate.URL+"/v1/advise",
		strings.NewReader(`{"machine":"hydra","nodes":4,"collective":"allreduce","comm_size":16}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id, _, flags, ok := rt.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || id.String() != "1af7651916cd43dd8448eb211c80319d" || flags&rt.FlagSampled == 0 {
		t.Fatalf("response traceparent %q", resp.Header.Get("traceparent"))
	}

	names := spansOnTrace(tracer.Scope(), id.String())
	var haveRoute, haveProxy bool
	for _, n := range names {
		if n == "gate /v1/advise" {
			haveRoute = true
		}
		if strings.HasPrefix(n, "proxy r") {
			haveProxy = true
		}
	}
	if !haveRoute || !haveProxy {
		t.Fatalf("gate trace %s missing route/proxy spans: %v", id, names)
	}
}

// TestGateTraceFailoverSpans: with the home replica dead, the forwarded
// trace shows the failed attempt, the backoff, and the attempt that
// answered — the per-attempt story the stitched view drills into.
func TestGateTraceFailoverSpans(t *testing.T) {
	tracer := rt.NewTracer(rt.Options{Service: "mrgate", SampleRatio: -1})
	g, gate, reps := newFleet(t, 2, Config{Tracer: tracer})
	g.sleep = func(time.Duration) {}
	body := `{"machine":"hydra","nodes":4,"collective":"allreduce","comm_size":16}`

	// Kill the request's home replica so the first attempt fails over.
	key, err := mapd.RoutingKey("/v1/advise", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	home := g.ring.Sequence(key)[0]
	reps[home].Close()

	req, err := http.NewRequest(http.MethodPost, gate.URL+"/v1/advise", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	names := spansOnTrace(tracer.Scope(), "1af7651916cd43dd8448eb211c80319d")
	proxies, backoffs := 0, 0
	for _, n := range names {
		if strings.HasPrefix(n, "proxy r") {
			proxies++
		}
		if n == "gate.backoff" {
			backoffs++
		}
	}
	if proxies < 2 || backoffs < 1 {
		t.Fatalf("failover trace spans = %v (want ≥2 proxy, ≥1 backoff)", names)
	}
}

// TestGateErrorQuotesTraceID: the gate's own error envelopes carry the
// forwarded trace id, like a replica's, so a client can quote the failing
// trace whichever tier refused it.
func TestGateErrorQuotesTraceID(t *testing.T) {
	tracer := rt.NewTracer(rt.Options{Service: "mrgate", SampleRatio: -1})
	g, gate, _ := newFleet(t, 1, Config{Tracer: tracer})
	g.StartDraining()
	req, err := http.NewRequest(http.MethodPost, gate.URL+"/v1/map", strings.NewReader(`{"hierarchy":"2,2","rank":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	const want = `{"error":{"code":503,"status":"unavailable","message":"router is draining","trace_id":"1af7651916cd43dd8448eb211c80319d"}}`
	if got := strings.TrimSpace(string(b)); resp.StatusCode != http.StatusServiceUnavailable || got != want {
		t.Errorf("draining gate answered %d %s\nwant 503 %s", resp.StatusCode, got, want)
	}
}
