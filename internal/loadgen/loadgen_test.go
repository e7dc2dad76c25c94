package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testConfig retries with a backoff short enough not to slow the tests.
func testConfig(retries int, targets ...string) *Config {
	return &Config{
		Client:     &http.Client{Timeout: time.Second},
		Targets:    targets,
		Retries:    retries,
		Backoff:    time.Microsecond,
		MaxBackoff: 8 * time.Microsecond,
	}
}

// do runs one logical request into a fresh Result: its outcome.
func do(c *Config, traceparent string) *Result {
	var r Result
	c.Do(&r, rand.New(rand.NewSource(1)), 0, Shot{Endpoint: "/v1/map"}, traceparent)
	return &r
}

func TestDoRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":{}}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	out := do(testConfig(3, ts.URL), "")
	if out.OK != 1 || out.GaveUp != 0 {
		t.Fatalf("outcome not ok: %+v", out.Counts)
	}
	if out.Attempts != 3 || out.Shed != 2 {
		t.Fatalf("attempts %d shed %d, want 3 and 2", out.Attempts, out.Shed)
	}
	if out.ServerErr != 0 || out.Transport != 0 || out.ClientErr != 0 {
		t.Fatalf("misclassified: %+v", out.Counts)
	}
}

func TestDoClassifiesOther5xxSeparately(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	out := do(testConfig(2, ts.URL), "")
	if out.OK != 0 || out.GaveUp != 1 {
		t.Fatalf("500s must exhaust retries: %+v", out.Counts)
	}
	if out.Attempts != 3 || out.ServerErr != 3 || out.Shed != 0 {
		t.Fatalf("attempts %d serverErr %d shed %d, want 3/3/0", out.Attempts, out.ServerErr, out.Shed)
	}
}

func TestDoDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad", http.StatusBadRequest)
	}))
	defer ts.Close()

	out := do(testConfig(5, ts.URL), "")
	if out.OK != 0 || out.GaveUp != 0 {
		t.Fatalf("4xx is a terminal client error: %+v", out.Counts)
	}
	if calls.Load() != 1 || out.Attempts != 1 || out.ClientErr != 1 {
		t.Fatalf("4xx was retried: calls %d, %+v", calls.Load(), out.Counts)
	}
}

func TestDoClassifiesTransportErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing is listening: every attempt is a transport error

	out := do(testConfig(2, ts.URL), "")
	if out.OK != 0 || out.GaveUp != 1 {
		t.Fatalf("dead server must exhaust retries: %+v", out.Counts)
	}
	if out.Transport != 3 || out.ServerErr != 0 || out.Shed != 0 {
		t.Fatalf("misclassified transport failure: %+v", out.Counts)
	}
}

// TestCountsSeparateRetriesFromGoodput: successes alone carry latencies,
// and a run's retries are its attempts beyond one per logical request.
func TestCountsSeparateRetriesFromGoodput(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	defer ts.Close()

	var all Result
	all.merge(do(testConfig(3, ts.URL), ""))
	all.merge(do(testConfig(1, dead.URL), ""))
	if all.OK != 1 || all.Attempts != 5 || all.Requests() != 2 || all.Attempts-all.Requests() != 3 {
		t.Fatalf("totals wrong: %+v", all.Counts)
	}
	if all.Shed != 2 || all.Transport != 2 || all.GaveUp != 1 {
		t.Fatalf("classification wrong: %+v", all.Counts)
	}
	if len(all.Latencies) != 1 {
		t.Fatalf("latency recorded for failed request: %+v", all.Counts)
	}
}

// TestDoInjectsTraceparentAndCapturesTraceID: the injected header
// reaches the server on every attempt, and the exemplar records the trace
// id the server's traceparent response header announces.
func TestDoInjectsTraceparentAndCapturesTraceID(t *testing.T) {
	const inject = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("traceparent"); got != inject {
			t.Errorf("attempt %d: traceparent %q, want %q", calls.Load(), got, inject)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01")
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	out := do(testConfig(2, ts.URL), inject)
	if out.OK != 1 || out.Attempts != 2 {
		t.Fatalf("outcome %+v", out.Counts)
	}
	var ids []string
	for _, b := range out.Buckets {
		if b.ExemplarID != "" {
			ids = append(ids, b.ExemplarID)
		}
	}
	if len(ids) != 1 || ids[0] != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("exemplars %q, want the response header's trace id", ids)
	}
}

// Fleet mode: a dead target costs one attempt — the retry rotates to the
// next target — and per-target counts attribute the success to the
// replica the x-mr-replica header names.
func TestDoRotatesTargetsOnRetry(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // nothing listening
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("x-mr-replica", "r1")
		w.Write([]byte(`{}`))
	}))
	defer alive.Close()

	out := do(testConfig(2, dead.URL, alive.URL), "")
	if out.OK != 1 || out.GaveUp != 0 {
		t.Fatalf("retry did not rotate to the live target: %+v", out.Counts)
	}
	if out.Attempts != 2 || out.Transport != 1 {
		t.Fatalf("attempts %d transport %d, want 2 and 1", out.Attempts, out.Transport)
	}
	if c := out.Targets[dead.URL]; c == nil || c.Transport != 1 {
		t.Fatalf("dead target not attributed: %+v", out.Targets)
	}
	if c := out.Targets["r1"]; c == nil || c.OK != 1 || len(c.Latencies) != 1 {
		t.Fatalf("success not attributed to replica r1: %+v", out.Targets)
	}
}

func TestMergePerTarget(t *testing.T) {
	var a, b, all Result
	sa := a.target("r0")
	sa.OK, sa.Attempts, sa.Latencies = 2, 3, []time.Duration{time.Millisecond, 2 * time.Millisecond}
	sb := b.target("r0")
	sb.OK, sb.Attempts, sb.Shed = 1, 2, 1
	sb2 := b.target("r1")
	sb2.OK, sb2.Attempts = 4, 4
	all.merge(&a)
	all.merge(&b)
	r0 := all.Targets["r0"]
	if r0 == nil || r0.OK != 3 || r0.Attempts != 5 || r0.Shed != 1 || len(r0.Latencies) != 2 {
		t.Fatalf("merged r0 wrong: %+v", r0)
	}
	if r1 := all.Targets["r1"]; r1 == nil || r1.OK != 4 {
		t.Fatalf("merged r1 wrong: %+v", r1)
	}
}

// tp is a server's traceparent header announcing trace id (hex digits,
// zero-padded to 32); tid is that id as an exemplar records it.
func tp(id string) string  { return "00-" + tid(id) + "-00f067aa0ba902b7-01" }
func tid(id string) string { return strings.Repeat("0", 32-len(id)) + id }

// TestExemplarBucketsKeepSlowestTrace: each bucket keeps its slowest
// traced success, and merging worker histograms sums counts and prefers
// the slower exemplar.
func TestExemplarBucketsKeepSlowestTrace(t *testing.T) {
	var r Result
	r.observe(800*time.Microsecond, tp("a1")) // bucket ≤1ms
	r.observe(900*time.Microsecond, tp("b2")) // same bucket, slower: replaces
	r.observe(850*time.Microsecond, tp("c3")) // same bucket, faster: kept out
	r.observe(3*time.Millisecond, tp("d4"))   // bucket ≤5ms
	r.observe(2*time.Second, tp("e5"))        // +Inf bucket
	r.observe(4*time.Millisecond, "")         // counted, no exemplar offered
	bs := r.Buckets
	if bs[0].Count != 3 || bs[0].ExemplarID != tid("b2") {
		t.Fatalf("≤1ms bucket %+v, want count 3 exemplar b2", bs[0])
	}
	if bs[2].Count != 2 || bs[2].ExemplarID != tid("d4") {
		t.Fatalf("≤5ms bucket %+v, want count 2 exemplar d4", bs[2])
	}
	if last := bs[len(bs)-1]; last.Le != 0 || last.Count != 1 || last.ExemplarID != tid("e5") {
		t.Fatalf("+Inf bucket %+v", last)
	}

	// A boundary value lands in the bucket it bounds (Le is inclusive).
	var edge Result
	edge.observe(time.Millisecond, tp("f6"))
	if edge.Buckets[0].Count != 1 {
		t.Fatalf("1ms sample missed the ≤1ms bucket: %+v", edge.Buckets[0])
	}
	r.merge(&edge)
	if bs[0].Count != 4 || bs[0].ExemplarID != tid("f6") {
		t.Fatalf("merged ≤1ms bucket %+v, want count 4 exemplar f6 (1ms > 900µs)", bs[0])
	}
	// An exemplar-less bucket merges by position, not by its zero latency.
	var none Result
	none.observe(3*time.Second, "")
	r.merge(&none)
	if bs[0].Count != 4 || bs[len(bs)-1].Count != 2 {
		t.Fatalf("exemplar-less merge misplaced: ≤1ms %+v, +Inf %+v", bs[0], bs[len(bs)-1])
	}
}

func TestPickerRoundRobinWhenNoSkew(t *testing.T) {
	p := picker(10, 0)
	for i := 3; i < 103; i++ {
		if got := p(i, nil); got != i%10 {
			t.Fatalf("pick(%d) = %d, want %d", i, got, i%10)
		}
	}
}

func TestPickerSkewConcentrates(t *testing.T) {
	p := picker(100, 1.2)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	n := 20_000
	for i := 0; i < n; i++ {
		idx := p(i, rng)
		if idx < 0 || idx >= 100 {
			t.Fatalf("picker returned out-of-range index %d", idx)
		}
		counts[idx]++
	}
	// Zipf(1.2) over 100 items puts >35% of mass on the top 3 indices; a
	// uniform draw would give them 3%.
	if got := float64(counts[0]+counts[1]+counts[2]) / float64(n); got < 0.30 {
		t.Fatalf("skewed picker top-3 share = %.2f, want > 0.30", got)
	}
	// And the distribution must be monotone-ish: the first index beats the
	// fiftieth by a wide margin.
	if counts[0] < 4*counts[49] {
		t.Fatalf("counts[0]=%d not ≫ counts[49]=%d", counts[0], counts[49])
	}
}

// TestRunIssuesExactlyRequests: the shared ticket stops the workers after
// exactly Requests logical requests, however many workers race for it.
// Requests 0 sets no count limit, so that case runs on a context that is
// already done and must issue nothing.
func TestRunIssuesExactlyRequests(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	done, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 3, 8} {
		for n := 0; n <= 17; n++ {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				served.Store(0)
				ctx := context.Background()
				if n == 0 {
					ctx = done
				}
				res := Run(ctx, Config{
					Client: ts.Client(), Targets: []string{ts.URL},
					Shots:   []Shot{{Endpoint: "/a"}, {Endpoint: "/b"}, {Endpoint: "/c"}},
					Workers: workers, Requests: n,
				})
				if served.Load() != int64(n) || res.OK != int64(n) || res.Requests() != int64(n) || len(res.Latencies) != n {
					t.Fatalf("served %d, ok %d, requests %d, latencies %d; want %d each",
						served.Load(), res.OK, res.Requests(), len(res.Latencies), n)
				}
			})
		}
	}
}

// TestRunDeadlineFinishesInFlightRequest: the context is checked between
// requests, so a request still in flight when it ends completes and
// counts as a success, never as a transport error.
func TestRunDeadlineFinishesInFlightRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel()                          // the run's end arrives mid-request …
		time.Sleep(20 * time.Millisecond) // … and the handler keeps blocking past it
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	res := Run(ctx, Config{
		Client: ts.Client(), Targets: []string{ts.URL},
		Shots: []Shot{{Endpoint: "/v1/map"}}, Workers: 1,
	})
	if res.OK != 1 || res.Transport != 0 || res.GaveUp != 0 || res.Attempts != 1 {
		t.Fatalf("in-flight request at the deadline: %+v, want 1 ok and 0 transport errors", res.Counts)
	}
}
