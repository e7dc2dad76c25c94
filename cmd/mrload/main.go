// Command mrload is a closed-loop load generator for mrserved: a fixed
// number of workers each keep exactly one request in flight against a
// mixed workload spanning all the query endpoints, then report goodput
// and latency percentiles. It is the measurable baseline for the serving
// path, and doubles as the degraded-mode probe: failed attempts are
// classified (shed 503s, other 5xx, 4xx, transport errors) and retried
// with capped exponential backoff plus jitter, honouring Retry-After.
//
// Usage:
//
//	mrserved &
//	mrload -url http://127.0.0.1:8077 -c 64 -d 10s
//	mrload -retries 5 -backoff 5ms -maxbackoff 500ms   # overload runs
//
// The workload mixes distinct request shapes (different hierarchies,
// orders, ranks, machines, collectives), so after a warm-up pass the
// daemon serves from its result cache — the steady state the service is
// designed for. Use -spread to multiply the number of distinct advise
// scenarios and exercise the evaluation path instead.
//
// -skew draws requests from a Zipf (power-law) distribution over the
// shot pool instead of uniformly, so a handful of shapes dominate — the
// realistic mix that exercises mapd's top-K workload analytics. -json
// replaces the human report with a machine-readable summary for
// experiment scripts; adding -stitched <file> resolves each latency
// bucket's exemplar trace id through a stitched gate+replica trace
// (mrtrace -stitch) into a gate_ms/server_ms split, so a slow bucket
// says at a glance whether the gate or the replica ate the time.
//
// Exit status is 1 only when not a single request succeeded; a degraded
// run with nonzero goodput exits 0 so overload experiments can record it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/commmatrix"
	"repro/internal/fleet"
	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/procmap"
)

type shot struct {
	endpoint string
	body     []byte
}

// workload builds the pool of request bodies the workers cycle through.
func workload(spread int) []shot {
	var shots []shot
	add := func(endpoint string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		shots = append(shots, shot{endpoint: endpoint, body: b})
	}
	hiers := []string{"2,2,4", "2,4,2,8", "16,2,2,8", "4,2,2,2,4"}
	orders := map[string][]string{
		"2,2,4":     {"", "0-1-2", "2-1-0", "1-2-0"},
		"2,4,2,8":   {"", "3-2-1-0", "0-1-2-3", "2-1-0-3"},
		"16,2,2,8":  {"", "3-2-1-0", "0-3-2-1"},
		"4,2,2,2,4": {"", "4-3-2-1-0", "0-1-2-3-4"},
	}
	for _, h := range hiers {
		for _, o := range orders[h] {
			for _, r := range []int{0, 5, 13} {
				rank := r
				add("/v1/map", mapd.MapRequest{Hierarchy: h, Order: o, Rank: &rank})
			}
			add("/v1/map", mapd.MapRequest{Hierarchy: h, Order: o, Table: true})
			add("/v1/metrics/order", mapd.OrderMetricsRequest{Hierarchy: h, Order: o})
			add("/v1/select", mapd.SelectRequest{Hierarchy: h, Order: o, N: 8})
		}
	}
	// Matrix-aware placement shots: small synthetic workloads so one
	// request stays cheap, with two seeds per matrix for distinct keys.
	matrices := []struct {
		hier string
		gen  func() (*commmatrix.Matrix, error)
	}{
		{"2,4,4", func() (*commmatrix.Matrix, error) { return procmap.Halo(4, 8, 1024) }},
		{"2,2,8", func() (*commmatrix.Matrix, error) { return procmap.Halo(8, 4, 4096) }},
		{"2,2,4", func() (*commmatrix.Matrix, error) {
			return procmap.GridLayers([3]int{2, 2, 4}, [3]float64{10, 1000, 10})
		}},
	}
	for _, mw := range matrices {
		m, err := mw.gen()
		if err != nil {
			panic(err)
		}
		for _, seed := range []int64{0, 1} {
			add("/v1/map/matrix", mapd.MatrixMapRequest{
				Hierarchy: mw.hier,
				Matrix:    m.Sparse(),
				Seed:      seed,
			})
		}
	}
	for i := 0; i < spread; i++ {
		for _, m := range []string{"hydra", "lumi"} {
			for _, coll := range []string{"alltoall", "allgather", "allreduce"} {
				add("/v1/advise", mapd.AdviseRequest{
					Machine:    m,
					Nodes:      4 + 4*i,
					Collective: coll,
					CommSize:   16,
					Bytes:      int64(1) << (20 + uint(i)%4),
				})
			}
		}
	}
	return shots
}

// retryPolicy tunes the client-side retry loop.
type retryPolicy struct {
	retries    int           // retry attempts after the first try
	backoff    time.Duration // base delay, doubled per attempt
	maxBackoff time.Duration // delay cap
	sleep      func(time.Duration)
}

// delay is the router's own backoff curve for the given zero-based
// attempt, drawn from the worker's seeded rng.
func (p retryPolicy) delay(attempt int, retryAfter time.Duration, rng *rand.Rand) time.Duration {
	return fleet.BackoffDelay(p.backoff, p.maxBackoff, attempt, retryAfter, rng.Int63n)
}

// targetStats is the per-target slice of a run: which replica (by its
// x-mr-replica attribution, falling back to the target URL) absorbed how
// much of the traffic, with what latency. In fleet mode this is what
// shows a kill: the dead replica's share goes to zero and the survivors'
// goodput absorbs it.
type targetStats struct {
	ok        int64
	attempts  int64
	shed      int64
	serverErr int64
	transport int64
	latencies []time.Duration
}

// tallyFunc hands doShot the per-target accumulator for a label; nil
// disables per-target tracking (warm-up).
type tallyFunc func(label string) *targetStats

// outcome tallies what happened to one logical request (including all its
// retry attempts).
type outcome struct {
	ok        bool
	attempts  int64 // HTTP attempts made
	shed      int64 // 503 responses (load shedding / draining)
	serverErr int64 // other 5xx responses
	clientErr int64 // 4xx responses (never retried)
	transport int64 // connection-level failures
	gaveUp    bool  // retries exhausted without a success
	latency   time.Duration
	traceID   string // trace of the successful attempt, for exemplars
}

// doShot issues one logical request, retrying shed/5xx/transport failures
// per the policy. 4xx responses are the caller's fault and never retried.
// In fleet mode (several targets) retries rotate to the next target, so a
// dead replica costs one attempt, not the whole logical request. A
// non-empty traceparent is injected on every attempt; the outcome's
// traceID is taken from the response's traceparent header (the server
// announces its span there whether or not one was injected). tally, when
// non-nil, receives per-target accounting: responses are attributed to
// the replica named by x-mr-replica (so stats follow the serving process
// even through a routing tier), transport failures to the target URL.
func doShot(client *http.Client, targets []string, first int, s shot, p retryPolicy, rng *rand.Rand, traceparent string, tally tallyFunc) outcome {
	var out outcome
	for attempt := 0; ; attempt++ {
		out.attempts++
		base := targets[(first+attempt)%len(targets)]
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, base+s.endpoint, bytes.NewReader(s.body))
		if err != nil {
			panic(err) // static URL + endpoint: unreachable
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := client.Do(req)
		var retryAfter time.Duration
		if err != nil {
			out.transport++
			if tally != nil {
				t := tally(base)
				t.attempts++
				t.transport++
			}
		} else {
			label := resp.Header.Get("x-mr-replica")
			if label == "" {
				label = base
			}
			var t *targetStats
			if tally != nil {
				t = tally(label)
				t.attempts++
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				out.ok = true
				out.latency = time.Since(start)
				if tid, _, _, ok := rt.ParseTraceparent(resp.Header.Get("traceparent")); ok {
					out.traceID = tid.String()
				}
				if t != nil {
					t.ok++
					t.latencies = append(t.latencies, out.latency)
				}
				return out
			case resp.StatusCode == http.StatusServiceUnavailable:
				out.shed++
				if t != nil {
					t.shed++
				}
				if d, ok := fleet.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
					retryAfter = d
				}
			case resp.StatusCode >= 500:
				out.serverErr++
				if t != nil {
					t.serverErr++
				}
			default:
				out.clientErr++
				return out
			}
		}
		if attempt >= p.retries {
			out.gaveUp = true
			return out
		}
		p.sleep(p.delay(attempt, retryAfter, rng))
	}
}

// exemplarBucket is one latency bucket carrying an example trace id — the
// slowest successful request that landed in the bucket — so a percentile
// regression drills straight down to one concrete server-side trace.
type exemplarBucket struct {
	le          time.Duration // inclusive upper bound; 0 means +Inf
	count       int64
	exemplarID  string
	exemplarLat time.Duration
}

// exemplarBounds are the latency bucket edges of the report histogram.
var exemplarBounds = []time.Duration{
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, time.Second,
}

func newExemplarBuckets() []exemplarBucket {
	bs := make([]exemplarBucket, len(exemplarBounds)+1)
	for i, le := range exemplarBounds {
		bs[i].le = le
	}
	return bs // last bucket keeps le == 0: +Inf
}

// observe files one successful latency, keeping the slowest sample seen
// in the bucket as its exemplar.
func observe(bs []exemplarBucket, lat time.Duration, traceID string) {
	i := sort.Search(len(exemplarBounds), func(i int) bool { return lat <= exemplarBounds[i] })
	b := &bs[i]
	b.count++
	if traceID != "" && (b.exemplarID == "" || lat > b.exemplarLat) {
		b.exemplarID, b.exemplarLat = traceID, lat
	}
}

func mergeBuckets(dst, src []exemplarBucket) {
	for i := range dst {
		dst[i].count += src[i].count
		if src[i].exemplarID != "" && (dst[i].exemplarID == "" || src[i].exemplarLat > dst[i].exemplarLat) {
			dst[i].exemplarID, dst[i].exemplarLat = src[i].exemplarID, src[i].exemplarLat
		}
	}
}

// totals aggregates outcomes across all workers of one run.
type totals struct {
	ok, attempts, retries      int64
	shed, serverErr, clientErr int64
	transport, gaveUp          int64
	latencies                  []time.Duration
	buckets                    []exemplarBucket
	perTarget                  map[string]*targetStats
}

// tally returns the accumulator for one target label, creating it on
// first sight. Worker-local, so no locking.
func (t *totals) tally(label string) *targetStats {
	if t.perTarget == nil {
		t.perTarget = make(map[string]*targetStats)
	}
	ts := t.perTarget[label]
	if ts == nil {
		ts = &targetStats{}
		t.perTarget[label] = ts
	}
	return ts
}

func (t *totals) add(o outcome, measure bool) {
	if o.ok {
		t.ok++
		if measure {
			t.latencies = append(t.latencies, o.latency)
			if t.buckets == nil {
				t.buckets = newExemplarBuckets()
			}
			observe(t.buckets, o.latency, o.traceID)
		}
	}
	t.attempts += o.attempts
	t.retries += o.attempts - 1
	t.shed += o.shed
	t.serverErr += o.serverErr
	t.clientErr += o.clientErr
	t.transport += o.transport
	if o.gaveUp {
		t.gaveUp++
	}
}

func (t *totals) merge(w totals) {
	t.ok += w.ok
	t.attempts += w.attempts
	t.retries += w.retries
	t.shed += w.shed
	t.serverErr += w.serverErr
	t.clientErr += w.clientErr
	t.transport += w.transport
	t.gaveUp += w.gaveUp
	t.latencies = append(t.latencies, w.latencies...)
	if w.buckets != nil {
		if t.buckets == nil {
			t.buckets = newExemplarBuckets()
		}
		mergeBuckets(t.buckets, w.buckets)
	}
	for label, ws := range w.perTarget {
		ts := t.tally(label)
		ts.ok += ws.ok
		ts.attempts += ws.attempts
		ts.shed += ws.shed
		ts.serverErr += ws.serverErr
		ts.transport += ws.transport
		ts.latencies = append(ts.latencies, ws.latencies...)
	}
}

// printBuckets renders the exemplar histogram: one line per non-empty
// bucket, with the example trace id when the server sent one.
func printBuckets(w io.Writer, bs []exemplarBucket) {
	fmt.Fprintf(w, "  latency histogram (exemplar = slowest trace in bucket):\n")
	for _, b := range bs {
		if b.count == 0 {
			continue
		}
		le := "+Inf"
		if b.le > 0 {
			le = b.le.String()
		}
		line := fmt.Sprintf("    ≤ %-8s %8d", le, b.count)
		if b.exemplarID != "" {
			line += fmt.Sprintf("   e.g. trace %s @ %s", b.exemplarID, b.exemplarLat)
		}
		fmt.Fprintln(w, line)
	}
}

// sampler picks shot indices. With skew <= 0 it is uniform; otherwise it
// draws from a Zipf distribution with exponent skew over the pool, so
// index i is picked proportionally to 1/(i+1)^skew — a few shapes
// dominate, as real traffic does.
type sampler struct {
	n   int
	cum []float64 // cumulative Zipf weights; nil means uniform
}

func newSampler(n int, skew float64) *sampler {
	s := &sampler{n: n}
	if skew <= 0 {
		return s
	}
	s.cum = make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), skew)
		s.cum[i] = total
	}
	return s
}

func (s *sampler) pick(rng *rand.Rand) int {
	if s.cum == nil {
		return rng.Intn(s.n)
	}
	u := rng.Float64() * s.cum[s.n-1]
	return sort.SearchFloat64s(s.cum, u)
}

// report is the -json summary: everything the human output prints, as
// one object an experiment script can parse.
type report struct {
	OK        int64 `json:"ok"`
	Attempts  int64 `json:"attempts"`
	Retries   int64 `json:"retries"`
	Shed      int64 `json:"shed_503"`
	ServerErr int64 `json:"other_5xx"`
	ClientErr int64 `json:"client_4xx"`
	Transport int64 `json:"transport_errors"`
	GaveUp    int64 `json:"gave_up"`

	DurationSeconds float64 `json:"duration_seconds"`
	Workers         int     `json:"workers"`
	Shapes          int     `json:"shapes"`
	Skew            float64 `json:"skew"`

	GoodputReqS float64 `json:"goodput_req_s"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`

	Buckets []bucketReport `json:"latency_buckets,omitempty"`
	Targets []targetReport `json:"targets,omitempty"`
}

// targetReport is one target's (or, through a routing tier, one serving
// replica's) slice of the run.
type targetReport struct {
	Target      string  `json:"target"`
	OK          int64   `json:"ok"`
	Attempts    int64   `json:"attempts"`
	Shed        int64   `json:"shed_503"`
	ServerErr   int64   `json:"other_5xx"`
	Transport   int64   `json:"transport_errors"`
	GoodputReqS float64 `json:"goodput_req_s"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

type bucketReport struct {
	LeMs          float64 `json:"le_ms"` // 0 means +Inf
	Count         int64   `json:"count"`
	ExemplarTrace string  `json:"exemplar_trace,omitempty"`
	ExemplarMs    float64 `json:"exemplar_ms,omitempty"`
	// GateMs/ServerMs split the exemplar's latency between the routing
	// tier and the serving replica, resolved from a stitched trace export
	// (-stitched); absent without one.
	GateMs   float64 `json:"gate_ms,omitempty"`
	ServerMs float64 `json:"server_ms,omitempty"`
}

// resolveBucketSplit annotates each bucket's exemplar with its gate-vs-
// server latency split, read from a stitched trace scope (mrtrace
// -stitch output): on the exemplar's "trace <id>" tracks, gate_ms is the
// longest "gate "-prefixed span (the mrgate route root) and server_ms
// the longest "http "-prefixed one (the mrserved request root). Scope
// times are seconds; exemplars whose trace is not in the scope (not
// head-sampled, or the file predates the run) stay unannotated.
func resolveBucketSplit(buckets []bucketReport, sc *obs.Scope) {
	for i := range buckets {
		id := buckets[i].ExemplarTrace
		if id == "" {
			continue
		}
		var gate, server float64
		for _, sp := range sc.Spans() {
			if sc.ThreadName(sp.PID, sp.TID) != "trace "+id {
				continue
			}
			d := (sp.End - sp.Start) * 1e3
			switch {
			case strings.HasPrefix(sp.Name, "gate "):
				if d > gate {
					gate = d
				}
			case strings.HasPrefix(sp.Name, "http "):
				if d > server {
					server = d
				}
			}
		}
		buckets[i].GateMs, buckets[i].ServerMs = gate, server
	}
}

// buildReport folds run totals into the -json summary. latencies must be
// sorted ascending.
func buildReport(t totals, d time.Duration, workers, shapes int, skew float64) report {
	r := report{
		OK: t.ok, Attempts: t.attempts, Retries: t.retries,
		Shed: t.shed, ServerErr: t.serverErr, ClientErr: t.clientErr,
		Transport: t.transport, GaveUp: t.gaveUp,
		DurationSeconds: d.Seconds(), Workers: workers, Shapes: shapes, Skew: skew,
	}
	if r.DurationSeconds > 0 {
		r.GoodputReqS = float64(t.ok) / r.DurationSeconds
	}
	if len(t.latencies) > 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		r.P50Ms = ms(percentile(t.latencies, 0.50))
		r.P90Ms = ms(percentile(t.latencies, 0.90))
		r.P99Ms = ms(percentile(t.latencies, 0.99))
		r.MaxMs = ms(t.latencies[len(t.latencies)-1])
	}
	for _, b := range t.buckets {
		if b.count == 0 {
			continue
		}
		r.Buckets = append(r.Buckets, bucketReport{
			LeMs:          float64(b.le) / float64(time.Millisecond),
			Count:         b.count,
			ExemplarTrace: b.exemplarID,
			ExemplarMs:    float64(b.exemplarLat) / float64(time.Millisecond),
		})
	}
	r.Targets = targetReports(t.perTarget, d)
	return r
}

// targetReports folds the per-target accumulators into sorted report
// rows (latencies are sorted in place to take percentiles).
func targetReports(perTarget map[string]*targetStats, d time.Duration) []targetReport {
	if len(perTarget) == 0 {
		return nil
	}
	labels := make([]string, 0, len(perTarget))
	for label := range perTarget {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := make([]targetReport, 0, len(labels))
	for _, label := range labels {
		ts := perTarget[label]
		tr := targetReport{
			Target: label, OK: ts.ok, Attempts: ts.attempts,
			Shed: ts.shed, ServerErr: ts.serverErr, Transport: ts.transport,
		}
		if d > 0 {
			tr.GoodputReqS = float64(ts.ok) / d.Seconds()
		}
		if len(ts.latencies) > 0 {
			sort.Slice(ts.latencies, func(i, j int) bool { return ts.latencies[i] < ts.latencies[j] })
			tr.P50Ms = ms(percentile(ts.latencies, 0.50))
			tr.P90Ms = ms(percentile(ts.latencies, 0.90))
			tr.P99Ms = ms(percentile(ts.latencies, 0.99))
		}
		out = append(out, tr)
	}
	return out
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8077", "base URL of mrserved (or mrgate)")
	targetsFlag := flag.String("targets", "",
		"fleet mode: comma-separated base URLs; requests round-robin across them and retries rotate to the next target")
	conc := flag.Int("c", 64, "concurrent closed-loop workers")
	dur := flag.Duration("d", 10*time.Second, "measurement duration")
	warmup := flag.Duration("warmup", 1*time.Second, "cache warm-up duration (not measured)")
	spread := flag.Int("spread", 4, "distinct advise scenarios per machine×collective")
	retries := flag.Int("retries", 3, "retry attempts per request for 5xx/transport failures")
	backoff := flag.Duration("backoff", 10*time.Millisecond, "base retry backoff (doubles per attempt, with jitter)")
	maxBackoff := flag.Duration("maxbackoff", 1*time.Second, "retry backoff cap")
	traceparent := flag.String("traceparent", "",
		`traceparent injection: empty = none, "auto" = fresh sampled trace per request, else sent verbatim`)
	skew := flag.Float64("skew", 0, "Zipf exponent for the shot mix (0 = uniform; 1.2 ≈ real-traffic skew)")
	jsonOut := flag.Bool("json", false, "print a machine-readable JSON summary instead of the human report")
	stitched := flag.String("stitched", "",
		"stitched trace export (mrtrace -stitch) to resolve -json bucket exemplars into gate_ms/server_ms splits")
	resolve := flag.String("resolve", "",
		"post-process: annotate a previously written -json report via -stitched and print it, without generating load")
	flag.Parse()

	// Offline drill-down: the fleet's trace exports are only written on
	// drain, after a live run's report — so the split resolution is also
	// available as a post-processing pass over a saved report.
	if *resolve != "" {
		if *stitched == "" {
			fmt.Fprintln(os.Stderr, "mrload: -resolve needs -stitched")
			os.Exit(2)
		}
		b, err := os.ReadFile(*resolve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrload:", err)
			os.Exit(1)
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			fmt.Fprintln(os.Stderr, "mrload:", err)
			os.Exit(1)
		}
		sc, err := obs.ReadTraceFile(*stitched)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrload:", err)
			os.Exit(1)
		}
		resolveBucketSplit(r.Buckets, sc)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "mrload:", err)
			os.Exit(1)
		}
		return
	}

	targets := []string{*url}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, u := range strings.Split(*targetsFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "mrload: -targets is empty")
			os.Exit(1)
		}
	}

	shots := workload(*spread)
	smp := newSampler(len(shots), *skew)
	transport := &http.Transport{
		MaxIdleConns:        *conc * 2,
		MaxIdleConnsPerHost: *conc * 2,
	}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	policy := retryPolicy{retries: *retries, backoff: *backoff, maxBackoff: *maxBackoff, sleep: time.Sleep}

	run := func(d time.Duration, measure bool) totals {
		var (
			wg  sync.WaitGroup
			mu  sync.Mutex
			all totals
		)
		deadline := time.Now().Add(d)
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var mine totals
				var tally tallyFunc
				if measure {
					tally = mine.tally
				}
				for i := 0; time.Now().Before(deadline); i++ {
					s := shots[smp.pick(rng)]
					tp := *traceparent
					if tp == "auto" {
						tp, _ = rt.ClientTraceparent(rng)
					}
					// Round-robin the first attempt across targets; retries
					// continue the rotation inside doShot.
					mine.add(doShot(client, targets, int(seed)+i, s, policy, rng, tp, tally), measure)
				}
				mu.Lock()
				all.merge(mine)
				mu.Unlock()
			}(int64(w) + 1)
		}
		wg.Wait()
		return all
	}

	if *warmup > 0 {
		wt := run(*warmup, false)
		if wt.ok == 0 {
			fmt.Fprintf(os.Stderr, "mrload: no request succeeded during warm-up — is anything running at %s?\n",
				strings.Join(targets, ", "))
			os.Exit(1)
		}
	}
	t := run(*dur, true)
	sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })

	if *jsonOut {
		r := buildReport(t, *dur, *conc, len(shots), *skew)
		if *stitched != "" {
			sc, err := obs.ReadTraceFile(*stitched)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrload:", err)
				os.Exit(1)
			}
			resolveBucketSplit(r.Buckets, sc)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "mrload:", err)
			os.Exit(1)
		}
		if t.ok == 0 {
			os.Exit(1)
		}
		return
	}

	elapsed := dur.Seconds()
	fmt.Printf("mrload: %d ok of %d attempts in %s with %d workers over %d request shapes\n",
		t.ok, t.attempts, *dur, *conc, len(shots))
	fmt.Printf("  goodput     %10.0f req/s (successful requests only)\n", float64(t.ok)/elapsed)
	fmt.Printf("  retries     %10d\n", t.retries)
	fmt.Printf("  shed 503    %10d\n", t.shed)
	fmt.Printf("  other 5xx   %10d\n", t.serverErr)
	fmt.Printf("  4xx         %10d\n", t.clientErr)
	fmt.Printf("  transport   %10d\n", t.transport)
	fmt.Printf("  gave up     %10d\n", t.gaveUp)
	if len(t.latencies) > 0 {
		fmt.Printf("  latency p50 %10s\n", percentile(t.latencies, 0.50))
		fmt.Printf("  latency p90 %10s\n", percentile(t.latencies, 0.90))
		fmt.Printf("  latency p99 %10s\n", percentile(t.latencies, 0.99))
		fmt.Printf("  latency max %10s\n", t.latencies[len(t.latencies)-1])
	}
	if t.buckets != nil {
		printBuckets(os.Stdout, t.buckets)
	}
	if len(t.perTarget) > 1 || len(targets) > 1 {
		fmt.Printf("  per target (by x-mr-replica attribution):\n")
		for _, tr := range targetReports(t.perTarget, *dur) {
			fmt.Printf("    %-28s %8d ok %10.0f req/s  p50 %7.2fms p99 %7.2fms  shed %d  5xx %d  transport %d\n",
				tr.Target, tr.OK, tr.GoodputReqS, tr.P50Ms, tr.P99Ms, tr.Shed, tr.ServerErr, tr.Transport)
		}
	}
	if t.ok == 0 {
		os.Exit(1)
	}
}
