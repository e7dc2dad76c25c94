// Package loadgen is the one closed-loop client of the serving tier:
// Workers goroutines each keep one logical request in flight against mapd
// replicas (or mrgate in front of them) and tally what came back.
// cmd/mrload drives live daemons with it, and internal/perf's serving and
// fleet suites drive in-process ones.
//
// A logical request is one Shot and all of its attempts. A 4xx is the
// caller's fault and ends it; a shed 503, any other 5xx and a transport
// error are retried on fleet.BackoffDelay's curve, honouring Retry-After,
// and each retry rotates to the next target, so a dead replica costs one
// attempt rather than the request.
package loadgen

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs/rt"
)

// Shot is one request of a workload: a POST of Body to Endpoint.
type Shot struct {
	Endpoint string
	Body     []byte
}

// Config describes one run.
type Config struct {
	Client  *http.Client
	Targets []string // base URLs; first attempts round-robin across them
	Shots   []Shot
	Workers int
	// Requests ends the run once that many logical requests have been
	// issued across all workers; 0 sets no count limit, and the context
	// ends the run.
	Requests int
	// Skew 0 walks Shots round-robin from each worker's offset; Skew > 0
	// draws shot i with probability ∝ 1/(i+1)^Skew (Zipf), so a few shapes
	// dominate, as in real traffic.
	Skew float64
	// Retries is the number of retries after a logical request's first
	// attempt; Backoff and MaxBackoff are fleet.BackoffDelay's base and cap.
	Retries             int
	Backoff, MaxBackoff time.Duration
	// Traceparent is sent on every attempt: "" sends none, "auto" a fresh
	// sampled trace per logical request, anything else verbatim.
	Traceparent string
}

// Counts tallies logical requests and their attempts. After one Do into a
// fresh Result it is that request's outcome; per target it is the
// target's share of a run, and for the run its total.
type Counts struct {
	OK        int64
	Attempts  int64
	Shed      int64           // 503 responses: load shedding or draining
	ServerErr int64           // other 5xx responses
	ClientErr int64           // 4xx responses, never retried
	Transport int64           // connection-level failures
	GaveUp    int64           // logical requests whose retries ran out
	Latencies []time.Duration // of the successful attempts
}

// Requests is the number of logical requests the tally covers: each one
// ends in exactly one success, 4xx or exhausted retry budget.
func (c *Counts) Requests() int64 { return c.OK + c.ClientErr + c.GaveUp }

// add folds o into c.
func (c *Counts) add(o *Counts) {
	c.OK += o.OK
	c.Attempts += o.Attempts
	c.Shed += o.Shed
	c.ServerErr += o.ServerErr
	c.ClientErr += o.ClientErr
	c.Transport += o.Transport
	c.GaveUp += o.GaveUp
	c.Latencies = append(c.Latencies, o.Latencies...)
}

// Result is what a run (or one worker of it) observed: the total, each
// target's share, and the latency histogram of the successes.
type Result struct {
	Counts
	// Targets is keyed by the x-mr-replica header that names the serving
	// replica, so shares follow the process even through mrgate, and by the
	// target URL for attempts without one (transport errors among them).
	Targets map[string]*Counts
	Buckets []Bucket // nil until the first success
}

func (r *Result) target(label string) *Counts {
	if r.Targets == nil {
		r.Targets = make(map[string]*Counts)
	}
	t := r.Targets[label]
	if t == nil {
		t = &Counts{}
		r.Targets[label] = t
	}
	return t
}

// merge folds o into r.
func (r *Result) merge(o *Result) {
	r.Counts.add(&o.Counts)
	for label, t := range o.Targets {
		r.target(label).add(t)
	}
	for i, ob := range o.Buckets {
		b := r.bucket(i)
		b.Count += ob.Count
		if ob.ExemplarID != "" && b.slower(ob.ExemplarLat) {
			b.ExemplarID, b.ExemplarLat = ob.ExemplarID, ob.ExemplarLat
		}
	}
}

// Bucket is one bin of the latency histogram. Its exemplar is the slowest
// success in the bin that announced a trace id, so a percentile
// regression drills straight down to one concrete server-side trace.
type Bucket struct {
	Le          time.Duration // inclusive upper bound; 0 means +Inf
	Count       int64
	ExemplarID  string
	ExemplarLat time.Duration
}

// bucketBounds are the histogram's upper bounds; a last bucket is +Inf.
var bucketBounds = []time.Duration{
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, time.Second,
}

// observe files one success of latency lat. When it is its bucket's
// slowest, the trace id of traceparent (the header the server answered
// with) becomes the bucket's exemplar, parsed only then.
func (r *Result) observe(lat time.Duration, traceparent string) {
	b := r.bucket(sort.Search(len(bucketBounds), func(i int) bool { return lat <= bucketBounds[i] }))
	b.Count++
	if b.slower(lat) {
		if tid, _, _, ok := rt.ParseTraceparent(traceparent); ok {
			b.ExemplarID, b.ExemplarLat = tid.String(), lat
		}
	}
}

func (r *Result) bucket(i int) *Bucket {
	if r.Buckets == nil {
		r.Buckets = make([]Bucket, len(bucketBounds)+1)
		for i, le := range bucketBounds {
			r.Buckets[i].Le = le
		}
	}
	return &r.Buckets[i]
}

// slower reports whether a success of latency lat would be b's exemplar.
func (b *Bucket) slower(lat time.Duration) bool { return b.ExemplarID == "" || lat > b.ExemplarLat }

// Do issues one logical request of s into r. The first attempt goes to
// Targets[first % len], each retry to the next target. Replies are
// attributed to the replica their x-mr-replica header names, transport
// errors to the target URL.
func (c *Config) Do(r *Result, rng *rand.Rand, first int, s Shot, traceparent string) {
	for attempt := 0; ; attempt++ {
		r.Attempts++
		base := c.Targets[(first+attempt)%len(c.Targets)]
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, base+s.Endpoint, bytes.NewReader(s.Body))
		if err != nil {
			panic(err) // callers pass parsed base URLs and fixed endpoints
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		resp, err := c.Client.Do(req)
		label := base
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if l := resp.Header.Get("X-Mr-Replica"); l != "" {
				label = l
			}
		}
		t := r.target(label)
		t.Attempts++
		var retryAfter time.Duration
		switch {
		case err != nil:
			r.Transport++
			t.Transport++
		case resp.StatusCode == http.StatusOK:
			lat := time.Since(start)
			r.OK++
			t.OK++
			r.Latencies = append(r.Latencies, lat)
			t.Latencies = append(t.Latencies, lat)
			r.observe(lat, resp.Header.Get("Traceparent"))
			return
		case resp.StatusCode == http.StatusServiceUnavailable:
			r.Shed++
			t.Shed++
			if d, ok := fleet.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				retryAfter = d
			}
		case resp.StatusCode >= 500:
			r.ServerErr++
			t.ServerErr++
		default:
			r.ClientErr++
			t.ClientErr++
			return
		}
		if attempt >= c.Retries {
			r.GaveUp++
			return
		}
		time.Sleep(fleet.BackoffDelay(c.Backoff, c.MaxBackoff, attempt, retryAfter, rng.Int63n))
	}
}

// Run drives cfg.Workers closed-loop workers until cfg.Requests logical
// requests have been issued or ctx is done, and returns their merged
// tallies with every latency list sorted ascending. ctx is checked between
// requests only: a request in flight when it ends still completes and
// counts, so a deadline never turns into transport errors. Worker w seeds
// its jitter, Zipf and trace draws with w+1.
func Run(ctx context.Context, cfg Config) *Result {
	pick := picker(len(cfg.Shots), cfg.Skew)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		all    Result
		issued atomic.Int64
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var mine Result
			for i := w; ctx.Err() == nil; i++ {
				if cfg.Requests > 0 && issued.Add(1) > int64(cfg.Requests) {
					break
				}
				tp := cfg.Traceparent
				if tp == "auto" {
					tp, _ = rt.ClientTraceparent(rng)
				}
				cfg.Do(&mine, rng, i, cfg.Shots[pick(i, rng)], tp)
			}
			mu.Lock()
			all.merge(&mine)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	slices.Sort(all.Latencies)
	for _, t := range all.Targets {
		slices.Sort(t.Latencies)
	}
	return &all
}

// picker returns the chooser of a worker's request i's shot, with i
// counted from the worker's offset (see Config.Skew).
func picker(n int, skew float64) func(i int, rng *rand.Rand) int {
	if skew <= 0 {
		return func(i int, _ *rand.Rand) int { return i % n }
	}
	cum, total := make([]float64, n), 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	return func(_ int, rng *rand.Rand) int { return sort.SearchFloat64s(cum, rng.Float64()*total) }
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of latencies sorted
// ascending, or 0 for none.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
