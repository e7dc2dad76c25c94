// Command mrload is a closed-loop load generator for mrserved and mrgate:
// a fixed number of workers each keep exactly one request in flight
// against a mixed workload spanning all the query endpoints, then report
// goodput and latency percentiles. It is the measurable baseline for the
// serving path, and doubles as the degraded-mode probe: failed attempts
// are classified (shed 503s, other 5xx, 4xx, transport errors) and retried
// with capped exponential backoff plus jitter, honouring Retry-After. The
// loop, the retries and the tallies are internal/loadgen's; this command
// is flags, the workload and the report.
//
// Usage:
//
//	mrserved &
//	mrload -url http://127.0.0.1:8077 -c 64 -d 10s
//	mrload -retries 5 -backoff 5ms -maxbackoff 500ms   # overload runs
//	mrload -url http://127.0.0.1:8081,http://127.0.0.1:8082   # several targets
//
// The workload mixes distinct request shapes (different hierarchies,
// orders, ranks, machines, collectives), so after a warm-up pass the
// daemon serves from its result cache — the steady state the service is
// designed for. Use -spread to multiply the number of distinct advise
// scenarios and exercise the evaluation path instead.
//
// Each worker walks the shot pool round-robin from its own offset; -skew
// draws from a Zipf (power-law) distribution over the pool instead, so a
// handful of shapes dominate — the realistic mix that exercises mapd's
// top-K workload analytics. -json prints the same report as the human
// output, machine-readable, for experiment scripts; adding -stitched
// <file> resolves each latency bucket's exemplar trace id through a
// stitched gate+replica trace (mrtrace -stitch) into a gate_ms/server_ms
// split, so a slow bucket says at a glance whether the gate or the replica
// ate the time.
//
// Exit status is 1 only when not a single request succeeded; a degraded
// run with nonzero goodput exits 0 so overload experiments can record it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/commmatrix"
	"repro/internal/loadgen"
	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/procmap"
)

// workload builds the pool of request bodies the workers cycle through.
func workload(spread int) []loadgen.Shot {
	var shots []loadgen.Shot
	add := func(endpoint string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		shots = append(shots, loadgen.Shot{Endpoint: endpoint, Body: b})
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

// report is a run's summary, built once: the human output and -json are
// two renderings of it.
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
				gate = max(gate, d)
			case strings.HasPrefix(sp.Name, "http "):
				server = max(server, d)
			}
		}
		buckets[i].GateMs, buckets[i].ServerMs = gate, server
	}
}

// buildReport folds a run's tallies into the report that both the human
// output and -json print.
func buildReport(res *loadgen.Result, d time.Duration, workers, shapes int, skew float64) report {
	r := report{
		OK: res.OK, Attempts: res.Attempts, Retries: res.Attempts - res.Requests(),
		Shed: res.Shed, ServerErr: res.ServerErr, ClientErr: res.ClientErr,
		Transport: res.Transport, GaveUp: res.GaveUp,
		DurationSeconds: d.Seconds(), Workers: workers, Shapes: shapes, Skew: skew,
	}
	if d > 0 {
		r.GoodputReqS = float64(res.OK) / d.Seconds()
	}
	if n := len(res.Latencies); n > 0 {
		r.P50Ms, r.P90Ms, r.P99Ms = percentilesMs(res.Latencies)
		r.MaxMs = ms(res.Latencies[n-1])
	}
	for _, b := range res.Buckets {
		if b.Count > 0 {
			r.Buckets = append(r.Buckets, bucketReport{
				LeMs: ms(b.Le), Count: b.Count, ExemplarTrace: b.ExemplarID, ExemplarMs: ms(b.ExemplarLat),
			})
		}
	}
	r.Targets = targetReports(res.Targets, d)
	return r
}

// targetReports folds the per-target tallies (latencies sorted) into
// report rows sorted by target.
func targetReports(targets map[string]*loadgen.Counts, d time.Duration) []targetReport {
	var out []targetReport
	for label, c := range targets {
		tr := targetReport{
			Target: label, OK: c.OK, Attempts: c.Attempts,
			Shed: c.Shed, ServerErr: c.ServerErr, Transport: c.Transport,
		}
		if d > 0 {
			tr.GoodputReqS = float64(c.OK) / d.Seconds()
		}
		tr.P50Ms, tr.P90Ms, tr.P99Ms = percentilesMs(c.Latencies)
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func percentilesMs(sorted []time.Duration) (p50, p90, p99 float64) {
	return ms(loadgen.Percentile(sorted, 0.50)), ms(loadgen.Percentile(sorted, 0.90)), ms(loadgen.Percentile(sorted, 0.99))
}

// writeJSON prints the -json form of a report.
func writeJSON(w io.Writer, r report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// writeText prints the human form of a report.
func writeText(w io.Writer, r report) {
	fmt.Fprintf(w, "mrload: %d ok of %d attempts in %gs with %d workers over %d request shapes\n",
		r.OK, r.Attempts, r.DurationSeconds, r.Workers, r.Shapes)
	fmt.Fprintf(w, "  goodput     %10.0f req/s (successful requests only)\n", r.GoodputReqS)
	for _, row := range []struct {
		name string
		n    int64
	}{{"retries", r.Retries}, {"shed 503", r.Shed}, {"other 5xx", r.ServerErr}, {"4xx", r.ClientErr},
		{"transport", r.Transport}, {"gave up", r.GaveUp}} {
		fmt.Fprintf(w, "  %-11s %10d\n", row.name, row.n)
	}
	if r.OK > 0 {
		fmt.Fprintf(w, "  latency p50 %10.3fms\n  latency p90 %10.3fms\n  latency p99 %10.3fms\n  latency max %10.3fms\n",
			r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	}
	if len(r.Buckets) > 0 {
		fmt.Fprintf(w, "  latency histogram (exemplar = slowest trace in bucket):\n")
	}
	for _, b := range r.Buckets {
		le := "+Inf"
		if b.LeMs > 0 {
			le = time.Duration(b.LeMs * float64(time.Millisecond)).String()
		}
		fmt.Fprintf(w, "    ≤ %-8s %8d", le, b.Count)
		if b.ExemplarTrace != "" {
			fmt.Fprintf(w, "   e.g. trace %s @ %.3fms", b.ExemplarTrace, b.ExemplarMs)
		}
		fmt.Fprintln(w)
	}
	if len(r.Targets) > 1 {
		fmt.Fprintf(w, "  per target (by x-mr-replica attribution):\n")
		for _, tr := range r.Targets {
			fmt.Fprintf(w, "    %-28s %8d ok %10.0f req/s  p50 %7.2fms p99 %7.2fms  shed %d  5xx %d  transport %d\n",
				tr.Target, tr.OK, tr.GoodputReqS, tr.P50Ms, tr.P99Ms, tr.Shed, tr.ServerErr, tr.Transport)
		}
	}
}

func fail(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"mrload:"}, args...)...)
	os.Exit(code)
}

func main() {
	urls := flag.String("url", "http://127.0.0.1:8077",
		"base URL of mrserved or mrgate; a comma-separated list drives several, first attempts round-robin and retries rotating to the next")
	conc := flag.Int("c", 64, "concurrent closed-loop workers")
	dur := flag.Duration("d", 10*time.Second, "measurement duration")
	warmup := flag.Duration("warmup", 1*time.Second, "cache warm-up duration (not measured)")
	spread := flag.Int("spread", 4, "distinct advise scenarios per machine×collective")
	retries := flag.Int("retries", 3, "retry attempts per request for 5xx/transport failures")
	backoff := flag.Duration("backoff", 10*time.Millisecond, "base retry backoff (doubles per attempt, with jitter)")
	maxBackoff := flag.Duration("maxbackoff", 1*time.Second, "retry backoff cap")
	traceparent := flag.String("traceparent", "",
		`traceparent injection: empty = none, "auto" = fresh sampled trace per request, else sent verbatim`)
	skew := flag.Float64("skew", 0, "Zipf exponent for the shot mix (0 = round-robin; 1.2 ≈ real-traffic skew)")
	jsonOut := flag.Bool("json", false, "print a machine-readable JSON summary instead of the human report")
	stitched := flag.String("stitched", "",
		"stitched trace export (mrtrace -stitch) to resolve -json bucket exemplars into gate_ms/server_ms splits")
	resolve := flag.String("resolve", "",
		"post-process: annotate a previously written -json report via -stitched and print it, without generating load")
	flag.Parse()

	// Offline drill-down: the fleet's trace exports are only written on
	// drain, after a live run's report — so the split resolution is also
	// available as a post-processing pass over a saved report.
	var r report
	if *resolve != "" {
		if *stitched == "" {
			fail(2, "-resolve needs -stitched")
		}
		b, err := os.ReadFile(*resolve)
		if err != nil {
			fail(1, err)
		}
		if err := json.Unmarshal(b, &r); err != nil {
			fail(1, err)
		}
	} else {
		var targets []string
		for _, u := range strings.Split(*urls, ",") {
			if u = strings.TrimSpace(u); u != "" {
				if _, err := url.Parse(u); err != nil {
					fail(2, err)
				}
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			fail(1, "-url is empty")
		}
		cfg := loadgen.Config{
			Client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
				MaxIdleConns:        *conc * 2,
				MaxIdleConnsPerHost: *conc * 2,
			}},
			Targets: targets, Shots: workload(*spread), Workers: *conc, Skew: *skew,
			Retries: *retries, Backoff: *backoff, MaxBackoff: *maxBackoff, Traceparent: *traceparent,
		}
		runFor := func(d time.Duration) *loadgen.Result {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			return loadgen.Run(ctx, cfg)
		}
		if *warmup > 0 && runFor(*warmup).OK == 0 {
			fail(1, "no request succeeded during warm-up — is anything running at", strings.Join(targets, ", ")+"?")
		}
		r = buildReport(runFor(*dur), *dur, *conc, len(cfg.Shots), *skew)
	}
	if !*jsonOut && *resolve == "" {
		writeText(os.Stdout, r)
	} else {
		if *stitched != "" {
			sc, err := obs.ReadTraceFile(*stitched)
			if err != nil {
				fail(1, err)
			}
			resolveBucketSplit(r.Buckets, sc)
		}
		if err := writeJSON(os.Stdout, r); err != nil {
			fail(1, err)
		}
	}
	if r.OK == 0 && *resolve == "" {
		os.Exit(1)
	}
}
