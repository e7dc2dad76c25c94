// Fleet-wide observability rollup: the gate scrapes every live
// replica's GET /v1/stats and GET /v1/slo, merges them under the
// mergeable-summaries rules (mapd.MergeStats for the Space-Saving
// top-K and distinct-class sketch; exact window sums with recomputed
// burn rates for the SLOs), and serves the aggregate on
// GET /v1/fleet/stats and GET /v1/fleet/slo. Each rollup also scores
// every replica against the fleet — total-variation distance of its
// shape-class mix, worst short-window burn rate — and flags outliers,
// so a single replica serving a skewed workload or burning error
// budget stands out without opening N dashboards.

package fleet

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"

	"repro/internal/mapd"
	"repro/internal/obs/rt"
)

const (
	// shapeOutlierThreshold flags a replica whose shape-class mix sits at
	// least this far (total-variation distance ∈ [0, 1]) from the fleet's.
	shapeOutlierThreshold = 0.5
	// shapeOutlierMinRequests is the traffic floor below which divergence
	// is noise, not signal.
	shapeOutlierMinRequests = 32
	// burnOutlierFactor and burnOutlierFloor flag a replica burning error
	// budget out of line with the fleet: its worst short-window burn is at
	// least the floor AND at least factor × the fleet's.
	burnOutlierFactor = 4.0
	burnOutlierFloor  = 1.0
)

// ReplicaStats is one replica's row in the GET /v1/fleet/stats answer.
type ReplicaStats struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Error is set when the scrape failed (the replica is excluded from
	// the merge).
	Error string `json:"error,omitempty"`
	// TotalRequests is the replica's own request count.
	TotalRequests uint64 `json:"total_requests"`
	// ShapeDivergence is the total-variation distance between the
	// replica's shape-class distribution and the fleet's merged one.
	ShapeDivergence float64 `json:"shape_divergence"`
	// Outlier flags a divergence past shapeOutlierThreshold with enough
	// traffic to mean it.
	Outlier bool `json:"outlier"`
}

// FleetStats is the GET /v1/fleet/stats response body.
type FleetStats struct {
	Replicas   int              `json:"replicas"`
	Scraped    int              `json:"scraped"`
	Merged     mapd.StatsReport `json:"merged"`
	PerReplica []ReplicaStats   `json:"per_replica"`
}

// ReplicaSLO is one replica's row in the GET /v1/fleet/slo answer.
type ReplicaSLO struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// BurnRate is the replica's worst availability/latency burn across
	// its endpoints in the shortest window.
	BurnRate float64 `json:"burn_rate"`
	// BurnOutlier flags a burn rate at least burnOutlierFloor and at
	// least burnOutlierFactor × the fleet's.
	BurnOutlier bool `json:"burn_outlier"`
}

// FleetSLO is the GET /v1/fleet/slo response body: the replicas' SLO
// windows merged by summing raw counts and recomputing burn rates —
// exactly the burn a single tracker observing the union stream would
// report.
type FleetSLO struct {
	AvailabilityTarget float64          `json:"availability_target"`
	LatencyThreshold   string           `json:"latency_threshold"`
	LatencyObjective   float64          `json:"latency_objective"`
	FastBurnFactor     float64          `json:"fast_burn_factor"`
	FastBurning        bool             `json:"fast_burning"`
	Replicas           int              `json:"replicas"`
	Scraped            int              `json:"scraped"`
	Endpoints          []rt.EndpointSLO `json:"endpoints"`
	PerReplica         []ReplicaSLO     `json:"per_replica"`
}

// scrapeJSON fetches one replica-local JSON endpoint under the scrape
// timeout.
func (g *Router) scrapeJSON(ctx context.Context, idx int, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.Replicas[idx]+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &scrapeError{path: path, status: resp.StatusCode}
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type scrapeError struct {
	path   string
	status int
}

func (e *scrapeError) Error() string {
	return "scrape " + e.path + ": status " + http.StatusText(e.status)
}

// scrapeAll runs fn concurrently against every non-dead replica and
// returns the per-replica error slots (nil = scraped; a sentinel string
// marks replicas skipped as dead).
func (g *Router) scrapeAll(ctx context.Context, fn func(ctx context.Context, idx int) error) []string {
	errs := make([]string, len(g.cfg.Replicas))
	var wg sync.WaitGroup
	for i := range g.cfg.Replicas {
		if g.checker.State(i) == StateDead {
			errs[i] = "not scraped: replica is dead"
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(ctx, i); err != nil {
				errs[i] = err.Error()
			}
		}(i)
	}
	wg.Wait()
	return errs
}

// classDistribution normalizes a report's tracked classes into a
// probability distribution over shapes.
func classDistribution(r mapd.StatsReport) map[string]float64 {
	var tot uint64
	for _, c := range r.Classes {
		tot += c.Requests
	}
	if tot == 0 {
		return nil
	}
	dist := make(map[string]float64, len(r.Classes))
	for _, c := range r.Classes {
		dist[c.Shape] = float64(c.Requests) / float64(tot)
	}
	return dist
}

// tvDistance is the total-variation distance ½·Σ|p−q| over the union of
// the two supports, ∈ [0, 1].
func tvDistance(p, q map[string]float64) float64 {
	var sum float64
	for k, pv := range p {
		sum += math.Abs(pv - q[k])
	}
	for k, qv := range q {
		if _, ok := p[k]; !ok {
			sum += qv
		}
	}
	return sum / 2
}

// serveFleetStats scrapes, merges, scores, and answers
// GET /v1/fleet/stats.
func (g *Router) serveFleetStats(ctx context.Context, w http.ResponseWriter) {
	reports := make([]*mapd.StatsReport, len(g.cfg.Replicas))
	errs := g.scrapeAll(ctx, func(ctx context.Context, i int) error {
		var rep mapd.StatsReport
		if err := g.scrapeJSON(ctx, i, "/v1/stats", &rep); err != nil {
			return err
		}
		reports[i] = &rep
		return nil
	})

	var scraped []mapd.StatsReport
	for _, r := range reports {
		if r != nil {
			scraped = append(scraped, *r)
		}
	}
	out := FleetStats{
		Replicas: len(g.cfg.Replicas),
		Scraped:  len(scraped),
		Merged:   mapd.MergeStats(scraped),
	}
	fleetDist := classDistribution(out.Merged)
	for i := range g.cfg.Replicas {
		rs := ReplicaStats{Name: g.cfg.Names[i], State: g.checker.State(i).String(), Error: errs[i]}
		if r := reports[i]; r != nil {
			rs.TotalRequests = r.TotalRequests
			rs.ShapeDivergence = tvDistance(classDistribution(*r), fleetDist)
			rs.Outlier = rs.ShapeDivergence >= shapeOutlierThreshold &&
				r.TotalRequests >= shapeOutlierMinRequests
		}
		g.noteShape(i, rs.ShapeDivergence, rs.Outlier)
		out.PerReplica = append(out.PerReplica, rs)
	}
	writeFleetJSON(ctx, w, out)
}

// serveFleetSLO scrapes, merges, scores, and answers GET /v1/fleet/slo.
func (g *Router) serveFleetSLO(ctx context.Context, w http.ResponseWriter) {
	reports := make([]*rt.SLOReport, len(g.cfg.Replicas))
	errs := g.scrapeAll(ctx, func(ctx context.Context, i int) error {
		var rep rt.SLOReport
		if err := g.scrapeJSON(ctx, i, "/v1/slo", &rep); err != nil {
			return err
		}
		reports[i] = &rep
		return nil
	})

	var scraped []rt.SLOReport
	for _, r := range reports {
		if r != nil {
			scraped = append(scraped, *r)
		}
	}
	out := mergeSLO(scraped)
	out.Replicas = len(g.cfg.Replicas)
	out.Scraped = len(scraped)
	fleetBurn := worstShortBurn(out.Endpoints)
	for i := range g.cfg.Replicas {
		rs := ReplicaSLO{Name: g.cfg.Names[i], State: g.checker.State(i).String(), Error: errs[i]}
		if r := reports[i]; r != nil {
			rs.BurnRate = worstShortBurn(r.Endpoints)
			rs.BurnOutlier = rs.BurnRate >= burnOutlierFloor &&
				rs.BurnRate >= burnOutlierFactor*fleetBurn
		}
		g.noteBurn(i, rs.BurnRate, rs.BurnOutlier)
		out.PerReplica = append(out.PerReplica, rs)
	}
	writeFleetJSON(ctx, w, out)
}

// rollupNote is the retained per-replica score of the last rollups.
type rollupNote struct {
	shapeDivergence float64
	shapeOutlier    bool
	burnRate        float64
	burnOutlier     bool
}

func (g *Router) noteShape(i int, div float64, outlier bool) {
	g.rollupMu.Lock()
	g.notes[i].shapeDivergence = div
	g.notes[i].shapeOutlier = outlier
	g.rollupMu.Unlock()
}

func (g *Router) noteBurn(i int, rate float64, outlier bool) {
	g.rollupMu.Lock()
	g.notes[i].burnRate = rate
	g.notes[i].burnOutlier = outlier
	g.rollupMu.Unlock()
}

// mergeSLO sums the replicas' raw window counts per endpoint×window and
// derives availability, burn rates and the fast-burn page condition from
// the sums as each replica's tracker does.
func mergeSLO(reports []rt.SLOReport) FleetSLO {
	out := FleetSLO{}
	if len(reports) == 0 {
		return out
	}
	out.AvailabilityTarget = reports[0].AvailabilityTarget
	out.LatencyThreshold = reports[0].LatencyThreshold
	out.LatencyObjective = reports[0].LatencyObjective
	out.FastBurnFactor = reports[0].FastBurnFactor

	type cell struct{ requests, errors, slow uint64 }
	sums := map[string]map[string]*cell{} // endpoint → window → counts
	var epOrder []string
	winOrder := map[string][]string{}
	for _, r := range reports {
		for _, ep := range r.Endpoints {
			wins := sums[ep.Endpoint]
			if wins == nil {
				wins = map[string]*cell{}
				sums[ep.Endpoint] = wins
				epOrder = append(epOrder, ep.Endpoint)
			}
			for _, w := range ep.Windows {
				c := wins[w.Window]
				if c == nil {
					c = &cell{}
					wins[w.Window] = c
					winOrder[ep.Endpoint] = append(winOrder[ep.Endpoint], w.Window)
				}
				c.requests += w.Requests
				c.errors += w.Errors
				c.slow += w.Slow
			}
		}
	}
	for _, ep := range epOrder {
		merged := rt.EndpointSLO{Endpoint: ep}
		for _, win := range winOrder[ep] {
			c := sums[ep][win]
			merged.Windows = append(merged.Windows, rt.NewWindowSLO(win, c.requests, c.errors, c.slow))
		}
		out.Endpoints = append(out.Endpoints, merged)
		out.FastBurning = out.FastBurning || merged.FastBurning()
	}
	return out
}

// worstShortBurn is the worst availability/latency burn across the
// endpoints' shortest windows — the number the outlier comparison and
// /v1/fleet use.
func worstShortBurn(eps []rt.EndpointSLO) float64 {
	var worst float64
	for _, ep := range eps {
		if len(ep.Windows) == 0 {
			continue
		}
		w := ep.Windows[0]
		if w.AvailabilityBurn > worst {
			worst = w.AvailabilityBurn
		}
		if w.LatencyBurn > worst {
			worst = w.LatencyBurn
		}
	}
	return worst
}

func writeFleetJSON(ctx context.Context, w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		mapd.WriteError(ctx, w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}
