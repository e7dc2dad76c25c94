// The fleet suite: the consistent-hash router in front of real in-process
// mapd replicas, measured in the three regimes that matter — everything
// healthy (pure routing overhead), one replica dead (failover path), and
// the whole fleet dead (local degraded fallback). Keeps the routing tier
// on the same regression trajectory as the serving path it fronts.

package perf

import (
	"context"
	"net/http/httptest"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/mapd"
)

// fleetFixture is one benchmark's router + replica set.
type fleetFixture struct {
	gate     *httptest.Server
	replicas []*httptest.Server
	router   *fleet.Router
}

func newFleetFixture(n int) (*fleetFixture, error) {
	f := &fleetFixture{}
	var urls []string
	for i := 0; i < n; i++ {
		srv := mapd.New(mapd.Config{CacheEntries: 4096})
		ts := httptest.NewServer(srv.Handler())
		f.replicas = append(f.replicas, ts)
		urls = append(urls, ts.URL)
	}
	g, err := fleet.New(fleet.Config{
		Replicas: urls,
		Backoff:  200 * time.Microsecond,
		// No background sweeps: benchmarks settle states via CheckNow so
		// the measured regime is exactly the declared one.
		Health: fleet.HealthConfig{Interval: time.Hour},
	})
	if err != nil {
		return nil, err
	}
	f.router = g
	f.gate = httptest.NewServer(g.Handler())
	return f, nil
}

func (f *fleetFixture) close() {
	f.gate.Close()
	for _, r := range f.replicas {
		r.Close()
	}
}

// settle runs enough health sweeps to cross the ejection threshold for
// any closed replica.
func (f *fleetFixture) settle() {
	f.router.CheckNow(context.Background())
	f.router.CheckNow(context.Background())
}

// FleetSuite benchmarks the routed request path end to end.
func FleetSuite() Suite {
	s := Suite{
		Name:        "fleet",
		Description: "consistent-hash router over in-process replicas: routing, failover, fallback",
		// Like serving: network-path latency is the noisiest family.
		Threshold: 0.50,
	}
	mk := func(kill int, shots []loadgen.Shot) func(*B) {
		return func(b *B) {
			f, err := newFleetFixture(3)
			if err != nil {
				b.Fatalf("%v", err)
			}
			defer f.close()
			for i := 0; i < kill; i++ {
				f.replicas[i].Close()
			}
			f.settle()
			// Warm the surviving replicas' caches, if any.
			driveLoad(b, f.gate.URL, shots, kill < len(f.replicas))
		}
	}
	s.Benches = append(s.Benches,
		Bench{Name: "Fleet/route/3-healthy", F: mk(0, servingWorkload())},
		Bench{Name: "Fleet/failover/1-dead", F: mk(1, servingWorkload())},
		Bench{Name: "Fleet/fallback/all-dead", F: mk(3, servingWorkload())},
	)
	return s
}
