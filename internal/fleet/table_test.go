package fleet

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
)

// tableSamples holds, per endpoint name of mapd's table, one logical
// request in two surface syntaxes ("2x2x4" vs "[2, 2, 4]", defaults
// spelled out vs omitted, edges listed in another order).
var tableSamples = map[string][2]string{
	"map": {
		`{"hierarchy":"2x2x4","order":"2-1-0","rank":5}`,
		`{"hierarchy":"[2, 2, 4]","order":"2,1,0","rank":5}`,
	},
	"map_matrix": {
		`{"hierarchy":"2x2x2","matrix":{"ranks":8,"edges":[{"a":0,"b":7,"bytes":1000},{"a":1,"b":7,"bytes":900},{"a":4,"b":5,"bytes":10}]},"seed":1}`,
		`{"hierarchy":"[2, 2, 2]","matrix":{"ranks":8,"edges":[{"a":5,"b":4,"bytes":10},{"a":7,"b":0,"bytes":1000},{"a":1,"b":7,"bytes":900}]},"seed":1,"refine":true}`,
	},
	"advise": {
		`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`,
		`{"comm_size":16,"collective":"alltoall","machine":"hydra","nodes":4,"nics":1,"bytes":16777216,"top":5}`,
	},
	"select": {
		`{"hierarchy":"2x4x2x8","order":"2-1-0-3","n":8}`,
		`{"hierarchy":"[2, 4, 2, 8]","order":"2,1,0,3","n":8}`,
	},
	"metrics_order": {
		`{"hierarchy":"16x2x2x8","order":"3-2-1-0","comm_size":16}`,
		`{"hierarchy":"[16, 2, 2, 8]","order":"3,2,1,0","comm_size":16}`,
	},
}

// Every tier reads mapd's endpoint table, so for each row — not for a
// hard-coded path list — the gate must route by the key the replica caches
// under, answer an all-dead fleet with the replica's own degraded answer,
// and serve the row's path. A sixth endpoint fails here until it has a
// sample, and then runs through the same checks.
func TestEndpointTableParity(t *testing.T) {
	table := mapd.Endpoints()
	if len(table) != len(tableSamples) {
		t.Fatalf("mapd's table has %d endpoints, tableSamples %d", len(table), len(tableSamples))
	}

	// A live fleet whose replica registries the test can read.
	const n = 3
	var urls, names []string
	regs := map[string]*obs.Registry{}
	for i := 0; i < n; i++ {
		name := "r" + strconv.Itoa(i)
		regs[name] = obs.NewRegistry()
		ts := httptest.NewServer(mapd.New(mapd.Config{Name: name, Registry: regs[name]}).Handler())
		t.Cleanup(ts.Close)
		urls, names = append(urls, ts.URL), append(names, name)
	}
	quiet := HealthConfig{Interval: time.Hour}
	live, err := New(Config{Replicas: urls, Names: names, Health: quiet})
	if err != nil {
		t.Fatal(err)
	}
	liveGate := httptest.NewServer(live.Handler())
	t.Cleanup(liveGate.Close)

	// A gate whose fleet is gone.
	_, deadGate, reps := newFleet(t, 1, Config{})
	reps[0].Close()

	// A replica with its breaker open: advise evaluations overrun their
	// budget until the breaker opens, and from then on both search
	// endpoints serve the σ fallback.
	tripped := mapd.New(mapd.Config{CacheEntries: -1, Timeout: 5 * time.Millisecond})
	tripped.AdviseHook = func() { time.Sleep(30 * time.Millisecond) }
	open := httptest.NewServer(tripped.Handler())
	t.Cleanup(open.Close)
	for i := 0; ; i++ {
		code, body, _ := gatePost(t, open, "/v1/advise", tableSamples["advise"][0])
		if code == http.StatusOK && strings.Contains(body, `"degraded":true`) {
			break
		}
		if code != http.StatusGatewayTimeout || i == 10 {
			t.Fatalf("tripping the breaker, request %d: status %d body %s, want 504 until it opens", i, code, body)
		}
	}

	for _, ep := range table {
		sample, ok := tableSamples[ep.Name]
		if !ok {
			t.Fatalf("endpoint %s (%s) has no sample request: add one to tableSamples", ep.Name, ep.Path)
		}
		t.Run(ep.Name, func(t *testing.T) {
			// Routing key = cache key: both variants hash to one key, the
			// gate sends them to that key's home replica, and the second is
			// a hit in the first's cache entry there.
			key, err := mapd.RoutingKey(ep.Path, []byte(sample[0]))
			if err != nil {
				t.Fatal(err)
			}
			if k2, err := mapd.RoutingKey(ep.Path, []byte(sample[1])); err != nil || k2 != key {
				t.Fatalf("variants key differently: %q vs %q (%v)", key, k2, err)
			}
			home := names[live.ring.Sequence(key)[0]]
			var healthy string
			for i, body := range sample {
				code, resp, hdr := gatePost(t, liveGate, ep.Path, body)
				if code != http.StatusOK {
					t.Fatalf("variant %d: status %d body %s", i, code, resp)
				}
				if got := hdr.Get("x-mr-replica"); got != home {
					t.Errorf("variant %d served by %s, key %q lives on %s", i, got, key, home)
				}
				if i == 1 && resp != healthy {
					t.Errorf("variants answered differently:\n%s\n%s", healthy, resp)
				}
				healthy = resp
			}
			l := obs.L("endpoint", ep.Name)
			if hits, misses := regs[home].FindCounter("mapd_cache_hits_total", l),
				regs[home].FindCounter("mapd_cache_misses_total", l); hits != 1 || misses != 1 {
				t.Errorf("replica %s saw %v hits / %v misses, want the second variant to hit the first's entry", home, hits, misses)
			}

			// The all-dead gate runs the replica's own degraded answer.
			code, local, hdr := gatePost(t, deadGate, ep.Path, sample[1])
			if code != http.StatusOK || hdr.Get("x-mrgate-fallback") != "local" {
				t.Fatalf("all-dead gate: status %d fallback %q body %s", code, hdr.Get("x-mrgate-fallback"), local)
			}
			_, want, _ := gatePost(t, open, ep.Path, sample[0])
			if !strings.Contains(want, `"search_mode":"fallback"`) {
				// No σ fallback on this endpoint: the breaker-open replica
				// evaluated it exactly, and so must the gate, flagged.
				if want != healthy {
					t.Fatalf("breaker-open replica answered %s, healthy fleet %s", want, healthy)
				}
				want = strings.TrimSuffix(healthy, "}") + `,"degraded":true}`
			}
			if local != want {
				t.Errorf("all-dead gate answer differs from the replica's\n gate:    %s\n replica: %s", local, want)
			}
		})
	}

	// Exactly the table's paths: the replica-only reports are not proxied.
	for _, path := range []string{"/v1/stats", "/v1/slo", "/v1/nope"} {
		if code, _, _ := gatePost(t, liveGate, path, `{}`); code != http.StatusNotFound {
			t.Errorf("gate serves %s (status %d), which is not in mapd's endpoint table", path, code)
		}
	}
}
