package layers

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/mapd"
)

// handle serves one POST on h and returns the status.
func handle(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code
}

// probeServing times the serving tier without sockets between client and
// handler: the gate's routing against a stub replica, its local fallback
// with no live replica, and the replica's handler on a cached and on an
// uncached light key.
func probeServing(m Metrics) error {
	light := []byte(`{"hierarchy":"16,2,4,2,8","order":"3-2-1-4-0","rank":1234}`)
	status := http.StatusOK
	check := func(what string) error {
		if status != http.StatusOK {
			return fmt.Errorf("layers: %s answered %d", what, status)
		}
		return nil
	}

	// The stub answers every request with a fixed small body, so the
	// route probe times the gate alone: key derivation, ring lookup,
	// proxying and response copy.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte(`{"status":"healthy"}`)) // a failed write shows as a failed probe
			return
		}
		_, _ = w.Write([]byte(`{"hierarchy":[16,2,4,2,8],"new_rank":77}`))
	}))
	defer stub.Close()
	quiet := fleet.HealthConfig{Interval: time.Hour} // no background sweeps during a probe
	gate, err := fleet.New(fleet.Config{Replicas: []string{stub.URL, stub.URL}, Health: quiet})
	if err != nil {
		return err
	}
	gate.CheckNow(context.Background())
	gh := gate.Handler()
	ns, allocs := perOp(400, func() {
		if s := handle(gh, "/v1/map", light); s != http.StatusOK {
			status = s
		}
	})
	if err := check("the gate's route"); err != nil {
		return err
	}
	m["fleet.route_us_per_op"], m["fleet.route_allocs_per_op"] = ns/1e3, allocs

	ring := fleet.NewRing(2, 0)
	m["fleet.ring_sequence_ns_per_op"], _ = perOp(100000, func() { sink += ring.Sequence("map|16,2,4,2,8|3,2,1,4,0|r1234")[0] })

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	lone, err := fleet.New(fleet.Config{Replicas: []string{dead.URL}, Health: quiet})
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ { // enough failed sweeps to eject the replica
		lone.CheckNow(context.Background())
	}
	lh := lone.Handler()
	ns, _ = perOp(400, func() {
		if s := handle(lh, "/v1/map", light); s != http.StatusOK {
			status = s
		}
	})
	if err := check("the gate's local fallback"); err != nil {
		return err
	}
	m["fleet.fallback_us_per_op"] = ns / 1e3

	// The replica's own pipeline: parse → key → cache → encode.
	srv := mapd.New(mapd.Config{})
	sh := srv.Handler()
	ns, allocs = perOp(2000, func() {
		if s := handle(sh, "/v1/map", light); s != http.StatusOK {
			status = s
		}
	})
	m["mapd.handler_hit_us_per_op"], m["mapd.handler_hit_allocs_per_op"] = ns/1e3, allocs
	serial := 0
	ns, _ = perOp(1000, func() {
		serial++
		miss := []byte(`{"hierarchy":"` + strconv.Itoa(2+serial) + `,2,4,2,8","order":"3-2-1-4-0","rank":7}`)
		if s := handle(sh, "/v1/map", miss); s != http.StatusOK {
			status = s
		}
	})
	if err := check("the replica's handler"); err != nil {
		return err
	}
	m["mapd.handler_miss_us_per_op"] = ns / 1e3

	ns, allocs = perOp(20000, func() {
		var key string
		if key, err = mapd.RoutingKey("/v1/map", light); err == nil {
			sink += len(key)
		}
	})
	if err != nil {
		return err
	}
	m["mapd.routing_key_ns_per_op"], m["mapd.routing_key_allocs_per_op"] = ns, allocs

	// The result cache at the daemon's default geometry, full.
	cache := mapd.NewCache(4096, 16)
	keys := make([]string, 4096)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = "map|16,2,4,2,8|3,2,1,4,0|r" + strconv.Itoa(i)
		cache.Put(keys[i], val)
	}
	i := 0
	m["mapd.cache_get_ns_per_op"], _ = perOp(200000, func() {
		v, _ := cache.Get(keys[i&4095])
		sink += len(v)
		i++
	})
	fresh := make([]string, 1<<16)
	for j := range fresh {
		fresh[j] = "advise|cloud|0|0|7|alltoall|16|" + strconv.Itoa(j)
	}
	i = 0
	m["mapd.cache_put_ns_per_op"], _ = perOp(100000, func() {
		cache.Put(fresh[i&(1<<16-1)], val)
		i++
	})
	return nil
}
