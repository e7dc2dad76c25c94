package mapd

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRoutingKeyMatchesServerKey(t *testing.T) {
	// Syntactic variants of the same logical request must share a routing
	// key — that is the whole point of key-based consistent hashing.
	variants := []string{
		`{"hierarchy":"2,2,4","rank":5}`,
		`{"hierarchy":"2x2x4","rank":5}`,
		`{"hierarchy":"[2, 2, 4]","rank":5}`,
	}
	first, err := RoutingKey("/v1/map", []byte(variants[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		k, err := RoutingKey("/v1/map", []byte(v))
		if err != nil {
			t.Fatalf("RoutingKey(%s): %v", v, err)
		}
		if k != first {
			t.Errorf("variant %s routed to %q, want %q", v, k, first)
		}
	}

	// Every routable endpoint yields a distinct, stable key.
	cases := map[string]string{
		"/v1/map":           `{"hierarchy":"2,2,4","rank":5}`,
		"/v1/advise":        `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`,
		"/v1/select":        `{"hierarchy":"2,2,4","order":"2-1-0","n":8}`,
		"/v1/metrics/order": `{"hierarchy":"2,2,4","order":"2-1-0"}`,
	}
	seen := map[string]string{}
	for path, body := range cases {
		k, err := RoutingKey(path, []byte(body))
		if err != nil {
			t.Fatalf("RoutingKey(%s): %v", path, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("paths %s and %s share key %q", prev, path, k)
		}
		seen[k] = path
		k2, _ := RoutingKey(path, []byte(body))
		if k2 != k {
			t.Errorf("RoutingKey(%s) unstable: %q vs %q", path, k, k2)
		}
	}
}

// TestRoutingKeyLiterals pins keys byte for byte: a key is a cache and
// ring address, so a change in how one is rendered moves every entry.
func TestRoutingKeyLiterals(t *testing.T) {
	for _, c := range []struct{ path, body, want string }{
		{"/v1/advise", `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`,
			"advise|hydra|4|1|0|alltoall|16|16777216|false|5"},
		{"/v1/advise", `{"machine":"cloud","depth":9,"collective":"allreduce","comm_size":64,"bytes":65536,"simultaneous":true,"top":3}`,
			"advise|cloud|0|0|9|allreduce|64|65536|true|3"},
		{"/v1/map/matrix", `{"hierarchy":"2x2","matrix":{"ranks":4,"edges":[{"a":1,"b":0,"bytes":2.5}]},"seed":-7,"max_rounds":3,"refine":false}`,
			"mapmatrix|2,2|61359238242e0e568b26b05d77cdec6df4a59773da19aaccc8553cee91c5c717|s-7|r3|ffalse"},
		{"/v1/map/matrix", `{"hierarchy":"2,2,4","matrix":{"ranks":16,"edges":[]}}`,
			"mapmatrix|2,2,4|5eb6da0e0e522104c6d50b0748e6893762f7f2c00a7163a46ccbb535bfd61a0d|s0|r0|ftrue"},
		{"/v1/map", `{"hierarchy":"2,2,4","order":"2-0-1","coords":[1,0,3]}`, "map|2,2,4|2,0,1|c1,0,3"},
	} {
		if k, err := RoutingKey(c.path, []byte(c.body)); err != nil || k != c.want {
			t.Errorf("RoutingKey(%s, %s) = %q, %v; want %q", c.path, c.body, k, err, c.want)
		}
	}
}

func TestRoutingKeyErrors(t *testing.T) {
	if _, err := RoutingKey("/v1/map", []byte(`{"hierarchy":`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("malformed body: err = %v, want ErrBadRequest", err)
	}
	if _, err := RoutingKey("/v1/map", []byte(`{"hierarchy":"0"}`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid hierarchy: err = %v, want ErrBadRequest", err)
	}
	if _, err := RoutingKey("/v1/nope", []byte(`{}`)); err == nil {
		t.Error("unroutable path: want error")
	}
}

func TestShedRetryAfterScalesWithQueueDepth(t *testing.T) {
	cases := []struct {
		inflight, limit int64
		want            int
	}{
		{0, 512, 1},                      // under the cap (not shed, but defensively 1)
		{513, 512, 1},                    // barely over
		{768, 512, 3},                    // 1.5× over: backoff grows
		{1024, 512, 5},                   // 2× over
		{2048, 512, 13},                  // 4× over
		{100000, 512, maxShedRetryAfter}, // deeply over: capped
		{10, 0, 1},                       // shedding disabled: flat
	}
	for _, c := range cases {
		if got := shedRetryAfter(c.inflight, c.limit); got != c.want {
			t.Errorf("shedRetryAfter(%d, %d) = %d, want %d", c.inflight, c.limit, got, c.want)
		}
	}
	// Monotone in queue depth: a deeper queue never hints a shorter wait.
	prev := 0
	for n := int64(512); n < 512*10; n += 64 {
		got := shedRetryAfter(n, 512)
		if got < prev {
			t.Fatalf("shedRetryAfter not monotone at %d: %d < %d", n, got, prev)
		}
		prev = got
	}
}

func TestReplicaNameHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: obs.NewRegistry(), Name: "r7"})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"hierarchy":"2,2,4","rank":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("x-mr-replica"); got != "r7" {
		t.Errorf("x-mr-replica = %q, want r7", got)
	}
}
