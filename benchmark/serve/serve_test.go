package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/harness"
)

func TestWorkloadsAreWellFormed(t *testing.T) {
	ws := Workloads()
	for _, name := range []string{"serve_hot", "serve_cold", "search_deep"} {
		w, ok := ws[name]
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		if _, err := harness.NewSchedule(w.Classes(), 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := harness.CheckMargins(w.Classes(), 50, 90); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Every request body is valid JSON, and a cold workload never repeats a
// key within a run: over a thousand ops, whatever the seed's salt.
func TestRequestsAreValidAndUnique(t *testing.T) {
	for name, w := range Workloads() {
		sched, err := harness.NewSchedule(w.Classes(), 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, salt := range []int64{0, 4095 << 16} {
			seen := map[string]int{}
			for i := 0; i < 1000; i++ {
				_, _, req := w.request(sched.At(i), salt)
				if !json.Valid(req.Body) {
					t.Fatalf("%s op %d: body is not JSON: %.80s", name, i, req.Body)
				}
				key := req.Path + " " + string(req.Body)
				if j, dup := seen[key]; dup && !w.Hot {
					t.Fatalf("%s: ops %d and %d send the same request %.100s", name, j, i, key)
				}
				seen[key] = i
			}
			if w.Hot && len(seen) != 256 {
				t.Errorf("%s: %d distinct keys in 1000 ops, want all 256", name, len(seen))
			}
		}
	}
}

func TestHotKeysAreDistinct(t *testing.T) {
	w := Workloads()["serve_hot"]
	seen := map[string]bool{}
	for _, k := range w.keys {
		seen[k.v.path+string(k.v.body(k.u))] = true
	}
	if len(w.keys) != 256 || len(seen) != 256 {
		t.Fatalf("%d keys, %d distinct; want 256", len(w.keys), len(seen))
	}
}

func TestGeneratedMatrices(t *testing.T) {
	type sparse struct {
		Ranks int `json:"ranks"`
		Edges []struct {
			A, B  int
			Bytes float64
		} `json:"edges"`
	}
	for name, tc := range map[string]struct {
		text  string
		ranks int
		edges int
	}{
		"halo 8x16":     {haloMatrix(8, 16), 128, 256},
		"halo 16x32":    {haloMatrix(16, 32), 512, 1024},
		"layers 4x4x4":  {layersMatrix(), 64, 64 * (63 - 27) / 2}, // 27 of the other 63 ranks share no coordinate
		"halo 4x4 warm": {haloMatrix(4, 4), 16, 32},
	} {
		var m sparse
		if err := json.Unmarshal([]byte(tc.text), &m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Ranks != tc.ranks || len(m.Edges) != tc.edges {
			t.Errorf("%s: %d ranks, %d edges; want %d, %d", name, m.Ranks, len(m.Edges), tc.ranks, tc.edges)
		}
		for i, e := range m.Edges {
			if e.A >= e.B || e.Bytes <= 0 || e.B >= m.Ranks {
				t.Fatalf("%s: edge %d is %+v", name, i, e)
			}
			if i > 0 && (m.Edges[i-1].A > e.A || m.Edges[i-1].A == e.A && m.Edges[i-1].B >= e.B) {
				t.Fatalf("%s: edges %d and %d out of order", name, i-1, i)
			}
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	g := &Golden{Advise: map[string]AdviseGolden{"adv": {Order: []int{2, 0, 1}, SearchMode: "bnb"}}}
	ok := func(k kind, ranks int, body string) answer {
		return answer{v: variant{name: "adv", kind: k, ranks: ranks}, reply: Reply{Status: 200, Replica: "r0", Body: []byte(body)}}
	}
	good := []answer{
		ok(kindMapRank, 16, `{"new_rank":15}`),
		ok(kindMapTable, 0, `{"hierarchy":[2,2],"table":[3,1,0,2]}`),
		ok(kindSelect, 8, `{"n":3,"map_cpu":[0,4,2]}`),
		ok(kindMetrics, 0, `{"ring_cost":7,"pairs_per_level":[25,75]}`),
		ok(kindAdvise, 0, `{"search_mode":"bnb","best":[{"order":[2,0,1]},{"order":[0,1,2]}]}`),
		ok(kindMatrix, 4, `{"ranks":4,"placement":[1,0,3,2],"search_mode":"matrix"}`),
	}
	for _, a := range good {
		if err := checkAnswer(a, g); err != nil {
			t.Errorf("a correct answer was refused: %v", err)
		}
	}
	bad := []answer{
		ok(kindMapRank, 16, `{"new_rank":16}`),
		ok(kindMapRank, 16, `{}`),
		ok(kindMapTable, 0, `{"hierarchy":[2,2],"table":[3,1,0,3]}`),
		ok(kindMapTable, 0, `{"hierarchy":[2,2],"table":[2,1,0]}`),
		ok(kindSelect, 8, `{"n":3,"map_cpu":[0,4,4]}`),
		ok(kindSelect, 8, `{"n":3,"map_cpu":[0,4,8]}`),
		ok(kindMetrics, 0, `{"ring_cost":7,"pairs_per_level":[25,70]}`),
		ok(kindAdvise, 0, `{"search_mode":"beam","best":[{"order":[2,0,1]}]}`),
		ok(kindAdvise, 0, `{"search_mode":"bnb","best":[{"order":[0,2,1]}]}`),
		ok(kindAdvise, 0, `{"search_mode":"bnb","best":[]}`),
		ok(kindMatrix, 4, `{"ranks":4,"placement":[1,0,3,3],"search_mode":"matrix"}`),
		ok(kindMatrix, 4, `{"ranks":4,"placement":[1,0,3,2],"search_mode":"fallback"}`),
		ok(kindMatrix, 4, `not json`),
	}
	for i, a := range bad {
		if err := checkAnswer(a, g); err == nil {
			t.Errorf("wrong answer %d was accepted: %s", i, a.reply.Body)
		}
	}
	if !isDegraded([]byte(`{"x":1,"degraded":true}`)) || isDegraded([]byte(`{"x":1}`)) {
		t.Error("isDegraded")
	}
	if served(Reply{Status: 200, Replica: "", Body: []byte(`{}`)}) || served(Reply{Status: 503, Replica: "r1"}) ||
		served(Reply{Status: 200, Replica: "r1", Body: []byte(`{"degraded":true}`)}) || !served(Reply{Status: 200, Replica: "r1", Body: []byte(`{}`)}) {
		t.Error("served")
	}
}

func TestScrapeSumsLabelSets(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Join([]string{
			"# HELP mapd_cache_hits_total hits",
			"# TYPE mapd_cache_hits_total counter",
			`mapd_cache_hits_total{endpoint="advise"} 3`,
			`mapd_cache_hits_total{endpoint="map"} 4`,
			"mapd_shed_total 2",
			`fleet_request_seconds_bucket{endpoint="map",le="+Inf"} 9`,
			`fleet_request_seconds_sum{endpoint="map"} 0.5`,
			"garbage line without value x", ""}, "\n"))
	}))
	defer ts.Close()
	s, err := scrape(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"mapd_cache_hits_total":                     7,
		`mapd_cache_hits_total{endpoint="map"}`:     4,
		"mapd_shed_total":                           2,
		"fleet_request_seconds_sum":                 0.5,
		`fleet_request_seconds_sum{endpoint="map"}`: 0.5,
	} {
		if s[k] != want {
			t.Errorf("%s = %g, want %g", k, s[k], want)
		}
	}
	both, err := scrapeAll(ts.Client(), ts.URL, ts.URL)
	if err != nil || both["mapd_cache_hits_total"] != 14 {
		t.Errorf("two processes: %g, %v", both["mapd_cache_hits_total"], err)
	}
}

func TestReplicaStatesReadsTheGatesView(t *testing.T) {
	answer := `{"replicas":[{"name":"r0","url":"u0","state":"degraded"},{"name":"r1","url":"u1","state":"healthy"}],"fallback":true}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fleet" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, answer)
	}))
	defer ts.Close()
	f := &Fleet{GateURL: ts.URL}
	states, err := f.ReplicaStates()
	if err != nil || len(states) != 2 || states[0] != "degraded" || states[1] != "healthy" {
		t.Fatalf("states %v, %v", states, err)
	}
	answer = `{"replicas":[{"name":"r0","state":"healthy"}]}`
	if _, err := f.ReplicaStates(); err == nil {
		t.Error("a gate that lists one replica was accepted")
	}
}

// The committed golden file covers exactly the request shapes the
// workloads send.
func TestGoldenFileMatchesTheVariants(t *testing.T) {
	g := &Golden{}
	if err := harness.ReadGolden(filepath.Join("..", "golden", "serve.json"), g); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range g.Responses {
		have[r.Name] = true
		if !json.Valid([]byte(r.Response)) {
			t.Errorf("golden response %s is not JSON", r.Name)
		}
	}
	advises := 0
	for _, v := range allVariants() {
		if !have[v.name] {
			t.Errorf("no golden response for %s", v.name)
		}
		if v.kind == kindAdvise {
			advises++
			if _, ok := g.Advise[v.name]; !ok {
				t.Errorf("no golden winning order for %s", v.name)
			}
		}
	}
	if len(g.Responses) != len(allVariants()) || len(g.Advise) != advises {
		t.Errorf("golden file holds %d responses and %d advises; the workloads have %d and %d",
			len(g.Responses), len(g.Advise), len(allVariants()), advises)
	}
}
