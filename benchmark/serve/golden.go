package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// AdviseGolden is the winning order and search mode every advise of one
// variant must carry, whatever its size in the variant's band.
type AdviseGolden struct {
	Order      []int  `json:"order"`
	SearchMode string `json:"search_mode"`
}

// GoldenResponse is the exact bytes of the answer to one fixed request:
// the named variant's request for goldenU.
type GoldenResponse struct {
	Name     string `json:"name"`
	Response string `json:"response"`
}

// Golden is the content of golden/serve.json.
type Golden struct {
	Advise    map[string]AdviseGolden `json:"advise"`
	Responses []GoldenResponse        `json:"responses"`
}

// Count implements harness.Counted.
func (g *Golden) Count() int { return len(g.Advise) + len(g.Responses) }

// goldenU is the uniqueness number of the fixed requests.
const goldenU = 7

// variants lists the request shapes the given workloads send, each once,
// by name.
func variants(ws ...*Workload) []variant {
	byName := map[string]variant{}
	for _, w := range ws {
		for _, vs := range w.variants {
			for _, v := range vs {
				byName[v.name] = v
			}
		}
		for _, k := range w.keys {
			byName[k.v.name] = k.v
		}
	}
	var out []variant
	for _, v := range byName {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// allVariants lists every request shape of every serving workload.
func allVariants() []variant {
	var ws []*Workload
	for _, w := range Workloads() {
		ws = append(ws, w)
	}
	return variants(ws...)
}

// CheckGolden sends the fixed request of each shape the workload uses
// through the gate and compares the answer with the golden bytes.
func (r *Running) CheckGolden(g *Golden) error {
	golden := map[string]string{}
	for _, gr := range g.Responses {
		golden[gr.Name] = gr.Response
	}
	for _, v := range variants(r.w) {
		want, ok := golden[v.name]
		if !ok {
			return fmt.Errorf("serve: golden/serve.json has no answer for %s", v.name)
		}
		reply, err := post(r.clients[0], r.fleet.GateURL, Request{v.path, v.body(goldenU)}, 0, nil)
		if err != nil || !served(reply) {
			return fmt.Errorf("serve: golden request %s: status %d: %v", v.name, reply.Status, err)
		}
		if string(reply.Body) != want {
			return fmt.Errorf("serve: answer to golden request %s differs from golden/serve.json:\n got %s\nwant %s",
				v.name, reply.Body, want)
		}
	}
	return nil
}

// Regenerate asks the running fleet for the golden content: the fixed
// responses, and each advise variant's winning order, which must be the
// same at both ends and the middle of the variant's size band.
func (r *Running) Regenerate() (*Golden, error) {
	g := &Golden{Advise: map[string]AdviseGolden{}}
	ask := func(v variant, u int64) (Reply, wire, error) {
		req := Request{v.path, v.body(u)}
		reply, err := post(r.clients[0], r.fleet.GateURL, req, 0, nil)
		if err != nil || !served(reply) {
			return reply, wire{}, fmt.Errorf("serve: %s: status %d: %v", v.name, reply.Status, err)
		}
		var w wire
		if err := json.Unmarshal(reply.Body, &w); err != nil {
			return reply, w, fmt.Errorf("serve: %s: %w", v.name, err)
		}
		return reply, w, nil
	}
	for _, v := range allVariants() {
		reply, w, err := ask(v, goldenU)
		if err != nil {
			return nil, err
		}
		g.Responses = append(g.Responses, GoldenResponse{v.name, string(reply.Body)})
		if v.kind != kindAdvise {
			continue
		}
		if len(w.Best) == 0 {
			return nil, fmt.Errorf("serve: %s: empty ranking", v.name)
		}
		want := AdviseGolden{w.Best[0].Order, w.SearchMode}
		for _, u := range []int64{0, 256 << 20, 512<<20 - 1} {
			_, w, err := ask(v, u)
			if err != nil {
				return nil, err
			}
			if len(w.Best) == 0 || !reflect.DeepEqual(w.Best[0].Order, want.Order) || w.SearchMode != want.SearchMode {
				return nil, fmt.Errorf("serve: %s: the winning order changes inside the size band (u=%d)", v.name, u)
			}
		}
		g.Advise[v.name] = want
	}
	return g, nil
}
