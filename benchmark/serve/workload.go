package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/benchmark/harness"
)

// Workload is one of the serving workloads: its op classes, cheapest
// first, and the request shapes of each class.
type Workload struct {
	Name string
	// Hot workloads pre-warm every key and expect each later answer to be
	// the cached bytes; cold ones never repeat a key.
	Hot bool
	// Tiered workloads have classes whose latencies stay apart under
	// load, so the class of a percentile's sample is a stable fact.
	Tiered bool
	// Clients is the closed loop's size: that many callers, each on its own
	// keep-alive connection, each sending its next request when the last
	// one is answered.
	Clients  int
	classes  []harness.Class
	variants [][]variant // per class
	keys     []hotKey    // hot only: the key of each variant index
	// warmOps is how many ops of the sequence Setup performs before the
	// window; the window continues from there.
	warmOps int
}

// hotKey is one of a hot workload's fixed keys.
type hotKey struct {
	v variant
	u int64
}

// hotKeys builds the 256 keys of serve_hot: 25 of each of the eight light
// shapes, 46 matrix requests with an 8 KB body and 10 with a 66 KB body.
func hotKeys(light []variant, small, large variant) []hotKey {
	var keys []hotKey
	for j := 0; j < 200; j++ {
		v, u := light[j%len(light)], int64(j/len(light))
		if v.kind == kindMapTable || v.kind == kindMapRank {
			u *= 997 // spread the few keys over sizes, orders and ranks
		}
		keys = append(keys, hotKey{v, u})
	}
	for u := int64(0); u < 46; u++ {
		keys = append(keys, hotKey{small, u})
	}
	for u := int64(0); u < 10; u++ {
		keys = append(keys, hotKey{large, u})
	}
	return keys
}

// Workloads returns the serving workloads by name.
func Workloads() map[string]*Workload {
	halo8x16 := matrixMap("matrix-halo8x16", "4,2,2,8", 128, haloMatrix(8, 16))
	halo16x32 := matrixMap("matrix-halo16x32", "4,2,4,2,8", 512, haloMatrix(16, 32))
	layers := matrixMap("matrix-layers4x4x4", "2,2,2,8", 64, layersMatrix())
	hotLight := []variant{mapRank(), mapTable(), selectCores(), orderMetrics(),
		nodesAdvise("hydra", "alltoall", 16, false), nodesAdvise("hydra", "allreduce", 64, false),
		cloudAdvise(6, "alltoall", 16, false), cloudAdvise(8, "alltoall", 16, false)}
	hot := hotKeys(hotLight, halo8x16, halo16x32)

	// 256 keys, drawn uniformly, all served from the replicas' caches. The
	// matrix keys put bodies of 8 KB and 66 KB through the gate's key
	// derivation and the replica's digest. One class: the latencies of the
	// shapes overlap, so there are no tiers to keep apart. One caller: a
	// request passes through the load generator, the gate and a replica in
	// turn, so with one in flight those four processes never want more than
	// the machine's two cores. With two callers they did: a hit took 1.0 ms
	// instead of 0.7, a third of it waiting for a core, the rate of one
	// second differed from the next by 13 % (5 % with one caller), and two
	// runs of the same code differed by what the scheduler made of them.
	hotW := &Workload{Name: "serve_hot", Hot: true, Clients: 1, keys: hot,
		classes: []harness.Class{{Name: "hit", Share: 100, Variants: len(hot)}}}

	// Every key unique, depth at most 7: the cache is a write path and the
	// exhaustive and pruned searches do the work. Not tiered: a heavy
	// search on the other connection takes both cores for 100 ms, and a
	// light op that arrives meanwhile waits as long as a medium one takes.
	cold := &Workload{Name: "serve_cold", Clients: 2, warmOps: 40}
	cold.class("light", 40, mapTable(), selectCores(), orderMetrics(),
		nodesAdvise("hydra", "alltoall", 16, false), cloudAdvise(6, "alltoall", 16, false))
	cold.class("medium", 35, halo8x16, cloudAdvise(7, "alltoall", 16, false), layers,
		cloudAdvise(7, "allreduce", 16, false), halo16x32)
	cold.class("heavy", 25, cloudAdvise(7, "allgather", 64, false), cloudAdvise(7, "alltoall", 16, true),
		nodesAdvise("lumi", "allgather", 256, true))

	// Unique cloud advises past the exact-search threshold: branch and
	// bound, and the beam once the node budget is spent. Each bounded
	// search is one goroutine, so two of them run side by side and the
	// classes keep their distance.
	deep := &Workload{Name: "search_deep", Tiered: true, Clients: 2, warmOps: 20}
	deep.class("bnb-d8", 20, cloudAdvise(8, "alltoall", 16, false))
	deep.class("bnb-d10", 20, cloudAdvise(10, "alltoall", 16, false))
	deep.class("bnb-d12-alltoall", 30, cloudAdvise(12, "alltoall", 16, false))
	deep.class("bnb-d12-allreduce", 15, cloudAdvise(12, "allreduce", 16, false))
	deep.class("beam-simultaneous", 15, cloudAdvise(10, "alltoall", 16, true), cloudAdvise(12, "alltoall", 16, true))

	return map[string]*Workload{hotW.Name: hotW, cold.Name: cold, deep.Name: deep}
}

// class appends an op class holding the given request shapes; classes are
// added cheapest first.
func (w *Workload) class(name string, share int, shapes ...variant) {
	w.classes = append(w.classes, harness.Class{Name: name, Share: share, Variants: len(shapes)})
	w.variants = append(w.variants, shapes)
}

// Classes returns the workload's op classes, cheapest first.
func (w *Workload) Classes() []harness.Class { return w.classes }

// request renders the request of op. In a hot workload the key is fixed
// by the op's variant; in a cold one the op's serial number, offset by a
// seed-derived salt, makes it unique.
func (w *Workload) request(op harness.Op, salt int64) (variant, int64, Request) {
	if w.Hot {
		k := w.keys[op.Variant]
		return k.v, k.u, Request{Path: k.v.path, Body: k.v.body(k.u)}
	}
	v, u := w.variants[op.Class][op.Variant], salt+int64(op.Serial)
	return v, u, Request{Path: v.path, Body: v.body(u)}
}

// answer is one op's reply, kept for the checks after the window.
type answer struct {
	v     variant
	u     int64
	reply Reply
}

// Running is a booted, warmed fleet with its closed-loop clients.
type Running struct {
	w       *Workload
	fleet   *Fleet
	salt    int64
	clients []*http.Client
	// warm holds, for a hot workload, each key's cached answer by
	// (class, variant); answers lists what the checks look at afterwards.
	warm    map[[2]int]answer
	answers [][]answer // per client
}

// Setup boots a fleet, waits for it, and warms it: every lazy path on
// both replicas with keys the window never uses, then either every key
// (hot) or the first warmOps ops of the sequence (cold). It returns the
// index of the first op of the window.
func (w *Workload) Setup(sched *harness.Schedule, seed int64, binDir, logDir string) (*Running, int, error) {
	fleet, err := StartFleet(binDir, logDir, w.Name)
	if err != nil {
		return nil, 0, err
	}
	r := &Running{w: w, fleet: fleet, salt: (seed%4096 + 4096) % 4096 << 16, warm: map[[2]int]answer{},
		answers: make([][]answer, w.Clients)}
	for i := 0; i < w.Clients; i++ {
		r.clients = append(r.clients, newClient())
	}
	if err := r.warmLazyPaths(); err != nil {
		r.Close()
		return nil, 0, err
	}
	first := w.warmOps
	if w.Hot {
		// One pass fills the caches and records the answers; the window's
		// ops are then compared against them byte for byte.
		for c, cl := range w.classes {
			for v := 0; v < cl.Variants; v++ {
				vr, u, req := w.request(harness.Op{Class: c, Variant: v}, 0)
				reply, err := post(r.clients[0], fleet.GateURL, req, 0, nil)
				if err != nil || !served(reply) {
					r.Close()
					return nil, 0, fmt.Errorf("serve: pre-warming %s: status %d: %v", vr.name, reply.Status, err)
				}
				r.warm[[2]int{c, v}] = answer{vr, u, reply}
			}
		}
		first = 0
	} else if err := harness.WarmUp(sched, r.System(), 0, w.warmOps); err != nil {
		r.Close()
		return nil, 0, err
	}
	if first, err = r.settle(sched, first); err != nil {
		r.Close()
		return nil, 0, err
	}
	for i := range r.answers {
		r.answers[i] = nil // warm-up answers are not part of the window
	}
	return r, first, nil
}

// settleBudget bounds the extra warm-up of settle.
const settleBudget = 10 * time.Second

// settle returns, with the index of the window's first op, once the gate
// routes to both replicas alike. The gate looks at the replicas once a
// second, so it may still hold a replica's first, slow advise against it
// (see history) and send everything to the other one: a window opened in
// that state measures a fleet of one. Further ops of the sequence, a cycle
// at a time, pass the time until it has looked again.
func (r *Running) settle(sched *harness.Schedule, first int) (int, error) {
	deadline := time.Now().Add(settleBudget)
	for {
		states, err := r.fleet.ReplicaStates()
		if err != nil {
			return 0, err
		}
		if states[0] == states[1] {
			return first, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("serve: after %v of extra warm-up the gate still sees the replicas as %v", settleBudget, states)
		}
		if err := harness.WarmUp(sched, r.System(), first, sched.CycleLen()); err != nil {
			return 0, err
		}
		first += sched.CycleLen()
		time.Sleep(50 * time.Millisecond) // the gate looks at the replicas once a second
	}
}

// history is how many quick advises each replica answers before the
// window. A replica reports itself degraded once 14 % of its advises of
// the last minutes took over 250 ms, the gate then sends everything to the
// other one, and with no requests the share never falls again. Fresh from
// boot, the half second of the first advise or two heavy searches in a row
// are that share; after this many answers the heavy ops of a whole window
// are not, and the fleet stays the two healthy replicas the window is
// meant to measure.
const history = 400

// warmLazyPaths sends each replica one request per endpoint and search
// mode directly, so first-use costs (heap growth, first search) are paid
// before the window on both replicas whatever the hash ring decides, and
// then the history of quick advises.
func (r *Running) warmLazyPaths() error {
	reqs := []Request{
		{"/v1/map", []byte(`{"hierarchy":"3,3,5","order":"2-0-1","table":true}`)},
		{"/v1/select", []byte(`{"hierarchy":"3,3,5","order":"2-0-1","n":7}`)},
		{"/v1/metrics/order", []byte(`{"hierarchy":"3,3,5","order":"2-0-1","comm_size":5}`)},
		{"/v1/advise", []byte(`{"machine":"hydra","nodes":8,"collective":"alltoall","comm_size":16,"bytes":65536}`)},
		{"/v1/advise", []byte(`{"machine":"cloud","depth":8,"collective":"allgather","comm_size":16,"bytes":65536}`)},
		{"/v1/map/matrix", []byte(`{"hierarchy":"2,2,4","matrix":` + haloMatrix(4, 4) + `}`)},
	}
	for _, base := range r.fleet.ReplicaURLs {
		for _, req := range reqs {
			reply, err := post(r.clients[0], base, req, 0, nil)
			if err != nil || reply.Status != http.StatusOK {
				return fmt.Errorf("serve: warming %s%s: status %d: %v", base, req.Path, reply.Status, err)
			}
		}
		quick := reqs[3] // by now a cache hit
		for i := 0; i < history; i++ {
			if reply, err := post(r.clients[0], base, quick, 0, nil); err != nil || reply.Status != http.StatusOK {
				return fmt.Errorf("serve: warming %s%s: status %d: %v", base, quick.Path, reply.Status, err)
			}
		}
	}
	return nil
}

// System exposes the fleet to the closed loop.
func (r *Running) System() harness.System {
	return harness.System{
		Clients: r.w.Clients,
		Do:      r.do,
		CPU:     func() (time.Duration, error) { return harness.ProcCPU(r.fleet.Pids()...) },
		Alive:   r.fleet.Alive,
	}
}

func (r *Running) do(client int, op harness.Op, lane *harness.Lane) bool {
	v, u, req := r.w.request(op, r.salt)
	reply, err := post(r.clients[client], r.fleet.GateURL, req, op.Index, lane)
	if err != nil || !served(reply) {
		r.answers[client] = append(r.answers[client], answer{v, u, reply})
		return false
	}
	if r.w.Hot {
		// A cache hit returns the bytes the pre-warm pass stored, which
		// are checked in full after the window.
		return bytes.Equal(reply.Body, r.warm[[2]int{op.Class, op.Variant}].reply.Body)
	}
	r.answers[client] = append(r.answers[client], answer{v, u, reply})
	return true
}

// PeakRSSMB sums the peak resident set sizes of the gate and replicas.
func (r *Running) PeakRSSMB() (float64, error) { return harness.PeakRSSMB(r.fleet.Pids()...) }

// Close stops the fleet.
func (r *Running) Close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.fleet.Stop()
}
