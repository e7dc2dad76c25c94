// Package advisor addresses the paper's §5 outlook — "this knowledge
// could help to predict which order is the most suitable for the used
// system and applications" — with an analytic bottleneck model: for a
// machine description, a collective, a communicator size and an order, it
// estimates the operation time from the traffic each hierarchy link
// carries and ranks the k! orders without running the simulator.
//
// The model is deliberately first-order (per-link bottleneck analysis of
// the large-message ring/pairwise schedules plus a latency term); its
// purpose is ranking orders, and the tests validate that its ranking
// agrees with the discrete-event simulation.
package advisor

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Collective selects the modelled operation.
type Collective string

// Modelled collectives (the paper's non-rooted set).
const (
	Alltoall  Collective = "alltoall"
	Allgather Collective = "allgather"
	Allreduce Collective = "allreduce"
)

// Scenario describes one prediction problem.
type Scenario struct {
	Spec      netmodel.Spec
	Hierarchy topology.Hierarchy
	Coll      Collective
	CommSize  int
	// Simultaneous: all world subcommunicators run the collective at once
	// (the right-hand plots of the paper's figures); otherwise only the
	// first one (left-hand plots).
	Simultaneous bool
	// Bytes is the total collective size S (commSize × per-rank count).
	Bytes int64
}

// Prediction is the model's estimate for one order.
type Prediction struct {
	Order     []int
	Time      float64 // seconds per operation
	Bandwidth float64 // S / Time
	// BottleneckLevel is the hierarchy level whose links bound the time
	// (-1 when the latency term dominates).
	BottleneckLevel int
	// Latency is the rounds×latency share of Time; Time−Latency is the
	// pure traffic (bottleneck-link) share. The branch-and-bound search
	// uses the split to substitute an admissible latency floor when
	// bounding partial orders.
	Latency float64
}

// Predict estimates the collective duration under order sigma. It is the
// one-shot form; the searches build one predictor and reuse it per order.
func Predict(sc Scenario, sigma []int) (Prediction, error) {
	pd, err := newPredictor(sc)
	if err != nil {
		return Prediction{}, err
	}
	pr, err := pd.predict(sigma)
	if err != nil {
		return Prediction{}, err
	}
	pr.Order = append([]int(nil), sigma...)
	return pr, nil
}

// predictor evaluates the model for many orders of one scenario without
// allocating per order. Under an order a communicator is a range of
// reordered ranks, in the usual case a box in digit space (§3.3), whose
// occupancies, domains, ring out-edges and crossing level are products of
// its extents: it is answered in closed form, O(k). Only a communicator
// that is no box is walked, core by core (Reorderer.InverseRangeInto),
// into dense per-level tables reset through the list of entries touched.
// Not safe for concurrent use: every search owns one.
type predictor struct {
	sc      Scenario
	ro      *mixedradix.Reorderer
	ar      []int       // the hierarchy's arities
	n, k, p int         // its cores and levels; the communicator size
	levels  []levelLoad // levels [0, k-1): the innermost level has no uplink
	bus     levelLoad   // memory buses of the innermost domains (level k-2)
	ext     []int       // the box's extent on each level, as box last set it

	perEdge float64 // bytes one ring edge carries during an operation
	perRank float64 // bytes one rank moves through its memory domain
	rounds  float64 // latency-bound steps of the schedule

	// The walk's tables, built by its first call: a predictor that only
	// answers boxes never holds them. cores are the old ranks of the
	// modelled communicators' reordered ranks; occ and out count, by domain
	// of the level in hand, the communicator's ranks inside and its ring
	// edges leaving; seen lists the domains met. occ, out and seen are
	// clean between levels.
	cores    []int
	occ, out []int
	seen     []int
}

// levelLoad accumulates the bytes crossing each link of one kind at one
// level during one prediction.
type levelLoad struct {
	size     int       // cores per domain (unset for the buses, which share the innermost level's domains)
	capacity float64   // link bandwidth; 0 when the spec does not model the link
	bytes    []float64 // by domain
	touched  []int     // domains with bytes on them, for the reset
	peak     float64   // the most loaded link
}

func (ll *levelLoad) add(dom int, bytes float64) {
	if ll.bytes[dom] == 0 {
		ll.touched = append(ll.touched, dom)
	}
	ll.bytes[dom] += bytes
	if ll.bytes[dom] > ll.peak {
		ll.peak = ll.bytes[dom]
	}
}

func (ll *levelLoad) reset() {
	for _, d := range ll.touched {
		ll.bytes[d] = 0
	}
	ll.touched, ll.peak = ll.touched[:0], 0
}

func newPredictor(sc Scenario) (*predictor, error) {
	h := sc.Hierarchy
	ar := h.Arities()
	n := h.Size()
	p := sc.CommSize
	if p <= 0 || n%p != 0 {
		return nil, fmt.Errorf("advisor: communicator size %d does not divide %d", p, n)
	}
	if sc.Bytes <= 0 {
		return nil, fmt.Errorf("advisor: non-positive size")
	}
	k := len(ar)
	ro, err := mixedradix.NewReorderer(ar, mixedradix.IdentityOrder(k))
	if err != nil {
		return nil, err
	}
	B := float64(sc.Bytes)
	pd := &predictor{
		sc: sc, ro: ro, ar: ar, n: n, k: k, p: p,
		levels:  make([]levelLoad, max(k-1, 0)),
		ext:     make([]int, k),
		perRank: perRankBytes(sc.Coll, p, B),
		rounds:  float64(p - 1),
	}
	switch sc.Coll {
	case Alltoall:
		// Pairwise exchange: crossingBytes counts pairs, not ring edges.
	case Allgather:
		// Ring edges (i, i+1 mod p) carry p-1 blocks of B/p each.
		pd.perEdge = B * float64(p-1) / float64(p)
	case Allreduce:
		// Reduce-scatter + allgather: 2(p-1) chunks of B/p per edge.
		pd.perEdge = 2 * B * float64(p-1) / float64(p) / float64(p) * float64(p-1)
		pd.rounds = 2 * float64(p-1)
	default:
		return nil, fmt.Errorf("advisor: unknown collective %q", sc.Coll)
	}
	// Domains of level l hold the cores of all levels below it.
	size := 1
	for l := k - 2; l >= 0; l-- {
		size *= ar[l+1]
		ll := levelLoad{size: size}
		if l < len(sc.Spec.Levels) {
			ll.capacity = sc.Spec.Levels[l].UpBandwidth
			if l == 0 && sc.Spec.NICsPerNode > 0 {
				ll.capacity *= float64(sc.Spec.NICsPerNode)
			}
		}
		pd.levels[l] = ll
	}
	if inner := k - 2; inner >= 0 && inner < len(sc.Spec.Levels) {
		pd.bus.capacity = sc.Spec.Levels[inner].BusBandwidth
	}
	return pd, nil
}

// tables builds the walk's tables: the modelled cores, one communicator's
// or all of them, and the per-domain counters and byte loads.
func (pd *predictor) tables() {
	modelled := pd.p // only the first communicator, unless all run at once
	if pd.sc.Simultaneous {
		modelled = pd.n
	}
	pd.cores, pd.seen = make([]int, modelled), make([]int, 0, pd.p)
	for l := range pd.levels {
		if ll := &pd.levels[l]; ll.capacity > 0 {
			ll.bytes = make([]float64, pd.n/ll.size)
		}
	}
	if inner := pd.k - 2; inner >= 0 {
		domains := pd.n / pd.levels[inner].size // no level has more
		if pd.bus.capacity > 0 {
			pd.bus.bytes = make([]float64, domains)
		}
		pd.occ, pd.out = make([]int, domains), make([]int, domains)
	}
}

// predict estimates the collective duration under order sigma. The
// returned Order is nil: the caller knows which order it asked about.
func (pd *predictor) predict(sigma []int) (Prediction, error) {
	if err := mixedradix.CheckOrder(pd.ar, sigma); err != nil {
		return Prediction{}, err
	}
	if !pd.box(sigma) {
		return pd.walk(sigma)
	}
	k, p := pd.k, pd.p
	spans := k // the outermost level the box varies on
	for l, r := range pd.ext {
		if r > 1 {
			spans = l
			break
		}
	}
	a := 1 // the box's cores in each domain of level l it touches
	for l := k - 2; l >= 0; l-- {
		a *= pd.ext[l+1]
		ll := &pd.levels[l]
		uplinks := ll.capacity > 0 && l >= spans
		buses := l == k-2 && pd.bus.capacity > 0
		if !uplinks && !buses {
			continue
		}
		// Every domain touched is touched by as many communicators, each
		// loading it alike. The walk's peak is their sum, added in turn:
		// times·x can round differently.
		times, x := 1, 0.0
		if pd.sc.Simultaneous {
			times = pd.n / p * (p / a) / (pd.n / ll.size)
		}
		if uplinks {
			// A ring edge leaves the domain after each run of ranks that
			// vary only levels faster than the fastest of 0..l varying.
			run := 1
			for _, j := range sigma {
				if j <= l && pd.ext[j] > 1 {
					break
				}
				run *= pd.ext[j]
			}
			x = pd.crossingBytes(a, a/run)
		}
		for range times {
			if uplinks {
				ll.peak += x
			}
			if buses {
				pd.bus.peak += float64(a) * pd.perRank
			}
		}
	}
	return pd.finish(spans)
}

// box reports whether the first communicator under sigma, and with it
// every other, is a box in digit space: the levels of sigma's shortest
// covering prefix run over their full radix but the last, which runs
// over an aligned part of it, and all other levels are fixed. It sets ext
// to the box's extents. Every sigma passes when the arities are powers of two.
func (pd *predictor) box(sigma []int) bool {
	rest := pd.p // ranks still to lay out over the slower levels
	for _, l := range sigma {
		switch r := pd.ar[l]; {
		case rest%r == 0:
			pd.ext[l], rest = r, rest/r
		case r%rest == 0:
			pd.ext[l], rest = rest, 1
		default:
			return false
		}
	}
	return true
}

// walk is predict for any communicator: one pass over the modelled cores
// finds each level's domains, occupancies and ring out-edges.
func (pd *predictor) walk(sigma []int) (Prediction, error) {
	if err := pd.ro.Reset(sigma); err != nil {
		return Prediction{}, err
	}
	if pd.cores == nil {
		pd.tables()
	}
	pd.ro.InverseRangeInto(pd.cores, 0)
	k, p := pd.k, pd.p
	inner := k - 2
	crossLevel := k // outermost level any comm pair crosses (lower = farther)
	for first := 0; first < len(pd.cores); first += p {
		cores := pd.cores[first : first+p]
		// A domain is a contiguous range of cores, so the communicator sits
		// inside one exactly when its lowest and highest core do: the first
		// level that separates the two is the outermost one it crosses.
		lo, hi := cores[0], cores[0]
		for _, c := range cores[1:] {
			lo, hi = min(lo, c), max(hi, c)
		}
		spans := k
		if lo != hi {
			spans = k - 1
			for l := range pd.levels {
				if lo/pd.levels[l].size != hi/pd.levels[l].size {
					spans = l
					break
				}
			}
		}
		crossLevel = min(crossLevel, spans)
		for l := range pd.levels {
			ll := &pd.levels[l]
			// Above the level it spans, the communicator sits inside one
			// domain and nothing crosses; the memory buses carry every byte
			// a rank sends or receives wherever it sits.
			uplinks := ll.capacity > 0 && l >= spans
			buses := l == inner && pd.bus.capacity > 0
			if !uplinks && !buses {
				continue
			}
			seen := pd.seen[:0]
			prev := cores[p-1] / ll.size // the ring closes p-1 → 0
			for _, c := range cores {
				d := c / ll.size
				if pd.occ[d] == 0 {
					seen = append(seen, d)
				}
				pd.occ[d]++
				if d != prev {
					pd.out[prev]++
				}
				prev = d
			}
			for _, d := range seen {
				a := pd.occ[d]
				if uplinks && a != p {
					ll.add(d, pd.crossingBytes(a, pd.out[d]))
				}
				if buses {
					pd.bus.add(d, float64(a)*pd.perRank)
				}
				pd.occ[d], pd.out[d] = 0, 0
			}
		}
	}

	return pd.finish(crossLevel)
}

// finish turns the peaks into the prediction, crossLevel being the
// outermost level any communicator crosses, and clears them.
func (pd *predictor) finish(crossLevel int) (Prediction, error) {
	// Bottleneck: the most loaded link.
	worst := 0.0
	level := -1
	for l := range pd.levels {
		ll := &pd.levels[l]
		if ll.capacity <= 0 {
			continue
		}
		if t := ll.peak / ll.capacity; t > worst {
			worst = t
			level = l
		}
		ll.reset()
	}
	if pd.bus.capacity > 0 {
		if t := pd.bus.peak / pd.bus.capacity; t > worst {
			worst = t
			level = pd.k - 2
		}
		pd.bus.reset()
	}
	// Latency term: rounds × latency of the widest crossing.
	lat := 0.0
	if crossLevel < len(pd.sc.Spec.Levels) {
		lat = pd.sc.Spec.Levels[crossLevel].Latency
	}
	latTime := pd.rounds * lat
	total := worst + latTime
	if latTime > worst {
		level = -1
	}
	if total <= 0 {
		return Prediction{}, fmt.Errorf("advisor: degenerate prediction")
	}
	return Prediction{
		Time:            total,
		Bandwidth:       float64(pd.sc.Bytes) / total,
		BottleneckLevel: level,
		Latency:         latTime,
	}, nil
}

// perRankBytes is the volume one rank pushes through its memory domain.
func perRankBytes(coll Collective, p int, B float64) float64 {
	switch coll {
	case Alltoall:
		// Sends and receives (p-1)/p of its B/p contribution.
		return 2 * B / float64(p)
	case Allgather:
		// Ring: forwards p-1 blocks of B/p and receives as many.
		return 2 * B * float64(p-1) / float64(p)
	case Allreduce:
		// Ring reduce-scatter + allgather: ≈ 2B in, 2B out per rank pair
		// of phases over chunks of B/p.
		return 4 * B * float64(p-1) / float64(p) / float64(p)
	}
	return B
}

// crossingBytes is the egress traffic of a domain holding a of the comm's
// p ranks, with edges of its ring edges leaving the domain, during one
// operation.
func (pd *predictor) crossingBytes(a, edges int) float64 {
	switch pd.sc.Coll {
	case Alltoall:
		// Every ordered pair exchanges B/p².
		p := float64(pd.p)
		return float64(a) * float64(pd.p-a) * float64(pd.sc.Bytes) / p / p
	case Allgather, Allreduce:
		return float64(edges) * pd.perEdge
	}
	return 0
}

// Explain renders a short human-readable justification.
func Explain(sc Scenario, pr Prediction) string {
	where := "latency-bound"
	if pr.BottleneckLevel >= 0 {
		where = fmt.Sprintf("bounded by level %d (%s) links",
			pr.BottleneckLevel, sc.Hierarchy.Level(pr.BottleneckLevel).Name)
	}
	ch, err := metrics.Characterize(sc.Hierarchy, pr.Order, sc.CommSize)
	legend := ""
	if err == nil {
		legend = " — " + ch.String()
	}
	return fmt.Sprintf("order %s: predicted %.1f MB/s, %s%s",
		perm.Format(pr.Order), pr.Bandwidth/1e6, where, legend)
}
