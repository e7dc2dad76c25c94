// Package netmodel simulates the communication and memory fabric of a
// hierarchical machine as a fluid-flow network: every link (NIC, inter-
// socket bus, shared memory of a NUMA/L3 domain, …) has a capacity in
// bytes per second, every in-flight message is a flow over a path of
// links, and concurrent flows share link capacity max-min fairly
// (progressive filling), the standard fluid model for steady collective
// traffic. Flow starts and completions are discrete events on the sim
// engine; between events every flow progresses at its computed fair rate.
//
// This model is what lets the simulated clusters reproduce the paper's
// headline contrast: spread mappings enjoy many NICs when one communicator
// runs alone but collapse when 32 communicators share those NICs, while
// packed mappings never share and keep constant performance (§4.1.3).
package netmodel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Link is a shared resource with a fixed capacity in bytes/second.
// A capacity of 0 means unlimited (the link never constrains flows).
type Link struct {
	Name     string
	Capacity float64

	// Water-filling scratch state, valid only during a rate computation.
	remCap  float64
	nActive int // unfixed flows crossing; 0 once the link is a fixed bottleneck
	listed  bool

	flows []*Flow // active flows, compacted lazily
	live  int     // number of non-completed flows in the slice
}

// NewLink returns a link with the given capacity (0 = unlimited).
func NewLink(name string, capacity float64) *Link {
	return &Link{Name: name, Capacity: capacity}
}

func (l *Link) String() string { return fmt.Sprintf("%s(%.3g B/s)", l.Name, l.Capacity) }

// compact removes completed flows from the link's slice when they dominate.
func (l *Link) compact() {
	if l.live*2 >= len(l.flows) {
		return
	}
	kept := l.flows[:0]
	for _, fl := range l.flows {
		if !fl.completed {
			kept = append(kept, fl)
		}
	}
	l.flows = kept
}

// Flow is one in-flight transfer over a path of links. Until it arrives it
// is the engine handler that adds it to the fluid.
type Flow struct {
	fluid     *Fluid
	links     []*Link
	remaining float64
	rate      float64
	done      *sim.Condition
	idx       int  // position in Fluid.flows
	rateFixed bool // water-filling scratch
	completed bool
}

// Fluid is the set of active flows over a shared engine, with max-min fair
// rate allocation recomputed whenever the flow set changes.
type Fluid struct {
	engine     *sim.Engine
	flows      []*Flow
	lastSettle float64
	gen        uint64 // invalidates stale completion events
	dirty      bool   // a recompute event is pending

	lastRecompute   float64
	deferredPending bool

	// onDirty and onDeferred are the recompute handlers, bound once.
	onDirty, onDeferred sim.Handler
	slab                []Flow // flow records not yet handed out
	scratchLinks        []*Link
	scratchDone         []*Flow

	// NoContention disables bandwidth sharing: every flow runs at the full
	// capacity of its narrowest link regardless of other traffic. This is
	// the ablation of DESIGN.md §5 — it collapses the paper's one-vs-many
	// communicator gap and demonstrates why the substrate models sharing.
	NoContention bool
}

// NewFluid returns an empty fluid simulation on the engine.
func NewFluid(engine *sim.Engine) *Fluid {
	// lastRecompute starts at -∞ so the first recompute is never deferred.
	f := &Fluid{engine: engine, lastRecompute: math.Inf(-1)}
	f.onDirty = sim.HandlerFunc(func() {
		f.dirty = false
		f.settle()
		f.completeFinished()
		f.requestRecompute()
	})
	f.onDeferred = sim.HandlerFunc(func() {
		f.deferredPending = false
		f.settle()
		f.completeFinished()
		f.recompute()
	})
	return f
}

// completionEps is the residual byte count below which a flow counts as
// finished, absorbing float noise from incremental settling.
const completionEps = 1e-2

// completionSlack merges completion waves: a flow within this many seconds
// of finishing at its current rate completes together with the flow that
// triggered the event. 100 ns is far below every modelled latency, so the
// error is negligible while the number of rate recomputations drops by
// orders of magnitude for near-symmetric traffic.
const completionSlack = 100e-9

// recomputeQuantum rate-limits fair-share recomputation: after a
// recompute, further flow arrivals and departures only trigger the next
// one after this much virtual time (they still settle progress and retire
// finished flows immediately). Freed capacity therefore sits idle for at
// most a quarter microsecond — below every inter-domain latency — while
// pipeline-skewed collective traffic stops triggering hundreds of
// recomputations per communication round.
const recomputeQuantum = 250e-9

// StartTransfer schedules a transfer of the given bytes over the path,
// beginning after the given latency, and returns the completion condition.
// Call from process context or before Run. Zero-byte transfers complete
// after the latency alone.
func (f *Fluid) StartTransfer(path []*Link, bytes, latency float64) *sim.Condition {
	done := new(sim.Condition)
	f.StartTransferTo(done, path, bytes, latency)
	return done
}

// StartTransferTo is StartTransfer completing a condition the caller
// already has — the one inside a message record — instead of a new one. A
// transfer no finite link constrains fires done on arrival; any other
// arrives as a flow record.
func (f *Fluid) StartTransferTo(done *sim.Condition, path []*Link, bytes, latency float64) {
	if bytes < 0 || latency < 0 {
		panic("netmodel: negative transfer")
	}
	at := f.engine.Now() + latency
	if bytes <= completionEps || !slices.ContainsFunc(path, func(l *Link) bool { return l.Capacity > 0 }) {
		f.engine.Schedule(at, done)
		return
	}
	if len(f.slab) == 0 {
		f.slab = make([]Flow, 64)
	}
	fl := &f.slab[0]
	f.slab = f.slab[1:]
	fl.fluid, fl.links, fl.remaining, fl.done = f, path, bytes, done
	f.engine.Schedule(at, fl)
}

// Transfer performs a blocking transfer from the calling process.
func (f *Fluid) Transfer(p *sim.Process, path []*Link, bytes, latency float64) {
	f.StartTransfer(path, bytes, latency).Await(p)
}

// Handle adds the arriving flow to the fluid.
func (fl *Flow) Handle() {
	f := fl.fluid
	fl.idx = len(f.flows)
	f.flows = append(f.flows, fl)
	for _, l := range fl.links {
		l.flows = append(l.flows, fl)
		l.live++
	}
	f.markDirty()
}

// markDirty coalesces rate recomputation: many flow arrivals or
// departures at one instant trigger a single recompute request.
func (f *Fluid) markDirty() {
	if f.dirty {
		return
	}
	f.dirty = true
	f.engine.Schedule(f.engine.Now(), f.onDirty)
}

// requestRecompute recomputes immediately when the quantum since the
// last recompute has passed, and otherwise defers one recompute to the end
// of the quantum.
func (f *Fluid) requestRecompute() {
	now := f.engine.Now()
	if now >= f.lastRecompute+recomputeQuantum {
		f.recompute()
		return
	}
	if f.deferredPending {
		return
	}
	f.deferredPending = true
	f.engine.Schedule(f.lastRecompute+recomputeQuantum, f.onDeferred)
}

// settle charges every flow for progress since the last settlement.
func (f *Fluid) settle() {
	now := f.engine.Now()
	dt := now - f.lastSettle
	f.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, fl := range f.flows {
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// retire removes a flow from the active set; condition firing is the
// caller's job so retirement can batch before callbacks run.
func (f *Fluid) retire(fl *Flow) {
	fl.completed = true
	last := len(f.flows) - 1
	f.flows[fl.idx] = f.flows[last]
	f.flows[fl.idx].idx = fl.idx
	f.flows = f.flows[:last]
	for _, l := range fl.links {
		l.live--
		l.compact()
	}
}

// completeFinished retires every flow whose bytes are done (or will
// be within the completion slack) and fires its condition.
func (f *Fluid) completeFinished() {
	done := f.scratchDone[:0]
	for i := 0; i < len(f.flows); {
		fl := f.flows[i]
		if fl.remaining <= completionEps || fl.remaining <= fl.rate*completionSlack {
			f.retire(fl) // swaps another flow into position i
			done = append(done, fl)
			continue
		}
		i++
	}
	f.scratchDone = done[:0]
	for _, fl := range done {
		fl.done.Fire()
	}
}

// recompute assigns max-min fair rates to all active flows
// (progressive filling) and schedules the next completion event.
func (f *Fluid) recompute() {
	f.lastRecompute = f.engine.Now()
	if len(f.flows) == 0 {
		f.gen++
		return
	}
	if f.NoContention {
		f.recomputeNoContention()
		return
	}
	// Collect the finite links touched by active flows and reset scratch.
	links := f.scratchLinks[:0]
	for _, fl := range f.flows {
		fl.rateFixed = false
		fl.rate = 0
		for _, l := range fl.links {
			if l.Capacity <= 0 {
				continue // unlimited
			}
			if !l.listed {
				l.remCap = l.Capacity
				l.listed = true
				l.nActive = 0
				links = append(links, l)
			}
			l.nActive++
		}
	}
	unfixedFlows := len(f.flows)
	var bottlenecks []*Link
	for unfixedFlows > 0 {
		// Find the bottleneck links: minimal fair share. All links tied at
		// the minimum are bottlenecks simultaneously and are fixed in one
		// pass — symmetric traffic then needs a single iteration. A link
		// left without unfixed flows leaves the scan list, in order.
		best := math.Inf(1)
		bottlenecks = bottlenecks[:0]
		live := links[:0]
		for _, l := range links {
			if l.nActive == 0 {
				l.listed = false
				continue
			}
			live = append(live, l)
			share := l.remCap / float64(l.nActive)
			switch {
			case share < best*(1-1e-9):
				best = share
				bottlenecks = append(bottlenecks[:0], l)
			case share <= best*(1+1e-9):
				bottlenecks = append(bottlenecks, l)
			}
		}
		links = live
		if len(bottlenecks) == 0 {
			// Remaining flows see only unlimited residual capacity (every
			// finite link on their path was fixed with spare room):
			// finish them instantly.
			for _, fl := range f.flows {
				if !fl.rateFixed {
					fl.rateFixed = true
					fl.remaining = 0
					fl.rate = math.MaxFloat64 / 4 // forces completion at once
					unfixedFlows--
				}
			}
			break
		}
		if best < 0 {
			best = 0
		}
		// Fix every unfixed flow crossing a bottleneck at the fair share.
		for _, bottleneck := range bottlenecks {
			for _, fl := range bottleneck.flows {
				if fl.rateFixed || fl.completed {
					continue
				}
				fl.rate = best
				fl.rateFixed = true
				unfixedFlows--
				for _, l := range fl.links {
					if l.Capacity <= 0 {
						continue
					}
					l.remCap -= best
					if l.remCap < 0 {
						l.remCap = 0
					}
					l.nActive--
				}
			}
		}
	}
	for _, l := range links {
		l.nActive, l.listed = 0, false
	}
	f.scratchLinks = links[:0]
	f.scheduleNext()
}

// recomputeNoContention gives every flow its narrowest link's full
// capacity (the no-sharing ablation).
func (f *Fluid) recomputeNoContention() {
	for _, fl := range f.flows {
		rate := math.Inf(1)
		for _, l := range fl.links {
			if l.Capacity > 0 && l.Capacity < rate {
				rate = l.Capacity
			}
		}
		fl.rate = rate
	}
	f.scheduleNext()
}

// scheduleNext arms the completion event for the earliest-finishing
// flow under the current rates.
func (f *Fluid) scheduleNext() {
	next := math.Inf(1)
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			continue
		}
		t := fl.remaining / fl.rate
		if t < next {
			next = t
		}
	}
	f.gen++
	if math.IsInf(next, 1) {
		return // all rates zero: flows stall until the set changes
	}
	gen := f.gen
	f.engine.At(f.engine.Now()+next, func() {
		if gen != f.gen {
			return // superseded by a later recompute
		}
		f.settle()
		f.completeFinished()
		f.requestRecompute()
	})
}
