// Package mpi is a simulated MPI runtime: ranks are coroutines executing
// against the virtual clock of a discrete-event engine, point-to-point
// messages are fluid flows over the machine's link graph, and collective
// operations are the real message schedules of the textbook algorithms
// (ring, Bruck, recursive doubling, pairwise exchange, binomial trees), so
// their cost depends on where each rank is mapped — which is exactly the
// effect the paper studies.
//
// A World is created over a netmodel platform with a binding (rank → core).
// Each rank's body receives a *Rank handle giving MPI-style operations:
// communicator Split and the collectives used in the paper's evaluation
// (§4): Alltoall(v), Allreduce, Allgather, Bcast, Reduce, Gather, Scan,
// Barrier. The collectives exchange messages through the runtime's internal
// isend/irecv path; the user point-to-point calls (Isend, Irecv, WaitAll)
// exist only in the package's tests.
package mpi

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// eagerThreshold is the message size (bytes) up to which sends complete
// immediately (eager protocol); larger messages use a rendezvous handshake
// costing one extra round trip of path latency.
const eagerThreshold = 16 * 1024

// Config tunes the runtime.
type Config struct {
	// Obs is the unified observability scope: collective spans, message
	// and per-level byte counters, and (via Run) engine event counts. nil
	// disables all of it at the cost of one nil check per operation.
	Obs *obs.Scope
}

// World is one simulated MPI job.
type World struct {
	engine   *sim.Engine
	platform *netmodel.Platform
	binding  []int
	cfg      Config

	// All state below is touched only by the one rank or event callback the
	// engine is running, so none of it is locked.
	mail    mailbox
	reqs    []Request // request records not yet handed out
	commSeq int
	splits  map[callSite]*splitState

	// Observability state, pre-resolved at NewWorld so the hot paths pay
	// one nil check when disabled and no registry lookups when enabled.
	coresPerNode  int
	obsBytesTotal *obs.Counter   // nil when cfg.Obs is nil
	obsLevelBytes []*obs.Counter // by FirstDiffLevel index; [depth] = same core
	obsMsgs       *obs.Counter
}

// nodeOf returns the Perfetto pid for a core: its outermost-level domain.
func (w *World) nodeOf(core int) int { return core / w.coresPerNode }

// Rank is the per-process handle passed to the rank body.
type Rank struct {
	w     *World
	proc  *sim.Process
	id    int
	world *Comm
}

// NewWorld builds a world over the platform with the given rank→core
// binding. Every core index must be valid; ranks may share cores
// (oversubscription) although the experiments never do.
func NewWorld(engine *sim.Engine, platform *netmodel.Platform, binding []int, cfg Config) (*World, error) {
	if len(binding) == 0 {
		return nil, fmt.Errorf("mpi: empty binding")
	}
	for r, c := range binding {
		if c < 0 || c >= platform.NumCores() {
			return nil, fmt.Errorf("mpi: rank %d bound to invalid core %d (machine has %d)", r, c, platform.NumCores())
		}
	}
	w := &World{
		engine:   engine,
		platform: platform,
		binding:  append([]int(nil), binding...),
		cfg:      cfg,
		splits:   make(map[callSite]*splitState),
	}
	w.commSeq = 1 // id 0 is the world communicator
	hier := platform.Hierarchy()
	w.coresPerNode = platform.NumCores() / hier.Level(0).Arity
	if sc := cfg.Obs; sc != nil {
		reg := sc.Registry()
		w.obsBytesTotal = reg.Counter("mpi_bytes_total")
		w.obsMsgs = reg.Counter("mpi_messages_total")
		depth := hier.Depth()
		w.obsLevelBytes = make([]*obs.Counter, depth+1)
		for l := 0; l < depth; l++ {
			w.obsLevelBytes[l] = reg.Counter("mpi_level_bytes_total", obs.L("level", hier.Level(l).Name))
		}
		w.obsLevelBytes[depth] = reg.Counter("mpi_level_bytes_total", obs.L("level", "self"))
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.binding) }

// Spawn launches every rank's body as a simulation process. Call before
// engine.Run.
func (w *World) Spawn(body func(r *Rank)) {
	group := make([]int, w.Size())
	for i := range group {
		group[i] = i
	}
	for i := 0; i < w.Size(); i++ {
		rank := i
		name := fmt.Sprintf("rank%d", rank)
		if sc := w.cfg.Obs; sc != nil {
			core := w.binding[rank]
			node := w.nodeOf(core)
			sc.SetProcessName(node, fmt.Sprintf("node%d", node))
			sc.SetThreadName(node, rank, fmt.Sprintf("rank%d@core%d", rank, core))
			sc.BindProc(name, node, rank)
		}
		w.engine.Spawn(name, func(p *sim.Process) {
			r := &Rank{w: w, proc: p, id: rank}
			r.world = &Comm{w: w, id: 0, group: group, rank: rank}
			body(r)
		})
	}
}

// Run builds a world on a fresh engine, spawns nprocs ranks with the given
// binding and body, and runs the simulation to completion, returning the
// final virtual time.
func Run(spec netmodel.Spec, binding []int, cfg Config, body func(r *Rank)) (float64, error) {
	engine := sim.NewEngine()
	platform := netmodel.NewPlatform(engine, spec)
	w, err := NewWorld(engine, platform, binding, cfg)
	if err != nil {
		return 0, err
	}
	if cfg.Obs != nil {
		engine.SetObserver(obs.NewEngineObserver(cfg.Obs))
	}
	w.Spawn(body)
	if err := engine.Run(); err != nil {
		return 0, err
	}
	return engine.Now(), nil
}

// ID returns the world rank.
func (r *Rank) ID() int { return r.id }

// World returns the communicator containing every rank.
func (r *Rank) World() *Comm { return r.world }

// Now returns the rank's current virtual time in seconds.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Wait advances the rank's virtual time by d seconds (pure local work).
func (r *Rank) Wait(d float64) { r.proc.Wait(d) }

// Compute models a roofline kernel on the rank's core: flops of arithmetic
// and bytes of memory traffic through the core's shared memory domains.
func (r *Rank) Compute(flops, bytes float64) {
	r.w.platform.Compute(r.proc, r.w.binding[r.id], flops, bytes)
}

// Request is one side of a message — a posted send or a posted receive —
// and everything that side needs until it completes: its place in the
// mailbox while unmatched, the payload, and the completion condition; a
// queued eager send's record becomes the receive that matches it. The peer
// and tag describe it for deadlock diagnostics. Records come from a slab.
type Request struct {
	// fin is what Wait awaits: nil when the operation completed at once
	// (eager send), &cond for an operation completed by its own transfer,
	// or the matched peer's cond when one transfer completes both sides.
	fin  *sim.Condition
	cond sim.Condition
	next *Request // mailbox queue link while unmatched
	// buf is the payload: a queued send's private copy, or what a receive
	// returns (set when it is matched, read after fin fires).
	buf     Buf
	peer    int // world rank of the remote side
	tag     int64
	recv    bool // a receive, not a send
	started bool // queued send: transfer already launched (eager)
}

// Wait blocks the rank until the operation completes; for receives it
// returns the received payload.
func (req *Request) Wait(r *Rank) Buf {
	if req.fin != nil {
		op := "Send"
		if req.recv {
			op = "Recv"
		}
		req.fin.AwaitOp(r.proc, op, req.peer, req.tag)
	}
	if req.recv {
		return req.buf
	}
	return Buf{}
}

// completedSend is the request of every eager send, which is over when
// isend returns; nothing ever writes to it.
var completedSend = &Request{}

// newRequest cuts a zeroed request record from the world's slab.
func (w *World) newRequest(peer int, tag int64, recv bool) *Request {
	if len(w.reqs) == 0 {
		w.reqs = make([]Request, 256)
	}
	req := &w.reqs[0]
	w.reqs = w.reqs[1:]
	req.peer, req.tag, req.recv = peer, tag, recv
	return req
}

// isend posts a message from world rank src to world rank dst.
func (w *World) isend(src, dst int, tag int64, buf Buf) *Request {
	buf.check()
	srcCore, dstCore := w.binding[src], w.binding[dst]
	if w.obsBytesTotal != nil {
		w.obsBytesTotal.AddInt(buf.Bytes)
		w.obsMsgs.AddInt(1)
		w.obsLevelBytes[w.platform.Hierarchy().FirstDiffLevel(srcCore, dstCore)].AddInt(buf.Bytes)
		if w.cfg.Obs.Options().P2PEvents {
			w.cfg.Obs.Instant(w.nodeOf(srcCore), src, "p2p", "p2p", w.engine.Now(),
				obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "bytes", Val: buf.Bytes})
		}
	}
	eager := buf.Bytes <= eagerThreshold
	k := chanKey{dst: dst, src: src, tag: tag}
	if rv := w.mail.take(k, true); rv != nil {
		// A receive is already posted: start the transfer now, completing
		// the receive. Eager sends complete locally right away; rendezvous
		// pays no extra handshake because the receiver was ready, and
		// completes with the same transfer.
		rv.buf = buf.Clone()
		w.platform.StartTransfer(&rv.cond, srcCore, dstCore, float64(buf.Bytes), 0)
		if eager {
			return completedSend
		}
		snd := w.newRequest(dst, tag, false)
		snd.fin = &rv.cond
		return snd
	}
	// No receive yet: enqueue a private copy.
	snd := w.newRequest(dst, tag, false)
	snd.buf = buf.Clone()
	w.mail.put(k, snd)
	if !eager {
		snd.fin = &snd.cond
		return snd
	}
	// Launch the transfer immediately; the sender is done already, and cond
	// tells the eventual receiver when the data has arrived. The record is
	// the receiver's from now on: irecv turns it into the receive.
	snd.started = true
	w.platform.StartTransfer(&snd.cond, srcCore, dstCore, float64(buf.Bytes), 0)
	return completedSend
}

// irecv posts a receive at world rank dst for a message from src.
func (w *World) irecv(dst, src int, tag int64) *Request {
	k := chanKey{dst: dst, src: src, tag: tag}
	snd := w.mail.take(k, false)
	if snd != nil && snd.started {
		// The eager message is in flight or arrived, and no sender holds its
		// record: it becomes the receive, completed by its own transfer.
		snd.recv, snd.peer, snd.fin = true, src, &snd.cond
		return snd
	}
	rv := w.newRequest(src, tag, true)
	if snd == nil {
		rv.fin = &rv.cond
		w.mail.put(k, rv)
		return rv
	}
	// Rendezvous: the receiver triggers the transfer and pays the handshake
	// round trip on top of the path latency; the send's condition completes
	// the receive and the sender, which awaits it too.
	rv.buf, rv.fin = snd.buf, &snd.cond
	w.platform.StartTransfer(&snd.cond, w.binding[src], w.binding[dst], float64(snd.buf.Bytes), 1)
	return rv
}
