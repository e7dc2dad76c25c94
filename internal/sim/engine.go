//go:build go1.23

// The constraint above is there for iter.Pull only: both go.mod files name
// Go 1.22, and without it vet's stdversion check rejects the call. It goes
// away when a benchmark PR raises the two modules' versions together.

// Package sim provides the discrete-event simulation engine underneath the
// simulated cluster: a virtual clock, a time-ordered event queue, and
// processes that block on simulated operations and are resumed when their
// operation completes.
//
// A process body is an iter.Pull coroutine that only Run resumes, so one
// thread of control — Run, or the one process it is inside — owns the
// engine at any time, with no scheduler in between. A process that blocks
// picks its successor itself: the next runnable process, after firing the
// next batch of events when none is runnable. If that is the process
// itself it simply carries on; otherwise it leaves the successor for Run
// and yields. Processes woken at the same virtual instant therefore run one
// at a time, first in first out by wake order, every one of them before the
// next event batch, and event callbacks run inside the process that blocked
// last. Nothing ever runs concurrently: neither the engine nor the model
// state that callbacks and processes mutate needs a lock, and a run is
// bit-for-bit reproducible whatever GOMAXPROCS is.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"strings"
)

// ErrDeadlock is returned by Run when processes are blocked but no event is
// pending — e.g. a Recv whose matching Send never arrives.
var ErrDeadlock = errors.New("sim: deadlock — processes blocked with no pending event")

// killedPanic unwinds the body of a process still unfinished when Run
// returns. It is never visible to user code: the process wrapper treats it
// as a clean process exit.
type killedPanic struct{}

// Handler is what the engine runs when a scheduled instant comes. It runs
// inside whichever process blocked last (or Run) and must not block.
type Handler interface{ Handle() }

// HandlerFunc adapts a plain function to Handler: Handle calls it.
type HandlerFunc func()

func (f HandlerFunc) Handle() { f() }

// instant is one distinct pending virtual time and its handlers, in the
// order they were scheduled.
type instant struct {
	at       float64
	handlers []Handler
	indexed  bool     // in eventQueue.byAt
	next     *instant // free list link once fired
}

// eventQueue is a binary min-heap of instants, one per distinct pending
// time. last is the instant scheduled to most recently; byAt finds every
// other one by its exact time (an instant enters it when scheduling moves
// on, so a lone waiting process never touches the map). Fired ones are reused.
type eventQueue struct {
	heap    []*instant
	byAt    map[float64]*instant
	last    *instant
	free    *instant
	pending int // handlers scheduled and not yet fired
}

// push appends h to the handlers of the instant at t, which it creates,
// or takes from the recycled ones, when no handler waits for t yet.
func (q *eventQueue) push(t float64, h Handler) {
	in := q.last
	if in == nil || in.at != t {
		if in != nil && !in.indexed {
			q.byAt[in.at], in.indexed = in, true
		}
		if in = nil; len(q.byAt) > 0 {
			in = q.byAt[t]
		}
		if in == nil {
			if in = q.free; in != nil {
				q.free = in.next
			} else {
				in = new(instant)
			}
			in.at = t
			i := len(q.heap)
			q.heap = append(q.heap, in)
			for ; i > 0 && q.heap[(i-1)/2].at > t; i = (i - 1) / 2 {
				q.heap[i] = q.heap[(i-1)/2]
			}
			q.heap[i] = in
		}
		q.last = in
	}
	in.handlers = append(in.handlers, h)
	q.pending++
}

// popMin removes the earliest instant, whose handlers have all fired, and
// keeps it for reuse.
func (q *eventQueue) popMin() {
	h, n := q.heap, len(q.heap)-1
	top := h[0]
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[c].at >= h[i].at {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	q.heap = h
	if top.indexed {
		delete(q.byAt, top.at)
	}
	if q.last == top {
		q.last = nil
	}
	top.handlers, top.indexed = top.handlers[:0], false
	top.next, q.free = q.free, top
}

// Observer receives engine lifecycle callbacks for observability. Every
// method is invoked by whoever owns the engine at that moment:
// implementations must be fast, must not block, and must not call back
// into the engine. All hooks are nil-checked so a nil observer costs one
// predictable branch.
type Observer interface {
	// OnAdvance is called after every batch of events fired at one virtual
	// instant: the new virtual time, how many events fired at it, and the
	// queue depth remaining afterwards.
	OnAdvance(now float64, fired, queueDepth int)
	// OnBlock is called when a process parks (Wait, Await).
	OnBlock(proc string, now float64)
	// OnWake is called when a parked process resumes.
	OnWake(proc string, now float64)
}

// Engine is a discrete-event simulation. Create with NewEngine, add
// processes with Spawn, then call Run. None of its methods lock: before
// Run they belong to the caller, during Run to process bodies and event
// callbacks (one at a time), afterwards to the caller again.
type Engine struct {
	now    float64
	events eventQueue
	// ready holds the runnable processes in wake order; ready[readyHead:]
	// are still to run.
	ready     []*Process
	readyHead int
	procs     []*Process
	// handoff is the process Run resumes next, left by the one that just
	// blocked or finished; nil when nothing can run any more.
	handoff *Process
	stopped bool
	failure error
	obs     Observer
}

// SetObserver installs the engine observer. Call before Run; a nil
// observer (the default) disables all callbacks.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// NewEngine returns an empty engine at virtual time 0.
func NewEngine() *Engine {
	return &Engine{events: eventQueue{byAt: make(map[float64]*instant)}}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs h at virtual time t (clamped to now). Handlers at one time
// run in the order they were scheduled, including those scheduled for the
// current time by a handler of the current time.
func (e *Engine) Schedule(t float64, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.events.push(t, h)
}

// At schedules fn to run at virtual time t, like Schedule.
func (e *Engine) At(t float64, fn func()) { e.Schedule(t, HandlerFunc(fn)) }

// Process is a simulated thread of execution. Its methods must only be
// called from the process body.
type Process struct {
	engine *Engine
	name   string
	body   func(p *Process)
	// The coroutine of the body, created when the process is first
	// resumed: Run calls next and stop, block calls yield.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	wake   Handler // p.unblock, bound once so that Wait allocates nothing
	done   bool
	parked bool // true while blocked in block(); guards double-unblock
	killed bool // set by Run when it is over; the body unwinds at its next wake
	// nextWaiter links the processes awaiting one Condition.
	nextWaiter *Process

	// blocked-on description for deadlock diagnostics; written by AwaitOp
	// and cleared on wake.
	blockOp   string
	blockPeer int
	blockTag  int64
}

// blockDesc renders what the process is blocked on ("" when unknown).
func (p *Process) blockDesc() string {
	if p.blockOp == "" {
		return ""
	}
	if p.blockPeer < 0 {
		return p.blockOp
	}
	return fmt.Sprintf("%s(peer=%d, tag=%d)", p.blockOp, p.blockPeer, p.blockTag)
}

// Name returns the process name given to Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.engine.now }

// Spawn registers a process whose body starts executing at time 0 when Run
// is called, in spawn order. The body runs as a coroutine, created when the
// process is first resumed; when it returns, the process is finished.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{engine: e, name: name, body: body}
	p.wake = HandlerFunc(p.unblock)
	e.procs = append(e.procs, p)
	return p
}

// run is the coroutine of a process: the body, then the conversion of
// whatever ended it into the engine's state, then the choice of successor.
func (p *Process) run(yield func(struct{}) bool) {
	e := p.engine
	p.yield = yield
	defer func() {
		switch v := recover().(type) {
		case nil:
			// normal return
		case killedPanic:
			// Run is over: a clean exit, not a failure
		default:
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, v, debug.Stack())
			}
		}
		p.done = true
		e.handoff = e.nextRunnable()
	}()
	p.body(p)
}

// nextRunnable returns the process that runs next: the head of the ready
// queue, after firing event batches until there is one. nil means nothing
// can run any more — the run failed or is over, or no process is ready and
// no event is pending.
func (e *Engine) nextRunnable() *Process {
	for e.failure == nil && !e.stopped {
		if e.readyHead < len(e.ready) {
			p := e.ready[e.readyHead]
			e.ready[e.readyHead] = nil
			e.readyHead++
			if e.readyHead == len(e.ready) {
				e.ready, e.readyHead = e.ready[:0], 0
			}
			return p
		}
		if len(e.events.heap) == 0 {
			return nil
		}
		e.fireBatch()
	}
	return nil
}

// fireBatch advances the clock to the next event time and fires every
// event at it, including those the batch itself schedules for that time.
// A panicking callback fails the run as the engine's own error: the
// process that happens to be scheduling did not cause it.
func (e *Engine) fireBatch() {
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			e.failure = fmt.Errorf("sim: event callback panicked at t=%g: %v\n%s", e.now, r, debug.Stack())
		}
	}()
	// The instant stays the heap's minimum while it fires: handlers it
	// schedules for now join its own list, later times sift below it.
	in := e.events.heap[0]
	e.now = in.at
	fired := 0
	for fired < len(in.handlers) {
		h := in.handlers[fired]
		in.handlers[fired] = nil
		fired++
		h.Handle()
	}
	e.events.popMin()
	e.events.pending -= fired
	if e.obs != nil {
		e.obs.OnAdvance(e.now, fired, e.events.pending)
	}
}

// block parks the calling process until unblock makes it runnable and its
// turn comes. It picks the successor: when that is p itself — its own
// wake-up was the next thing to happen — it returns without a switch,
// otherwise it leaves the successor to Run and yields.
func (p *Process) block() {
	e := p.engine
	if p.killed {
		panic(killedPanic{})
	}
	if e.obs != nil {
		e.obs.OnBlock(p.name, e.now)
	}
	p.parked = true
	if next := e.nextRunnable(); next != p {
		e.handoff = next
		p.yield(struct{}{}) // false only when Run is over, which sets killed
	}
	if p.killed {
		panic(killedPanic{})
	}
	if e.obs != nil {
		e.obs.OnWake(p.name, e.now)
	}
}

// unblock makes a parked process runnable at the current virtual time,
// behind every process woken before it. Idempotent: a process already
// woken is not woken twice.
func (p *Process) unblock() {
	if !p.parked {
		return
	}
	p.parked = false
	e := p.engine
	e.ready = append(e.ready, p)
}

// Wait advances the process's local time by d seconds of pure delay.
func (p *Process) Wait(d float64) {
	if d < 0 {
		panic("sim: negative wait")
	}
	p.engine.Schedule(p.engine.now+d, p.wake)
	p.block()
}

// Condition is a simulated one-shot condition: processes block on it with
// Await, and it is fired exactly once by an event callback or another
// process. Fire may precede Await; Await then returns immediately.
// Multiple processes may Await the same condition. The zero value is ready
// to use, so a condition can be a field of the record it completes.
type Condition struct {
	fired bool
	// The awaiting processes in arrival order, linked through
	// Process.nextWaiter: a process awaits one condition at a time, so
	// waiting allocates nothing.
	waitHead, waitTail *Process
}

// NewCondition returns a one-shot condition.
func (e *Engine) NewCondition() *Condition { return new(Condition) }

// Fire fires the condition: all waiting processes become runnable at the
// current virtual time, in the order they started waiting. No-op if it
// already fired.
func (c *Condition) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	for w := c.waitHead; w != nil; {
		next := w.nextWaiter
		w.nextWaiter = nil
		w.unblock()
		w = next
	}
	c.waitHead, c.waitTail = nil, nil
}

// Handle fires the condition, which is thus its own completion handler.
func (c *Condition) Handle() { c.Fire() }

// Await blocks the process until the condition fires.
func (c *Condition) Await(p *Process) {
	c.AwaitOp(p, "", -1, 0)
}

// AwaitOp is Await, additionally recording what the process is about to
// block on — an operation name plus an optional peer rank and tag (pass
// peer < 0 to omit them) — so that a deadlock report can say which
// operation each stuck process was waiting for. The label costs only
// three field writes.
func (c *Condition) AwaitOp(p *Process, op string, peer int, tag int64) {
	if c.fired {
		return
	}
	p.blockOp, p.blockPeer, p.blockTag = op, peer, tag
	if c.waitTail == nil {
		c.waitHead = p
	} else {
		c.waitTail.nextWaiter = p
	}
	c.waitTail = p
	p.block()
	p.blockOp = ""
}

// Run executes the simulation until every spawned process has finished and
// the event queue is empty. It returns ErrDeadlock (naming the blocked
// operations) if processes remain blocked with no pending events. A panic
// in a process body or in an event callback does not propagate: the first
// one is converted to the error Run returns.
// Before Run returns early it unwinds every unfinished process body, which
// executes no further simulated operation, so no coroutine outlives it.
func (e *Engine) Run() error {
	if e.stopped {
		return errors.New("sim: engine already run")
	}
	// Release all processes at time 0, before any event fires.
	e.ready = append(e.ready, e.procs...)
	for p := e.nextRunnable(); p != nil; p = e.handoff {
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.run)
		}
		p.next()
	}
	e.stopped = true
	err := e.failure
	for _, p := range e.procs {
		if p.done {
			continue
		}
		if err == nil {
			err = e.deadlockError()
		}
		if p.stop != nil {
			p.killed = true
			p.stop()
		}
	}
	return err
}

// deadlockError builds the ErrDeadlock report: every stuck process with
// the operation it is blocked on (capped at 8, the rest summarized).
func (e *Engine) deadlockError() error {
	var blocked []string
	total := 0
	for _, p := range e.procs {
		if p.done {
			continue
		}
		total++
		if len(blocked) < 8 {
			if d := p.blockDesc(); d != "" {
				blocked = append(blocked, fmt.Sprintf("%s blocked on %s", p.name, d))
			} else {
				blocked = append(blocked, p.name)
			}
		}
	}
	suffix := ""
	if total > len(blocked) {
		suffix = fmt.Sprintf(" … and %d more", total-len(blocked))
	}
	return fmt.Errorf("%w (%d blocked: %s%s)", ErrDeadlock, total, strings.Join(blocked, "; "), suffix)
}
