package sim

import (
	"fmt"
	"testing"
)

// oracleEvent and oracleQueue are the engine's former event queue, kept as
// the reference for the instant heap: a binary min-heap of single events by
// (time, scheduling sequence).
type oracleEvent struct {
	at  float64
	seq uint64
	fn  func()
}

func (ev *oracleEvent) before(o *oracleEvent) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

type oracleQueue []oracleEvent

func (q *oracleQueue) push(ev oracleEvent) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *oracleQueue) pop() oracleEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// oracleEngine drives the oracle queue the way the engine fired events
// before instants: clamp to now, then fire every event of the earliest
// time, including those the batch schedules for that time.
type oracleEngine struct {
	now    float64
	seq    uint64
	events oracleQueue
}

func (e *oracleEngine) Now() float64 { return e.now }

func (e *oracleEngine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(oracleEvent{at: t, seq: e.seq, fn: fn})
}

func (e *oracleEngine) Run() error {
	for len(e.events) > 0 {
		next := e.events[0].at
		e.now = next
		for len(e.events) > 0 && e.events[0].at == next {
			e.events.pop().fn()
		}
	}
	return nil
}

type scheduler interface {
	Now() float64
	At(t float64, fn func())
	Run() error
}

// fired is one handler run: which one, at what time.
type fired struct {
	id int
	at float64
}

// draw is a splitmix64 step: a cheap deterministic stream of choices.
func draw(x *uint64, n int) int {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// runSchedule plays a random schedule on s: roots handlers at times drawn
// from times, each of which, when it fires, schedules up to three children
// chosen from its own id — at now (into the batch being fired), at a time
// already pending, at a fresh later time, or in the past (clamped to now).
// It returns the firing sequence and, on an Engine, how many distinct times
// were pending when it started.
func runSchedule(t *testing.T, s scheduler, seed uint64, roots int, times []float64) ([]fired, int) {
	var out []fired
	next := roots
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			out = append(out, fired{id, s.Now()})
			if next > 4*roots {
				return
			}
			x := seed ^ uint64(id)<<20
			for c := draw(&x, 4); c > 0; c-- {
				at := s.Now()
				switch draw(&x, 4) {
				case 1:
					at = times[draw(&x, len(times))]
				case 2:
					at += float64(1+draw(&x, 50)) * 1e-7
				case 3:
					at--
				}
				s.At(at, handler(next))
				next++
			}
		}
	}
	x := seed
	for id := 0; id < roots; id++ {
		s.At(times[draw(&x, len(times))], handler(id))
	}
	distinct := 0
	if e, ok := s.(*Engine); ok {
		distinct = len(e.events.heap)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return out, distinct
}

// The instant heap fires handlers in exactly the order of the (time,
// sequence) heap it replaced: by time, then by scheduling order, for few
// and many distinct times, ties, handlers scheduled at now from inside a
// batch, clamped past times, and more distinct pending times than a small
// table would hold.
func TestInstantQueueMatchesSequenceHeap(t *testing.T) {
	for _, tc := range []struct {
		name           string
		roots          int
		distinct       int
		pendingAtLeast int
	}{
		{"one-time", 300, 1, 1},
		{"few-times", 400, 5, 5},
		{"many-times", 400, 300, 200},
		{"wide", 8000, 20000, 4097},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				x := seed
				times := make([]float64, tc.distinct)
				for i := range times {
					times[i] = float64(draw(&x, 1<<30)) * 1e-9
				}
				want, _ := runSchedule(t, &oracleEngine{}, seed, tc.roots, times)
				got, pending := runSchedule(t, NewEngine(), seed, tc.roots, times)
				if pending < tc.pendingAtLeast {
					t.Fatalf("seed %d: %d distinct times pending, want at least %d", seed, pending, tc.pendingAtLeast)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d handlers fired, oracle fired %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: firing %d is %v, oracle %v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// A warmed Wait allocates nothing, switching to another process or not:
// the instant it needs is a recycled one, and the wake handler is bound
// once per process.
func TestWarmWaitAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn("p", func(p *Process) {
		p.Wait(1)
		allocs = testing.AllocsPerRun(1000, func() { p.Wait(1e-6) })
	})
	e.Spawn("q", func(p *Process) {
		p.Wait(1)
		for i := 0; i < 700; i++ {
			p.Wait(1.5e-6)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per warmed Wait, want 0", allocs)
	}
}

func ExampleHandlerFunc() {
	e := NewEngine()
	c := e.NewCondition()
	e.Schedule(2, c) // a condition is its own handler: it fires at t=2
	e.Schedule(1, HandlerFunc(func() { fmt.Println("t=1, fired:", c.fired) }))
	e.At(3, func() { fmt.Println("t=3, fired:", c.fired) })
	if err := e.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// t=1, fired: false
	// t=3, fired: true
}
