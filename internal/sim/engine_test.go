package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWaitAdvancesTime(t *testing.T) {
	e := NewEngine()
	var end float64
	e.Spawn("p", func(p *Process) {
		p.Wait(1.5)
		p.Wait(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Errorf("end time = %v, want 4.0", end)
	}
	if e.Now() != 4.0 {
		t.Errorf("engine time = %v, want 4.0", e.Now())
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	record := func(s string) { trace = append(trace, s) }
	e.Spawn("a", func(p *Process) {
		p.Wait(1)
		record("a@1")
		p.Wait(2)
		record("a@3")
	})
	e.Spawn("b", func(p *Process) {
		p.Wait(2)
		record("b@2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "a@3"}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace = %v, want %v", trace, want)
			break
		}
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 11) }) // same time: scheduling order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestConditionFireBeforeAwait(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	e.At(1, func() { c.Fire() })
	var at float64
	e.Spawn("p", func(p *Process) {
		p.Wait(5)
		c.Await(p) // already fired: returns immediately
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Errorf("await returned at %v, want 5", at)
	}
	if !c.fired {
		t.Error("condition not fired")
	}
}

func TestConditionAwaitThenFire(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	e.At(7, func() { c.Fire() })
	var at float64
	e.Spawn("p", func(p *Process) {
		c.Await(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Errorf("await returned at %v, want 7", at)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition() // never fired
	e.Spawn("stuck", func(p *Process) {
		c.Await(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run = %v, want ErrDeadlock", err)
	}
}

func TestProcessPanicBecomesError(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Process) {
		p.Wait(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run should report the panic")
	}
}

func TestManyProcesses(t *testing.T) {
	e := NewEngine()
	const n = 500
	var total atomic.Int64
	for i := 0; i < n; i++ {
		d := float64(i%17) * 0.001
		e.Spawn("p", func(p *Process) {
			p.Wait(d)
			p.Wait(d)
			total.Add(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != n {
		t.Errorf("%d processes finished, want %d", total.Load(), n)
	}
	if want := 2 * 16 * 0.001; math.Abs(e.Now()-want) > 1e-12 {
		t.Errorf("final time %v, want %v", e.Now(), want)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Wait(-1) })
	if err := e.Run(); err == nil {
		t.Error("negative wait should fail the run")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestProcessName(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank-7", func(p *Process) {
		if p.Name() != "rank-7" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Processes communicating through conditions must see a consistent clock:
// the firing process's time is the awaiting process's wake time.
func TestConditionHandshakeTime(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	var fireAt, wakeAt float64
	e.Spawn("firer", func(p *Process) {
		p.Wait(2.5)
		fireAt = p.Now()
		c.Fire()
	})
	e.Spawn("waiter", func(p *Process) {
		c.Await(p)
		wakeAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fireAt != 2.5 || wakeAt != 2.5 {
		t.Errorf("fireAt=%v wakeAt=%v, want both 2.5", fireAt, wakeAt)
	}
}

func BenchmarkWaitChain(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(0.001)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestDeadlockReportNamesBlockedProcesses(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition() // never fired
	e.Spawn("recv3", func(p *Process) {
		c.AwaitOp(p, "Recv", 3, 42)
	})
	e.Spawn("plain", func(p *Process) {
		c.Await(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	for _, want := range []string{"2 blocked", "recv3", "Recv(peer=3, tag=42)", "plain"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report missing %q: %s", want, msg)
		}
	}
}

func TestDeadlockReportCapsProcessList(t *testing.T) {
	e := NewEngine()
	c := e.NewCondition()
	for i := 0; i < 12; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) { c.Await(p) })
	}
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "12 blocked") || !strings.Contains(msg, "more") {
		t.Errorf("capped deadlock report should count all 12 and note the overflow: %s", msg)
	}
}

type countingObserver struct {
	advances, blocks, wakes int
	lastNow                 float64
	maxQueue                int
}

func (o *countingObserver) OnAdvance(now float64, fired, queueDepth int) {
	o.advances++
	o.lastNow = now
	if queueDepth > o.maxQueue {
		o.maxQueue = queueDepth
	}
}
func (o *countingObserver) OnBlock(proc string, now float64) { o.blocks++ }
func (o *countingObserver) OnWake(proc string, now float64)  { o.wakes++ }

func TestObserverSeesAdvancesAndBlocks(t *testing.T) {
	e := NewEngine()
	obs := &countingObserver{}
	e.SetObserver(obs)
	c := e.NewCondition()
	e.Spawn("waiter", func(p *Process) {
		c.Await(p)
	})
	e.Spawn("firer", func(p *Process) {
		p.Wait(2)
		c.Fire()
		p.Wait(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.advances == 0 {
		t.Error("observer saw no event advances")
	}
	if obs.blocks == 0 || obs.wakes != obs.blocks {
		t.Errorf("observer saw %d blocks and %d wakes, want equal and > 0", obs.blocks, obs.wakes)
	}
	if obs.lastNow != 3 {
		t.Errorf("last observed time = %v, want 3", obs.lastNow)
	}
}

func TestNilObserverCostsNothing(t *testing.T) {
	// The disabled path must not allocate: block labels are static strings
	// and the observer hook is one nil check.
	e := NewEngine()
	c := e.NewCondition()
	e.Spawn("a", func(p *Process) { c.AwaitOp(p, "Recv", 1, 7) })
	e.Spawn("b", func(p *Process) { p.Wait(1); c.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A panic inside an event callback fires on whichever process blocked
// last; the run must fail with the engine's own error, not blame that
// process.
func TestCallbackPanicNotAttributedToProcess(t *testing.T) {
	e := NewEngine()
	e.At(1, func() { panic("model bug") })
	e.Spawn("rank17", func(p *Process) { p.Wait(5) })
	e.Spawn("bystander", func(p *Process) { p.Wait(5) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run should report the callback panic")
	}
	msg := err.Error()
	if !strings.Contains(msg, "event callback panicked at t=1") || !strings.Contains(msg, "model bug") {
		t.Errorf("error should name the callback and its time: %s", firstLine(msg))
	}
	if strings.Contains(firstLine(msg), "rank17") || strings.Contains(firstLine(msg), "bystander") {
		t.Errorf("error blames the process that held the baton: %s", firstLine(msg))
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// Processes woken at one instant run one at a time in wake order, all of
// them before the next event batch, and identically on every run.
func TestSameInstantWakesRunInWakeOrder(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			e.Spawn(name, func(p *Process) {
				p.Wait(1)
				trace = append(trace, p.Name()+"@1")
				p.Wait(0) // a second batch at the same instant
				trace = append(trace, p.Name()+"@1'")
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	want := "a@1 b@1 c@1 a@1' b@1' c@1'"
	for i := 0; i < 3; i++ {
		if got := strings.Join(run(), " "); got != want {
			t.Fatalf("run %d: trace %q, want %q", i, got, want)
		}
	}
}

// checkNoLeak fails the test when more goroutines exist than at the
// baseline. No waiting is needed: a coroutine's goroutine is gone by the
// time the stop or the last next that ended it returns.
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Run, %d before: process coroutines leaked", n, baseline)
	}
}

// Run leaves no coroutine behind, however it ends: every unfinished body
// is unwound, and what it defers executes no simulated operation.
func TestRunLeaksNoGoroutine(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := NewEngine()
		c := e.NewCondition() // never fired
		resumed, unwound := 0, 0
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Process) {
				defer func() {
					unwound++
					p.Wait(1) // must not run: the process is being torn down
					resumed++
				}()
				p.Wait(1)
				c.Await(p)
				resumed++
			})
		}
		e.Spawn("finishes", func(p *Process) { p.Wait(2) })
		err := e.Run()
		if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "8 blocked") {
			t.Errorf("Run = %v, want ErrDeadlock naming 8 blocked processes", err)
		}
		if unwound != 8 || resumed != 0 {
			t.Errorf("%d bodies unwound and %d resumed, want 8 and 0", unwound, resumed)
		}
		if e.Now() != 2 {
			t.Errorf("clock at %v after Run, want 2: teardown advanced it", e.Now())
		}
		checkNoLeak(t, baseline)
	})
	t.Run("process panic", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := NewEngine()
		c := e.NewCondition()
		for i := 0; i < 4; i++ {
			e.Spawn("awaiting", func(p *Process) { c.Await(p) })
			e.Spawn("waiting", func(p *Process) { p.Wait(10) })
		}
		e.Spawn("boom", func(p *Process) {
			p.Wait(1)
			panic("kaboom")
		})
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("Run = %v, want the process panic", err)
		}
		checkNoLeak(t, baseline)
	})
	t.Run("callback panic", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := NewEngine()
		e.At(1, func() { panic("model bug") })
		for i := 0; i < 4; i++ {
			e.Spawn("waiting", func(p *Process) { p.Wait(5) })
		}
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), "model bug") {
			t.Errorf("Run = %v, want the callback panic", err)
		}
		checkNoLeak(t, baseline)
	})
}

// A process whose own wake-up is the next thing to happen carries on inside
// block: no hand-off to Run, and nothing allocated per event.
func TestSelfWakeBlocksWithoutSwitch(t *testing.T) {
	chain := func(events int) func() {
		return func() {
			e := NewEngine()
			marker := &Process{}
			e.Spawn("p", func(p *Process) {
				e.handoff = marker // block overwrites it only when it switches
				for i := 0; i < events; i++ {
					p.Wait(1e-6)
				}
				if e.handoff != marker {
					t.Error("a self-wake went through Run")
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	few, many := testing.AllocsPerRun(5, chain(1)), testing.AllocsPerRun(5, chain(2001))
	if perEvent := (many - few) / 2000; perEvent != 0 {
		t.Errorf("%v allocs per event (%v for 1 event, %v for 2001), want 0", perEvent, few, many)
	}
}
