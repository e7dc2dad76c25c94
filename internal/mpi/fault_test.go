package mpi

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

func plan(t *testing.T, dsl string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(dsl)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", dsl, err)
	}
	return p
}

func TestCrashFailsBlockedReceiver(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(2), Config{Faults: plan(t, "rank:1@t=1ms")}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Recv(r, 1, 0) // rank 1 dies before ever sending
		} else {
			r.Wait(1) // parked when the crash fires
		}
	})
	if err == nil {
		t.Fatal("Run succeeded despite a lost peer")
	}
	if errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlocked instead of failing typed: %v", err)
	}
	if !errors.Is(err, fault.ErrRankLost) {
		t.Fatalf("error does not wrap fault.ErrRankLost: %v", err)
	}
	var rle *fault.RankLostError
	if !errors.As(err, &rle) || rle.Rank != 1 {
		t.Fatalf("error does not name rank 1: %v", err)
	}
}

func TestCrashedNodeCollectiveNeverDeadlocks(t *testing.T) {
	// Node 0 hosts ranks 0..7 on the 2x2x4 machine. Crash it mid-stream:
	// the allreduce loop on the pre-crash world communicator must abort
	// with a typed error on some survivor — never hang.
	_, err := Run(testSpec16(), identityBinding(16), Config{Faults: plan(t, "node:0@t=1ms")}, func(r *Rank) {
		w := r.World()
		for i := 0; i < 1000; i++ {
			w.Allreduce(r, F64Buf([]float64{float64(r.ID())}), OpSum)
			r.Wait(10e-6)
		}
	})
	if err == nil {
		t.Fatal("Run succeeded despite a crashed node")
	}
	if errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlocked instead of failing typed: %v", err)
	}
	if !errors.Is(err, fault.ErrRankLost) {
		t.Fatalf("error does not wrap fault.ErrRankLost: %v", err)
	}
	var rle *fault.RankLostError
	if !errors.As(err, &rle) {
		t.Fatalf("no RankLostError in chain: %v", err)
	}
	if rle.Rank < 0 || rle.Rank > 7 {
		t.Fatalf("named rank %d is not on node 0: %v", rle.Rank, err)
	}
}

func TestOperationsOnRevokedCommFailFast(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(3), Config{Faults: plan(t, "rank:2@t=1ms")}, func(r *Rank) {
		w := r.World()
		if r.ID() == 2 {
			r.Wait(1)
			return
		}
		r.Wait(2e-3) // past the crash
		// Even rank 0 ↔ rank 1 traffic must fail: the world comm is revoked.
		caught := fault.Catch(func() {
			if r.ID() == 0 {
				w.Send(r, 1, 0, BytesBuf(8))
			} else {
				w.Recv(r, 0, 0)
			}
		})
		if !errors.Is(caught, fault.ErrRankLost) {
			t.Errorf("rank %d: op on revoked comm returned %v", r.ID(), caught)
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestStraggleStretchesRank(t *testing.T) {
	body := func(r *Rank) {
		r.Wait(1e-3)
		r.World().Barrier(r)
	}
	base, err := Run(testSpec16(), identityBinding(4), Config{}, body)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(testSpec16(), identityBinding(4), Config{Faults: plan(t, "straggle:rank=1,factor=4")}, body)
	if err != nil {
		t.Fatal(err)
	}
	if slow < 3.9e-3 {
		t.Fatalf("straggler did not stretch the run: %v (base %v)", slow, base)
	}
	if base > 1.5e-3 {
		t.Fatalf("baseline unexpectedly slow: %v", base)
	}
}

func TestLinkDegradeSlowsTransfer(t *testing.T) {
	// Cores 0 and 8 are on different nodes: a 100 MB message runs at the
	// 10 GB/s NIC. Halving level 0 at t=0 must roughly double the time.
	binding := []int{0, 8}
	body := func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 0, BytesBuf(100<<20))
		} else {
			w.Recv(r, 0, 0)
		}
	}
	base, err := Run(testSpec16(), binding, Config{}, body)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Run(testSpec16(), binding, Config{Faults: plan(t, "link:level=0,degrade=0.5")}, body)
	if err != nil {
		t.Fatal(err)
	}
	if degraded < 1.8*base {
		t.Fatalf("degraded run %v not ~2x baseline %v", degraded, base)
	}
}

// TestFaultReplayIdenticalTraces is the golden determinism test: the same
// seeded plan (randomized chaos kills, a straggler, a degraded link level)
// replayed twice produces byte-identical virtual-time traces and the same
// final time. Survivors catch the abort and stop.
func TestFaultReplayIdenticalTraces(t *testing.T) {
	run := func() (float64, []byte) {
		sc := obs.New(obs.Options{})
		end, err := Run(testSpec16(), identityBinding(16),
			Config{Obs: sc, Faults: plan(t, "seed=7;chaos:ranks=3,by=3ms;straggle:rank=5,factor=2;link:level=1,degrade=0.5@t=1ms")},
			func(r *Rank) {
				w := r.World()
				caught := fault.Catch(func() {
					for i := 0; i < 100; i++ {
						w.Allreduce(r, F64Buf([]float64{1}), OpSum)
						r.Wait(20e-6)
					}
				})
				if !errors.Is(caught, fault.ErrRankLost) {
					t.Errorf("rank %d caught %v, not ErrRankLost", r.ID(), caught)
				}
			})
		if err != nil {
			t.Fatalf("replay run failed: %v", err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSON(&buf, sc); err != nil {
			t.Fatal(err)
		}
		return end, buf.Bytes()
	}
	end1, trace1 := run()
	end2, trace2 := run()
	if end1 != end2 {
		t.Fatalf("final times differ: %v vs %v", end1, end2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("traces differ across replay (%d vs %d bytes)", len(trace1), len(trace2))
	}
	// The trace must carry the plan identity and the crash markers.
	s := string(trace1)
	for _, want := range []string{"fault_seed", "fault_plan_hash", "fault:crash", "fault:link"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestDeadlockReportNamesLostRanks(t *testing.T) {
	// Rank 0 ignores the typed error and waits on a fresh condition that
	// can never fire: the deadlock report must still name the lost rank.
	_, err := Run(testSpec16(), identityBinding(2), Config{Faults: plan(t, "rank:1@t=1ms")}, func(r *Rank) {
		if r.ID() == 1 {
			r.Wait(1)
			return
		}
		_ = fault.Catch(func() { r.World().Recv(r, 1, 0) })
		// Buggy survivor: blocks forever instead of stopping.
		r.w.engine.NewCondition().Await(r.proc)
	})
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1 lost") {
		t.Fatalf("deadlock report does not name the lost rank: %v", err)
	}
}
