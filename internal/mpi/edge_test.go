package mpi

import (
	"strings"
	"testing"
)

// TestEagerThresholdBoundary: a send of exactly the eager threshold
// completes before the receiver posts; one byte more is a rendezvous and
// waits for the receiver.
func TestEagerThresholdBoundary(t *testing.T) {
	const recvAt = 0.25
	for _, tc := range []struct {
		bytes   int64
		waits   bool
		comment string
	}{
		{eagerThreshold, false, "eager"},
		{eagerThreshold + 1, true, "rendezvous"},
	} {
		var sendDone float64
		_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
			w := r.World()
			if r.ID() == 0 {
				w.Send(r, 1, 0, BytesBuf(tc.bytes))
				sendDone = r.Now()
			} else {
				r.Wait(recvAt)
				w.Recv(r, 0, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if waited := sendDone >= recvAt; waited != tc.waits {
			t.Errorf("%d B send (%s) completed at %v, receiver posted at %v", tc.bytes, tc.comment, sendDone, recvAt)
		}
	}
}

func TestOversubscription(t *testing.T) {
	// Four ranks share one core: collectives still complete and payloads
	// stay correct (the paper never oversubscribes, but the runtime must
	// not wedge).
	binding := []int{0, 0, 0, 0}
	_, err := Run(testSpec16(), binding, Config{}, func(r *Rank) {
		out := r.World().Allreduce(r, F64Buf([]float64{1}), OpSum)
		if out.Data[0] != 4 {
			t.Errorf("rank %d: allreduce %v", r.ID(), out.Data[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedRecvDeadlocks(t *testing.T) {
	// A receive with no matching send must surface as a deadlock error,
	// naming a blocked rank.
	_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
		if r.ID() == 0 {
			r.World().Recv(r, 1, 42) // never sent
		}
	})
	if err == nil {
		t.Fatal("mismatched recv did not deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %v does not mention deadlock", err)
	}
	if !strings.Contains(err.Error(), "rank0") {
		t.Errorf("error %v does not name the blocked rank", err)
	}
}

func TestMismatchedTagDeadlocks(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 1, BytesBuf(1<<20)) // rendezvous, tag 1
		} else {
			w.Recv(r, 0, 2) // waiting on tag 2
		}
	})
	if err == nil {
		t.Fatal("tag mismatch did not deadlock")
	}
}

func TestSelfSendEager(t *testing.T) {
	// A rank may send to itself if the receive is posted first (or the
	// message is eager).
	_, err := Run(testSpec16(), identityBinding(1), Config{}, func(r *Rank) {
		w := r.World()
		req := w.Irecv(r, 0, 0)
		w.Send(r, 0, 0, F64Buf([]float64{42}))
		got := req.Wait(r)
		if got.Data[0] != 42 {
			t.Errorf("self-send payload %v", got.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllMixed(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(4), Config{}, func(r *Rank) {
		w := r.World()
		next := (r.ID() + 1) % 4
		prev := (r.ID() + 3) % 4
		reqs := []*Request{
			w.Irecv(r, prev, 9),
			w.Isend(r, next, 9, F64Buf([]float64{float64(r.ID())})),
		}
		WaitAll(r, reqs...)
		got := reqs[0].Wait(r) // Wait after WaitAll is idempotent
		if got.Data[0] != float64(prev) {
			t.Errorf("rank %d got %v", r.ID(), got.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommRankValidation(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("out-of-range peer did not panic")
			}
			panic("unwind") // keep the runtime's panic bookkeeping honest
		}()
		r.World().Send(r, 5, 0, BytesBuf(1))
	})
	if err == nil {
		t.Fatal("expected the re-panic to surface")
	}
}

func TestNegativeUserTagRejected(t *testing.T) {
	_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() { _ = recover() }()
		r.World().Send(r, 1, -1, BytesBuf(1))
		t.Error("negative tag accepted")
	})
	// The deadlock of rank 1 never happens (both ranks return), so err may
	// be nil; the assertion above is the real check.
	_ = err
}

func TestBufValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inconsistent Buf accepted")
		}
	}()
	b := Buf{Bytes: 7, Data: []float64{1}}
	b.check()
}

func TestCombineErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Combine accepted")
		}
	}()
	Combine(OpSum, BytesBuf(8), BytesBuf(16))
}

func TestSplitEvenSynthetic(t *testing.T) {
	parts := BytesBuf(10).SplitEven(3)
	var total int64
	for _, p := range parts {
		total += p.Bytes
	}
	if total != 10 || len(parts) != 3 {
		t.Errorf("SplitEven parts %v", parts)
	}
}

func TestConcatMixedBecomesSynthetic(t *testing.T) {
	out := Concat(F64Buf([]float64{1, 2}), BytesBuf(8))
	if out.Data != nil {
		t.Error("mixing data and synthetic should drop the data")
	}
	if out.Bytes != 24 {
		t.Errorf("Concat bytes = %d", out.Bytes)
	}
}
