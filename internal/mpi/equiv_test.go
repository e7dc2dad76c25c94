package mpi

import (
	"fmt"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// testSpec32 is testSpec16 with four nodes, so that 17 ranks fit.
func testSpec32() netmodel.Spec {
	s := testSpec16()
	s.Levels = append([]netmodel.LevelSpec(nil), s.Levels...)
	s.Levels[0].Arity = 4
	return s
}

// collRun is what one rank saw of a collective: when it finished, when the
// barrier after it finished, and the size of every block it got back.
type collRun struct {
	done, barrier float64
	bytes         []int64
}

// runColl runs coll on p ranks of testSpec32 and returns every rank's view.
func runColl(t *testing.T, p int, coll func(r *Rank) []Buf) []collRun {
	t.Helper()
	out := make([]collRun, p)
	_, err := Run(testSpec32(), identityBinding(p), Config{}, func(r *Rank) {
		got := coll(r)
		me := &out[r.ID()]
		me.done = r.Now()
		for _, b := range got {
			me.bytes = append(me.bytes, b.Bytes)
		}
		r.World().Barrier(r)
		me.barrier = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRuns(t *testing.T, what string, synthetic, payload []collRun) {
	t.Helper()
	for rank := range synthetic {
		s, d := synthetic[rank], payload[rank]
		if s.done != d.done || s.barrier != d.barrier {
			t.Errorf("%s: rank %d finished at %v (barrier %v) with byte counts, %v (barrier %v) with payload",
				what, rank, s.done, s.barrier, d.done, d.barrier)
		}
		if fmt.Sprint(s.bytes) != fmt.Sprint(d.bytes) {
			t.Errorf("%s: rank %d got blocks %v with byte counts, %v with payload", what, rank, s.bytes, d.bytes)
		}
	}
}

// Payload-less collectives carry byte counts only; they must take the
// same virtual time and hand back the same block sizes as the same
// collective moving real data. The blocks are equal within a rank and
// differ between ranks (Alltoallv reaches Bruck that way), which is what a
// single per-collective size would get wrong. The test calls the schedules
// directly: at these sizes the size rules would run pairwise alltoall and
// ring allgather. Element counts are multiples of 8⁴ so that every
// re-split of Bruck's and recursive doubling's rounds is exact both in
// elements and in bytes.
func TestSyntheticMatchesPayloadCollectives(t *testing.T) {
	elems := func(rank int) int { return 4096 * (1 + rank%3) }
	block := func(rank int, data bool) Buf {
		if data {
			return F64Buf(make([]float64, elems(rank)))
		}
		return BytesBuf(8 * int64(elems(rank)))
	}
	for _, p := range []int{3, 5, 8, 16, 17} {
		alltoall := func(data bool) func(r *Rank) []Buf {
			return func(r *Rank) []Buf {
				send := make([]Buf, p)
				for i := range send {
					send[i] = block(r.ID(), data)
				}
				w := r.World()
				return w.alltoallBruck(r, w.nextSeq(), slotsOf(send)).bufs()
			}
		}
		sameRuns(t, fmt.Sprintf("bruck alltoall p=%d", p),
			runColl(t, p, alltoall(false)), runColl(t, p, alltoall(true)))
		if p&(p-1) != 0 {
			continue // recursive doubling needs a power of two
		}
		allgather := func(data bool) func(r *Rank) []Buf {
			return func(r *Rank) []Buf {
				w := r.World()
				return w.allgatherRecDoubling(r, w.nextSeq(), block(r.ID(), data)).bufs()
			}
		}
		sameRuns(t, fmt.Sprintf("rdoubling allgather p=%d", p),
			runColl(t, p, allgather(false)), runColl(t, p, allgather(true)))
		allreduce := func(data bool) func(r *Rank) []Buf {
			return func(r *Rank) []Buf {
				w := r.World()
				return []Buf{w.allreduceRecDoubling(r, w.nextSeq(), block(0, data), OpSum)}
			}
		}
		sameRuns(t, fmt.Sprintf("rdoubling allreduce p=%d", p),
			runColl(t, p, allreduce(false)), runColl(t, p, allreduce(true)))
	}
}

// A channel of the mailbox exists only while it holds an unmatched
// operation: after any number of completed collectives the mailboxes are
// empty, and in the middle of a run they hold the outstanding operations,
// not every (source, tag) ever used.
func TestMailboxHoldsOnlyOutstandingMessages(t *testing.T) {
	const ranks, barriers = 16, 1000
	engine := sim.NewEngine()
	w, err := NewWorld(engine, netmodel.NewPlatform(engine, testSpec16()), identityBinding(ranks), Config{})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	w.Spawn(func(r *Rank) {
		for i := 0; i < barriers; i++ {
			r.World().Barrier(r)
			for dst := 0; dst < ranks; dst++ {
				peak = max(peak, w.mail.channels(dst))
			}
		}
		if r.ID() == 0 {
			// One eager message nobody receives: the only entry left.
			r.World().Isend(r, 1, 5, BytesBuf(8))
		}
	})
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	// A rank has at most one operation outstanding per round of the barrier
	// it is in and of the one its fastest peer has moved on to.
	if limit := 2 * 4; peak > limit {
		t.Errorf("a mailbox held %d channels during %d barriers, want at most %d", peak, barriers, limit)
	}
	for dst := 0; dst < ranks; dst++ {
		want := 0
		if dst == 1 {
			want = 1
		}
		if got := w.mail.channels(dst); got != want {
			t.Errorf("mailbox of rank %d holds %d channels after the run, want %d", dst, got, want)
		}
	}
}
