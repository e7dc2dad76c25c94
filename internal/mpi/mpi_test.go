package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/obs"
)

// testSpec16 is the ⟦2,2,4⟧ machine of the netmodel tests.
func testSpec16() netmodel.Spec {
	return netmodel.Spec{
		Name: "test",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: 2, UpBandwidth: 10e9, BusBandwidth: 50e9, Latency: 2e-6},
			{Name: "socket", Arity: 2, UpBandwidth: 20e9, BusBandwidth: 30e9, Latency: 1e-6, MemBandwidth: 30e9},
			{Name: "core", Arity: 4, Latency: 0.1e-6},
		},
		CoreFlops: 1e9,
	}
}

func identityBinding(n int) []int {
	b := make([]int, n)
	for i := range b {
		b[i] = i
	}
	return b
}

// Send sends buf to dst (comm rank) with a user tag and blocks until the
// send completes (eager: immediately; rendezvous: when received).
func (c *Comm) Send(r *Rank, dst int, tag int64, buf Buf) {
	c.Isend(r, dst, tag, buf).Wait(r)
}

// Recv blocks until a matching message from src (comm rank) arrives and
// returns its payload.
func (c *Comm) Recv(r *Rank, src int, tag int64) Buf {
	return c.Irecv(r, src, tag).Wait(r)
}

// Isend starts a non-blocking send to dst (comm rank).
func (c *Comm) Isend(r *Rank, dst int, tag int64, buf Buf) *Request {
	if tag < 0 {
		panic("mpi: negative user tags are reserved")
	}
	c.checkRank(r, dst)
	return c.w.isend(c.group[c.rank], c.group[dst], userTag(c.id, tag), buf)
}

// Irecv starts a non-blocking receive from src (comm rank).
func (c *Comm) Irecv(r *Rank, src int, tag int64) *Request {
	if tag < 0 {
		panic("mpi: negative user tags are reserved")
	}
	c.checkRank(r, src)
	return c.w.irecv(c.group[c.rank], c.group[src], userTag(c.id, tag))
}

// WaitAll completes all requests.
func WaitAll(r *Rank, reqs ...*Request) {
	for _, q := range reqs {
		q.Wait(r)
	}
}

// userTag namespaces user tags per communicator.
func userTag(commID int, tag int64) int64 {
	return int64(commID)<<40 | tag
}

func (c *Comm) checkRank(r *Rank, peer int) {
	if c.group[c.rank] != r.id {
		panic(fmt.Sprintf("mpi: rank %d used a communicator handle belonging to world rank %d",
			r.id, c.group[c.rank]))
	}
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("mpi: peer %d out of range for communicator of size %d", peer, len(c.group)))
	}
}

// runWorld executes body on n ranks with identity binding and returns the
// final virtual time.
func runWorld(t *testing.T, n int, cfg Config, body func(r *Rank)) float64 {
	t.Helper()
	end, err := Run(testSpec16(), identityBinding(n), cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestSendRecvPayload(t *testing.T) {
	runWorld(t, 2, Config{}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 7, F64Buf([]float64{1, 2, 3}))
		} else {
			got := w.Recv(r, 0, 7)
			if len(got.Data) != 3 || got.Data[0] != 1 || got.Data[2] != 3 {
				t.Errorf("received %v", got.Data)
			}
		}
	})
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	// 1 MB > eager threshold: sender must block until the receiver posts.
	var sendDone, recvPosted float64
	runWorld(t, 2, Config{}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 0, BytesBuf(1<<20))
			sendDone = r.Now()
		} else {
			r.Wait(0.5) // receiver arrives late
			recvPosted = r.Now()
			w.Recv(r, 0, 0)
		}
	})
	if sendDone < recvPosted {
		t.Errorf("rendezvous send completed at %v before receiver posted at %v", sendDone, recvPosted)
	}
}

func TestEagerSendReturnsImmediately(t *testing.T) {
	var sendDone float64
	runWorld(t, 2, Config{}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 0, BytesBuf(512)) // below eager threshold
			sendDone = r.Now()
		} else {
			r.Wait(0.25)
			w.Recv(r, 0, 0)
		}
	})
	if sendDone > 1e-3 {
		t.Errorf("eager send blocked until %v", sendDone)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two same-tag messages must arrive in posting order.
	runWorld(t, 2, Config{}, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			w.Send(r, 1, 0, F64Buf([]float64{1}))
			w.Send(r, 1, 0, F64Buf([]float64{2}))
		} else {
			a := w.Recv(r, 0, 0)
			b := w.Recv(r, 0, 0)
			if a.Data[0] != 1 || b.Data[0] != 2 {
				t.Errorf("out of order: %v then %v", a.Data, b.Data)
			}
		}
	})
}

// TestSendrecvExchange: two ranks post their receives before their sends
// and both exchanges complete with the peer's payload.
func TestSendrecvExchange(t *testing.T) {
	runWorld(t, 2, Config{}, func(r *Rank) {
		w := r.World()
		peer := 1 - r.ID()
		rr := w.Irecv(r, peer, 3)
		sr := w.Isend(r, peer, 3, F64Buf([]float64{float64(r.ID())}))
		got := rr.Wait(r)
		sr.Wait(r)
		if got.Data[0] != float64(peer) {
			t.Errorf("rank %d received %v", r.ID(), got.Data)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var mu sync.Mutex
	var after []float64
	runWorld(t, 8, Config{}, func(r *Rank) {
		r.Wait(float64(r.ID()) * 0.01) // staggered arrival
		r.World().Barrier(r)
		mu.Lock()
		after = append(after, r.Now())
		mu.Unlock()
	})
	// Everyone leaves the barrier no earlier than the last arrival (0.07).
	for _, tm := range after {
		if tm < 0.07 {
			t.Errorf("rank left barrier at %v, before last arrival", tm)
		}
	}
}

func TestSplitGroupsAndKeys(t *testing.T) {
	// Split 16 ranks into 4 comms by rank%4, keyed by -rank (reverses order).
	type result struct{ color, newRank, size int }
	results := make([]result, 16)
	runWorld(t, 16, Config{}, func(r *Rank) {
		w := r.World()
		color := r.ID() % 4
		sub := w.Split(r, color, -r.ID())
		results[r.ID()] = result{color, sub.Rank(), sub.Size()}
	})
	for id, res := range results {
		if res.size != 4 {
			t.Errorf("rank %d: comm size %d", id, res.size)
		}
		// Keys are -id: highest id gets rank 0 within its colour.
		wantRank := (15 - id) / 4
		if res.newRank != wantRank {
			t.Errorf("rank %d: comm rank %d, want %d", id, res.newRank, wantRank)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	runWorld(t, 4, Config{}, func(r *Rank) {
		sub := r.World().Split(r, map[bool]int{true: 0, false: -1}[r.ID() < 2], r.ID())
		if r.ID() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d: expected comm of 2", r.ID())
			}
		} else if sub != nil {
			t.Errorf("rank %d: expected nil comm", r.ID())
		}
	})
}

func TestSplitDisjointTags(t *testing.T) {
	// Concurrent collectives in two subcommunicators must not interfere.
	runWorld(t, 8, Config{}, func(r *Rank) {
		sub := r.World().Split(r, r.ID()/4, r.ID())
		out := sub.Allreduce(r, F64Buf([]float64{float64(r.ID())}), OpSum)
		want := 0.0
		base := (r.ID() / 4) * 4
		for i := base; i < base+4; i++ {
			want += float64(i)
		}
		if out.Data[0] != want {
			t.Errorf("rank %d: allreduce %v, want %v", r.ID(), out.Data[0], want)
		}
	})
}

// checkAlltoall verifies payload correctness for one alltoall schedule,
// called directly, or for the public Alltoall when sched is nil.
func checkAlltoall(t *testing.T, n int, sched func(*Comm, *Rank, int64, slots) slots, blockElems int) {
	t.Helper()
	runWorld(t, n, Config{}, func(r *Rank) {
		w := r.World()
		send := make([]Buf, n)
		for d := 0; d < n; d++ {
			data := make([]float64, blockElems)
			for j := range data {
				data[j] = float64(r.ID()*1000+d) + float64(j)/1000
			}
			send[d] = F64Buf(data)
		}
		var recv []Buf
		if sched == nil {
			recv = w.Alltoall(r, send)
		} else {
			recv = sched(w, r, w.nextSeq(), slotsOf(send)).bufs()
		}
		for s := 0; s < n; s++ {
			want := float64(s*1000 + r.ID())
			if len(recv[s].Data) != blockElems || recv[s].Data[0] != want {
				t.Errorf("rank %d from %d: got %v elems first=%v, want first=%v",
					r.ID(), s, len(recv[s].Data), recv[s].Data[0], want)
				return
			}
		}
	})
}

func TestAlltoallPairwise(t *testing.T)        { checkAlltoall(t, 8, (*Comm).alltoallPairwise, 4) }
func TestAlltoallPairwiseNonPow2(t *testing.T) { checkAlltoall(t, 6, (*Comm).alltoallPairwise, 4) }
func TestAlltoallBruck(t *testing.T)           { checkAlltoall(t, 8, (*Comm).alltoallBruck, 4) }
func TestAlltoallBruckNonPow2(t *testing.T)    { checkAlltoall(t, 7, (*Comm).alltoallBruck, 4) }
func TestAlltoallAuto(t *testing.T)            { checkAlltoall(t, 8, nil, 4) }

func TestAlltoallvUneven(t *testing.T) {
	n := 4
	runWorld(t, n, Config{}, func(r *Rank) {
		w := r.World()
		send := make([]Buf, n)
		for d := 0; d < n; d++ {
			data := make([]float64, r.ID()+d+1) // uneven sizes
			for j := range data {
				data[j] = float64(r.ID()*10 + d)
			}
			send[d] = F64Buf(data)
		}
		recv := w.Alltoall(r, send)
		for s := 0; s < n; s++ {
			wantLen := s + r.ID() + 1
			if len(recv[s].Data) != wantLen || recv[s].Data[0] != float64(s*10+r.ID()) {
				t.Errorf("rank %d from %d: %v (want len %d)", r.ID(), s, recv[s].Data, wantLen)
			}
		}
	})
}

// checkAllgather verifies one allgather schedule, or the public Allgather
// when sched is nil.
func checkAllgather(t *testing.T, n int, sched func(*Comm, *Rank, int64, Buf) slots) {
	t.Helper()
	runWorld(t, n, Config{}, func(r *Rank) {
		w := r.World()
		mine := F64Buf([]float64{float64(r.ID()), float64(r.ID() * 2)})
		var recv []Buf
		if sched == nil {
			recv = w.Allgather(r, mine)
		} else {
			recv = sched(w, r, w.nextSeq(), mine).bufs()
		}
		for s := 0; s < n; s++ {
			if len(recv[s].Data) != 2 || recv[s].Data[0] != float64(s) || recv[s].Data[1] != float64(2*s) {
				t.Errorf("rank %d block %d = %v", r.ID(), s, recv[s].Data)
				return
			}
		}
	})
}

func TestAllgatherRing(t *testing.T)        { checkAllgather(t, 8, (*Comm).allgatherRing) }
func TestAllgatherRingNonPow2(t *testing.T) { checkAllgather(t, 5, (*Comm).allgatherRing) }
func TestAllgatherRecDoubling(t *testing.T) { checkAllgather(t, 8, (*Comm).allgatherRecDoubling) }
func TestAllgatherAuto(t *testing.T)        { checkAllgather(t, 8, nil) }

// checkAllreduce verifies one allreduce schedule, or the public Allreduce
// when sched is nil.
func checkAllreduce(t *testing.T, n int, sched func(*Comm, *Rank, int64, Buf, ReduceOp) Buf, elems int) {
	t.Helper()
	runWorld(t, n, Config{}, func(r *Rank) {
		w := r.World()
		data := make([]float64, elems)
		for j := range data {
			data[j] = float64(r.ID() + j)
		}
		var out Buf
		if sched == nil {
			out = w.Allreduce(r, F64Buf(data), OpSum)
		} else {
			out = sched(w, r, w.nextSeq(), F64Buf(data), OpSum)
		}
		for j := 0; j < elems; j++ {
			want := float64(n*(n-1)/2 + n*j)
			if math.Abs(out.Data[j]-want) > 1e-9 {
				t.Errorf("rank %d elem %d = %v, want %v", r.ID(), j, out.Data[j], want)
				return
			}
		}
	})
}

func TestAllreduceRecDoubling(t *testing.T) { checkAllreduce(t, 8, (*Comm).allreduceRecDoubling, 16) }
func TestAllreduceRing(t *testing.T)        { checkAllreduce(t, 8, (*Comm).allreduceRing, 16) }
func TestAllreduceRingNonPow2(t *testing.T) { checkAllreduce(t, 6, (*Comm).allreduceRing, 12) }
func TestAllreduceAuto(t *testing.T)        { checkAllreduce(t, 8, nil, 16) }

func TestAllreduceMaxMin(t *testing.T) {
	runWorld(t, 8, Config{}, func(r *Rank) {
		w := r.World()
		v := F64Buf([]float64{float64(r.ID())})
		mx := w.Allreduce(r, v, OpMax)
		mn := w.Allreduce(r, v, OpMin)
		if mx.Data[0] != 7 || mn.Data[0] != 0 {
			t.Errorf("rank %d: max %v min %v", r.ID(), mx.Data[0], mn.Data[0])
		}
	})
}

// checkBcast verifies one broadcast schedule, or the public Bcast when
// sched is nil.
func checkBcast(t *testing.T, n int, sched func(*Comm, *Rank, int64, int, Buf) Buf, elems int, root int) {
	t.Helper()
	runWorld(t, n, Config{}, func(r *Rank) {
		w := r.World()
		data := make([]float64, elems)
		if r.ID() == root {
			for j := range data {
				data[j] = 100 + float64(j)
			}
		}
		var out Buf
		if sched == nil {
			out = w.Bcast(r, root, F64Buf(data))
		} else {
			out = sched(w, r, w.nextSeq(), root, F64Buf(data))
		}
		for j := 0; j < elems; j++ {
			if out.Data[j] != 100+float64(j) {
				t.Errorf("rank %d elem %d = %v", r.ID(), j, out.Data[j])
				return
			}
		}
	})
}

func TestBcastBinomial(t *testing.T)        { checkBcast(t, 8, (*Comm).bcastBinomial, 8, 0) }
func TestBcastBinomialRoot3(t *testing.T)   { checkBcast(t, 8, (*Comm).bcastBinomial, 8, 3) }
func TestBcastBinomialNonPow2(t *testing.T) { checkBcast(t, 7, (*Comm).bcastBinomial, 8, 2) }
func TestBcastChain(t *testing.T)           { checkBcast(t, 8, (*Comm).bcastChain, 40000, 0) }
func TestBcastChainRoot5(t *testing.T)      { checkBcast(t, 8, (*Comm).bcastChain, 40000, 5) }
func TestBcastAuto(t *testing.T)            { checkBcast(t, 8, nil, 8, 0) }

// sentPerRank counts the point-to-point messages each of p world ranks
// sent, from sc's p2p instants (the instant's TID is the sender).
func sentPerRank(t *testing.T, sc *obs.Scope, p int) []int {
	t.Helper()
	if d := sc.DroppedSpans(); d > 0 {
		t.Fatalf("scope dropped %d events past its cap", d)
	}
	sent := make([]int, p)
	for _, in := range sc.Instants() {
		if in.Name == "p2p" {
			sent[in.TID]++
		}
	}
	return sent
}

// The public collectives pick their schedule from the call alone; the
// messages the world sends, and the most any one rank sends, tell which
// schedule ran. Each size rule is pinned at its limit and one byte past it.
func TestDefaultScheduleAtThresholds(t *testing.T) {
	allgather := func(bytes int64) func(*Rank) {
		return func(r *Rank) { r.World().Allgather(r, BytesBuf(bytes)) }
	}
	allreduce := func(bytes int64) func(*Rank) {
		return func(r *Rank) { r.World().Allreduce(r, BytesBuf(bytes), OpSum) }
	}
	bcast := func(bytes int64) func(*Rank) {
		return func(r *Rank) { r.World().Bcast(r, 0, BytesBuf(bytes)) }
	}
	alltoall := func(block func(dst int) int64) func(*Rank) {
		return func(r *Rank) {
			w := r.World()
			send := make([]Buf, w.Size())
			for d := range send {
				send[d] = BytesBuf(block(d))
			}
			w.Alltoall(r, send)
		}
	}
	blocks := func(n int64) func(int) int64 { return func(int) int64 { return n } }
	for _, tc := range []struct {
		name          string
		p             int
		coll          func(*Rank)
		msgs, busiest int
	}{
		{"allgather total at limit: recursive doubling", 8, allgather(allgatherRDThreshold / 8), 24, 3},
		{"allgather total past limit: ring", 8, allgather(allgatherRDThreshold/8 + 1), 56, 7},
		{"allgather p=6: ring", 6, allgather(8), 30, 5},
		{"allreduce at limit: recursive doubling", 8, allreduce(allreduceRDThreshold), 24, 3},
		{"allreduce past limit: ring", 8, allreduce(allreduceRDThreshold + 1), 112, 14},
		{"allreduce p=6: ring", 6, allreduce(8), 60, 10},
		{"alltoall blocks at limit: Bruck", 8, alltoall(blocks(alltoallBruckThreshold)), 24, 3},
		{"alltoall blocks past limit: pairwise", 8, alltoall(blocks(alltoallBruckThreshold + 1)), 56, 7},
		// Bruck would send the same one message per rank at p = 2.
		{"alltoall p=2: pairwise", 2, alltoall(blocks(8)), 2, 1},
		{"alltoall uneven on every rank: pairwise", 8, alltoall(func(d int) int64 { return int64(64 + d) }), 56, 7},
		{"bcast at limit: binomial", 8, bcast(bcastChainThreshold), 7, 3},
		{"bcast past limit: chain of one segment", 8, bcast(bcastChainThreshold + 1), 7, 1},
		{"bcast 1 MiB: chain of eight segments", 8, bcast(8 * bcastSegment), 56, 8},
	} {
		sc := obs.New(obs.Options{P2PEvents: true})
		runWorld(t, tc.p, Config{Obs: sc}, tc.coll)
		msgs, busiest := 0, 0
		for _, n := range sentPerRank(t, sc, tc.p) {
			msgs += n
			busiest = max(busiest, n)
		}
		if msgs != tc.msgs || busiest != tc.busiest {
			t.Errorf("%s: %d messages, at most %d from one rank; want %d, %d",
				tc.name, msgs, busiest, tc.msgs, tc.busiest)
		}
	}
}

func TestReduceBinomial(t *testing.T) {
	for _, root := range []int{0, 3} {
		runWorld(t, 8, Config{}, func(r *Rank) {
			w := r.World()
			out := w.Reduce(r, root, F64Buf([]float64{float64(r.ID()), 1}), OpSum)
			if r.ID() == root {
				if out.Data[0] != 28 || out.Data[1] != 8 {
					t.Errorf("root %d: reduce = %v", root, out.Data)
				}
			} else if out.Data != nil {
				t.Errorf("non-root %d got data", r.ID())
			}
		})
	}
}

func TestGather(t *testing.T) {
	for _, n := range []int{8, 5} {
		for _, root := range []int{0, 2} {
			runWorld(t, n, Config{}, func(r *Rank) {
				w := r.World()
				recv := w.Gather(r, root, F64Buf([]float64{float64(r.ID()), float64(r.ID() * 3)}))
				if r.ID() != root {
					if recv != nil {
						t.Errorf("non-root %d got data", r.ID())
					}
					return
				}
				for s := 0; s < n; s++ {
					if len(recv[s].Data) != 2 || recv[s].Data[0] != float64(s) || recv[s].Data[1] != float64(3*s) {
						t.Errorf("n=%d root=%d block %d = %v", n, root, s, recv[s].Data)
					}
				}
			})
		}
	}
}

func TestScan(t *testing.T) {
	for _, n := range []int{8, 5} {
		runWorld(t, n, Config{}, func(r *Rank) {
			w := r.World()
			out := w.Scan(r, F64Buf([]float64{float64(r.ID() + 1)}), OpSum)
			want := float64((r.ID() + 1) * (r.ID() + 2) / 2)
			if out.Data[0] != want {
				t.Errorf("n=%d rank %d scan = %v, want %v", n, r.ID(), out.Data[0], want)
			}
		})
	}
}

func TestSyntheticCollectivesRun(t *testing.T) {
	end := runWorld(t, 16, Config{}, func(r *Rank) {
		w := r.World()
		w.AlltoallBytes(r, 1024)
		w.AllgatherBytes(r, 1024)
		w.AllreduceBytes(r, 1024)
		w.Barrier(r)
	})
	if end <= 0 {
		t.Error("synthetic collectives consumed no time")
	}
}

// Placement must matter: an alltoall inside one socket beats the same
// alltoall spread over two nodes for large messages on this test machine.
func TestPlacementAffectsTiming(t *testing.T) {
	duration := func(binding []int) float64 {
		var start, end float64
		_, err := Run(testSpec16(), binding, Config{}, func(r *Rank) {
			w := r.World()
			w.Barrier(r)
			if r.ID() == 0 {
				start = r.Now()
			}
			w.AlltoallBytes(r, 1<<20)
			if r.ID() == 0 {
				end = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end - start
	}
	packed := duration([]int{0, 1, 2, 3})  // one socket
	spread := duration([]int{0, 4, 8, 12}) // one core per socket, two nodes
	if packed <= 0 || spread <= 0 {
		t.Fatalf("degenerate durations: packed=%v spread=%v", packed, spread)
	}
	if packed >= spread {
		t.Errorf("packed alltoall (%v) should beat NIC-crossing spread (%v) for 1 MB blocks", packed, spread)
	}
}

func TestComputeRanksContend(t *testing.T) {
	// Ranks 0..3 share socket-0 memory; compute takes 4× longer than a
	// lone rank on socket 1.
	times := make([]float64, 5)
	_, err := Run(testSpec16(), []int{0, 1, 2, 3, 4}, Config{}, func(r *Rank) {
		r.World().Barrier(r)
		t0 := r.Now()
		r.Compute(0, 3e9)
		times[r.ID()] = r.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[4] > 0.11 {
		t.Errorf("lone rank took %v, want ≈0.1", times[4])
	}
	for i := 0; i < 4; i++ {
		if times[i] < 0.35 {
			t.Errorf("contended rank %d took %v, want ≈0.4", i, times[i])
		}
	}
}

func TestTracerReceivesCollectives(t *testing.T) {
	sc := obs.New(obs.Options{})
	_, err := Run(testSpec16(), identityBinding(4), Config{Obs: sc}, func(r *Rank) {
		w := r.World()
		w.AllreduceBytes(r, 2048)
		sub := w.Split(r, r.ID()/2, r.ID())
		sub.AlltoallBytes(r, 128)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := sc.DroppedSpans(); d > 0 {
		t.Fatalf("scope dropped %d spans past its cap", d)
	}
	ops := map[string]int{}
	comms := map[int64]bool{}
	for _, sp := range sc.Spans() {
		if sp.Cat != "coll" {
			continue
		}
		ops[sp.Name]++
		for _, a := range sp.Args {
			if a.Key == "comm" {
				comms[a.Val] = true
			}
		}
	}
	if ops["Allreduce"] != 4 {
		t.Errorf("Allreduce traced %d times, want 4", ops["Allreduce"])
	}
	if ops["Alltoall"] != 4 {
		t.Errorf("Alltoall traced %d times, want 4", ops["Alltoall"])
	}
	if len(comms) != 3 { // world + two subcomms
		t.Errorf("traced %d distinct comms, want 3", len(comms))
	}
}

func TestInvalidBindingRejected(t *testing.T) {
	if _, err := Run(testSpec16(), []int{0, 99}, Config{}, func(r *Rank) {}); err == nil {
		t.Error("invalid core binding accepted")
	}
	if _, err := Run(testSpec16(), nil, Config{}, func(r *Rank) {}); err == nil {
		t.Error("empty binding accepted")
	}
}

func BenchmarkAlltoall16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(testSpec16(), identityBinding(16), Config{}, func(r *Rank) {
			r.World().AlltoallBytes(r, 64*1024)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
