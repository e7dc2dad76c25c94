// Alltoall and Alltoallv: pairwise exchange for large messages, Bruck's
// algorithm for small ones, and a linear (all-posted) variant, mirroring
// the decision rules of production MPI implementations. The paper's
// micro-benchmarks (Figures 3–5) and Splatt's dominant operation
// (MPI_Alltoallv, §4.2) run on these schedules.

package mpi

import "fmt"

// alltoallBruckThreshold is the per-destination block size (bytes) up to
// which Bruck's algorithm is preferred.
const alltoallBruckThreshold = 2048

// Alltoall exchanges send[i] with every rank i of the communicator and
// returns recv with recv[i] = the buffer rank i sent to the caller.
// Every rank must pass a slice of length Size(). Uneven block sizes are
// allowed (this is MPI_Alltoallv); evenly sized small blocks use Bruck.
func (c *Comm) Alltoall(r *Rank, send []Buf) []Buf {
	if len(send) != len(c.group) {
		panic(fmt.Sprintf("mpi: Alltoall with %d buffers on a size-%d communicator", len(send), len(c.group)))
	}
	return c.alltoall(r, slotsOf(send)).bufs()
}

func (c *Comm) alltoall(r *Rank, send slots) slots {
	p := len(c.group)
	var total int64
	even := true
	for _, n := range send.bytes {
		total += n
		if n != send.bytes[0] {
			even = false
		}
	}
	seq := c.nextSeq()
	start := r.Now()
	alg := c.w.cfg.ForceAlltoall
	if alg == "" {
		if even && p > 2 && send.bytes[0] <= alltoallBruckThreshold {
			alg = "bruck"
		} else {
			alg = "pairwise"
		}
	}
	var recv slots
	switch alg {
	case "pairwise":
		recv = c.alltoallPairwise(r, seq, send)
	case "bruck":
		if !even {
			panic("mpi: Bruck alltoall requires equal block sizes")
		}
		recv = c.alltoallBruck(r, seq, send)
	case "linear":
		recv = c.alltoallLinear(r, seq, send)
	default:
		panic(fmt.Sprintf("mpi: unknown alltoall algorithm %q", alg))
	}
	c.trace(r, "Alltoall", total, start)
	return recv
}

// alltoallPairwise runs p-1 rounds; in round k the caller exchanges with
// ranks at distance k (XOR pattern when p is a power of two, shift pattern
// otherwise), one blocking sendrecv per round.
func (c *Comm) alltoallPairwise(r *Rank, seq int64, send slots) slots {
	p := len(c.group)
	me := c.rank
	recv := newSlots(p)
	recv.set(me, send.get(me).Clone())
	pow2 := p&(p-1) == 0
	for k := 1; k < p; k++ {
		var dst, src int
		if pow2 {
			dst = me ^ k
			src = dst
		} else {
			dst = (me + k) % p
			src = (me - k + p) % p
		}
		t := c.tag(seq, int64(k))
		rr := c.irecvTag(src, t)
		sr := c.isendTag(dst, t, send.get(dst))
		recv.set(src, rr.Wait(r))
		sr.Wait(r)
	}
	return recv
}

// alltoallLinear posts every receive and send at once and waits for all —
// maximum overlap, maximum instantaneous contention.
func (c *Comm) alltoallLinear(r *Rank, seq int64, send slots) slots {
	p := len(c.group)
	me := c.rank
	recv := newSlots(p)
	recv.set(me, send.get(me).Clone())
	rreqs := make([]*Request, 0, p-1)
	sreqs := make([]*Request, 0, p-1)
	for k := 1; k < p; k++ {
		rreqs = append(rreqs, c.irecvTag((me-k+p)%p, c.tag(seq, 0)))
	}
	for k := 1; k < p; k++ {
		dst := (me + k) % p
		sreqs = append(sreqs, c.isendTag(dst, c.tag(seq, 0), send.get(dst)))
	}
	for i, rq := range rreqs {
		recv.set((me-1-i+p)%p, rq.Wait(r))
	}
	WaitAll(r, sreqs...)
	return recv
}

// alltoallBruck implements Bruck's log-round algorithm for equal blocks.
// Invariant: after the rounds, local block i holds the data sent by rank
// (me-i+p)%p to the caller.
func (c *Comm) alltoallBruck(r *Rank, seq int64, send slots) slots {
	p := len(c.group)
	me := c.rank
	// Step 1: local rotation. tmp[i] = block destined to (me+i)%p.
	tmp := newSlots(p)
	for i := 0; i < p; i++ {
		tmp.set(i, send.get((me+i)%p).Clone())
	}
	// Step 2: log2(p) rounds; round k ships the blocks whose index has bit
	// k set and replaces them with the even split of what arrives.
	round := int64(0)
	for k := 1; k < p; k <<= 1 {
		dst := (me + k) % p
		src := (me - k + p) % p
		out, n := tmp.concat(k, p, k)
		t := c.tag(seq, round)
		rr := c.irecvTag(src, t)
		sr := c.isendTag(dst, t, out)
		in := rr.Wait(r)
		sr.Wait(r)
		tmp.spread(in, k, p, k, n)
		round++
	}
	// Step 3: inverse rotation — tmp[i] came from rank (me-i+p)%p.
	recv := newSlots(p)
	for i := 0; i < p; i++ {
		recv.set((me-i+p)%p, tmp.get(i))
	}
	return recv
}
