// Alltoall and Alltoallv: pairwise exchange for large messages, Bruck's
// algorithm for small equal ones, as production MPI implementations decide.
// The paper's micro-benchmarks (Figures 3–5) and Splatt's dominant
// operation (MPI_Alltoallv, §4.2) run on these schedules.

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
	var recv slots
	if even && p > 2 && send.bytes[0] <= alltoallBruckThreshold {
		recv = c.alltoallBruck(r, seq, send)
	} else {
		recv = c.alltoallPairwise(r, seq, send)
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

// alltoallBruck implements Bruck's log-round algorithm. Every block of
// send must have the same size (its caller checks): the rounds re-split
// what arrives evenly. Invariant: after the rounds, local block i holds
// the data sent by rank (me-i+p)%p to the caller.
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
