// Allgather: ring (neighbour exchanges, whose cost tracks the paper's ring
// cost metric directly) and recursive doubling for small totals on
// power-of-two groups. Figure 7 of the paper shows Allgather's sensitivity to
// the rank order inside communicators — that sensitivity comes from these
// neighbour-structured schedules.

package mpi

// allgatherRDThreshold is the total gathered size (communicator size ×
// per-rank contribution) up to which recursive doubling is preferred on
// power-of-two communicators. The threshold is on the total because the
// last doubling round ships half of the full gathered buffer across the
// communicator's bisection — for large totals the ring's pipelined
// neighbour traffic is far cheaper.
const allgatherRDThreshold = 128 * 1024

// Allgather distributes every rank's buffer to all ranks; recv[i] is the
// contribution of comm rank i.
func (c *Comm) Allgather(r *Rank, mine Buf) []Buf {
	return c.allgather(r, mine).bufs()
}

func (c *Comm) allgather(r *Rank, mine Buf) slots {
	mine.check()
	p := len(c.group)
	seq := c.nextSeq()
	start := r.Now()
	var recv slots
	if p&(p-1) == 0 && p > 1 && int64(p)*mine.Bytes <= allgatherRDThreshold {
		recv = c.allgatherRecDoubling(r, seq, mine)
	} else {
		recv = c.allgatherRing(r, seq, mine)
	}
	c.trace(r, "Allgather", mine.Bytes, start)
	return recv
}

// allgatherRing passes blocks around the ring for p-1 rounds: in round t
// the caller sends block (rank-t)%p to rank+1 and receives block
// (rank-t-1)%p from rank-1.
func (c *Comm) allgatherRing(r *Rank, seq int64, mine Buf) slots {
	p := len(c.group)
	me := c.rank
	recv := newSlots(p)
	recv.set(me, mine.Clone())
	next := (me + 1) % p
	prev := (me - 1 + p) % p
	for t := 0; t < p-1; t++ {
		sendIdx := (me - t + p*p) % p
		recvIdx := (me - t - 1 + p*p) % p
		tg := c.tag(seq, int64(t))
		rr := c.irecvTag(prev, tg)
		sr := c.isendTag(next, tg, recv.get(sendIdx))
		recv.set(recvIdx, rr.Wait(r))
		sr.Wait(r)
	}
	return recv
}

// allgatherRecDoubling exchanges doubling block sets with rank^2^j; p must
// be a power of two. Before round k the caller holds the k blocks of its
// aligned group [lo, lo+k) and the peer those of the sibling group.
func (c *Comm) allgatherRecDoubling(r *Rank, seq int64, mine Buf) slots {
	p := len(c.group)
	if p&(p-1) != 0 {
		panic("mpi: recursive-doubling allgather requires a power-of-two communicator")
	}
	me := c.rank
	recv := newSlots(p)
	recv.set(me, mine.Clone())
	round := int64(0)
	for k := 1; k < p; k <<= 1 {
		peer := me ^ k
		lo := me &^ (k - 1)
		// Send every block currently held, ascending block index.
		out, _ := recv.concat(lo, lo+k, 0)
		tg := c.tag(seq, round)
		rr := c.irecvTag(peer, tg)
		sr := c.isendTag(peer, tg, out)
		in := rr.Wait(r)
		sr.Wait(r)
		recv.spread(in, lo^k, (lo^k)+k, 0, k)
		round++
	}
	return recv
}
