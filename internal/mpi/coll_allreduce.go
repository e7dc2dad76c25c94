// Allreduce: recursive doubling for small buffers, the
// ring (reduce-scatter + allgather) algorithm for large ones — the
// neighbour-structured ring is what makes Allreduce sensitive to the rank
// order inside a communicator (Figure 6 of the paper).

package mpi

// allreduceRDThreshold is the buffer size (bytes) up to which recursive
// doubling is preferred on power-of-two communicators.
const allreduceRDThreshold = 64 * 1024

// Allreduce combines every rank's buffer with op and returns the result on
// all ranks. All buffers must have the same size.
func (c *Comm) Allreduce(r *Rank, mine Buf, op ReduceOp) Buf {
	mine.check()
	p := len(c.group)
	if p == 1 {
		return mine.Clone()
	}
	seq := c.nextSeq()
	start := r.Now()
	var out Buf
	if p&(p-1) == 0 && mine.Bytes <= allreduceRDThreshold {
		out = c.allreduceRecDoubling(r, seq, mine, op)
	} else {
		out = c.allreduceRing(r, seq, mine, op)
	}
	c.trace(r, "Allreduce", mine.Bytes, start)
	return out
}

// allreduceRecDoubling exchanges the full buffer with rank^2^j each round;
// p must be a power of two.
func (c *Comm) allreduceRecDoubling(r *Rank, seq int64, mine Buf, op ReduceOp) Buf {
	p := len(c.group)
	if p&(p-1) != 0 {
		panic("mpi: recursive-doubling allreduce requires a power-of-two communicator")
	}
	me := c.rank
	acc := mine.Clone()
	round := int64(0)
	for k := 1; k < p; k <<= 1 {
		peer := me ^ k
		tg := c.tag(seq, round)
		rr := c.irecvTag(peer, tg)
		sr := c.isendTag(peer, tg, acc)
		in := rr.Wait(r)
		sr.Wait(r)
		acc = Combine(op, acc, in)
		round++
	}
	return acc
}

// allreduceRing is reduce-scatter (ring) followed by allgather (ring):
// 2(p-1) neighbour rounds of 1/p-sized chunks.
func (c *Comm) allreduceRing(r *Rank, seq int64, mine Buf, op ReduceOp) Buf {
	p := len(c.group)
	me := c.rank
	chunks := mine.SplitEven(p)
	for i := range chunks {
		chunks[i] = chunks[i].Clone()
	}
	next := (me + 1) % p
	prev := (me - 1 + p) % p
	// Phase 1: reduce-scatter. After p-1 rounds the fully reduced chunk
	// (me+1)%p lives at this rank.
	for t := 0; t < p-1; t++ {
		sendIdx := (me - t + p*p) % p
		recvIdx := (me - t - 1 + p*p) % p
		tg := c.tag(seq, int64(t))
		rr := c.irecvTag(prev, tg)
		sr := c.isendTag(next, tg, chunks[sendIdx])
		in := rr.Wait(r)
		sr.Wait(r)
		chunks[recvIdx] = Combine(op, chunks[recvIdx], in)
	}
	// Phase 2: allgather of the reduced chunks around the same ring.
	ownIdx := (me + 1) % p
	for t := 0; t < p-1; t++ {
		sendIdx := (ownIdx - t + p*p) % p
		recvIdx := (ownIdx - t - 1 + p*p) % p
		tg := c.tag(seq, int64(p+t))
		rr := c.irecvTag(prev, tg)
		sr := c.isendTag(next, tg, chunks[sendIdx])
		in := rr.Wait(r)
		sr.Wait(r)
		chunks[recvIdx] = in
	}
	return Concat(chunks...)
}
