// Scan (inclusive prefix reduction) with the Hillis–Steele doubling
// schedule, plus the synthetic byte-level convenience wrappers used by the
// micro-benchmarks.

package mpi

// Scan returns the inclusive prefix reduction over comm ranks: the caller
// receives op(buf₀, …, buf_rank).
func (c *Comm) Scan(r *Rank, mine Buf, op ReduceOp) Buf {
	mine.check()
	p := len(c.group)
	if p == 1 {
		return mine.Clone()
	}
	seq := c.nextSeq()
	start := r.Now()
	me := c.rank
	res := mine.Clone()  // prefix so far
	part := mine.Clone() // aggregate of the window ending at me
	round := int64(0)
	for k := 1; k < p; k <<= 1 {
		var sr *Request
		tg := c.tag(seq, round)
		if me+k < p {
			sr = c.isendTag(me+k, tg, part)
		}
		if me-k >= 0 {
			in := c.irecvTag(me-k, tg).Wait(r)
			res = Combine(op, in, res)
			part = Combine(op, in, part)
		}
		if sr != nil {
			sr.Wait(r)
		}
		round++
	}
	c.trace(r, "Scan", mine.Bytes, start)
	return res
}

// AlltoallBytes runs a synthetic MPI_Alltoall where each rank sends
// blockBytes to every other rank.
func (c *Comm) AlltoallBytes(r *Rank, blockBytes int64) {
	if blockBytes < 0 {
		panic("mpi: negative buffer size")
	}
	send := newSlots(len(c.group))
	for i := range send.bytes {
		send.bytes[i] = blockBytes
	}
	c.alltoall(r, send)
}

// AllgatherBytes runs a synthetic MPI_Allgather contributing bytes per rank.
func (c *Comm) AllgatherBytes(r *Rank, bytes int64) {
	c.allgather(r, BytesBuf(bytes))
}

// AllreduceBytes runs a synthetic MPI_Allreduce over a bytes-sized buffer.
func (c *Comm) AllreduceBytes(r *Rank, bytes int64) {
	c.Allreduce(r, BytesBuf(bytes), OpSum)
}
