// Varying-count collectives (the MPI *v family) and exclusive scan.
// Production MPI implementations fall back to linear schedules for the
// v-variants (uneven block sizes defeat the splitting tricks of tree and
// doubling algorithms); the ring allgather needs no such fallback because
// each block travels as its own message.

package mpi

import "fmt"

// Gatherv collects every rank's (arbitrarily sized) buffer at the root
// with the linear schedule MPI implementations use for MPI_Gatherv.
// The root returns recv[i] = rank i's buffer; others return nil.
func (c *Comm) Gatherv(r *Rank, root int, mine Buf) []Buf {
	mine.check()
	p := len(c.group)
	seq := c.nextSeq()
	start := r.Now()
	defer func() { c.trace(r, "Gatherv", mine.Bytes, start) }()
	if c.rank == root {
		recv := make([]Buf, p)
		recv[root] = mine.Clone()
		reqs := make([]*Request, 0, p-1)
		srcs := make([]int, 0, p-1)
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			reqs = append(reqs, c.irecvTag(i, c.tag(seq, 0)))
			srcs = append(srcs, i)
		}
		for j, rq := range reqs {
			recv[srcs[j]] = rq.Wait(r)
		}
		return recv
	}
	c.isendTag(root, c.tag(seq, 0), mine).Wait(r)
	return nil
}

// Scatterv distributes root's per-rank buffers (arbitrary sizes) with the
// linear MPI_Scatterv schedule; every rank returns its own block.
func (c *Comm) Scatterv(r *Rank, root int, send []Buf) Buf {
	p := len(c.group)
	seq := c.nextSeq()
	start := r.Now()
	if c.rank == root {
		if len(send) != p {
			panic(fmt.Sprintf("mpi: Scatterv with %d buffers on a size-%d communicator", len(send), p))
		}
		var total int64
		reqs := make([]*Request, 0, p-1)
		for i := 0; i < p; i++ {
			send[i].check()
			total += send[i].Bytes
			if i == root {
				continue
			}
			reqs = append(reqs, c.isendTag(i, c.tag(seq, 0), send[i]))
		}
		WaitAll(r, reqs...)
		c.trace(r, "Scatterv", total, start)
		return send[root].Clone()
	}
	out := c.irecvTag(root, c.tag(seq, 0)).Wait(r)
	c.trace(r, "Scatterv", out.Bytes, start)
	return out
}

// Allgatherv distributes every rank's arbitrarily sized buffer to all
// ranks using the ring schedule (which carries uneven blocks natively).
func (c *Comm) Allgatherv(r *Rank, mine Buf) []Buf {
	mine.check()
	seq := c.nextSeq()
	start := r.Now()
	recv := c.allgatherRing(r, seq, mine)
	c.trace(r, "Allgatherv", mine.Bytes, start)
	return recv.bufs()
}

// Exscan returns the exclusive prefix reduction: rank r receives
// op(buf₀, …, buf_{r-1}); rank 0 receives a zero-value Buf (like
// MPI_Exscan, whose rank-0 result is undefined). The doubling schedule
// mirrors Scan's.
func (c *Comm) Exscan(r *Rank, mine Buf, op ReduceOp) Buf {
	mine.check()
	p := len(c.group)
	seq := c.nextSeq()
	start := r.Now()
	me := c.rank
	var res Buf // exclusive prefix accumulated so far
	have := false
	part := mine.Clone()
	round := int64(0)
	for k := 1; k < p; k <<= 1 {
		var sr *Request
		tg := c.tag(seq, round)
		if me+k < p {
			sr = c.isendTag(me+k, tg, part)
		}
		if me-k >= 0 {
			in := c.irecvTag(me-k, tg).Wait(r)
			if !have {
				res = in
				have = true
			} else {
				res = Combine(op, in, res)
			}
			part = Combine(op, in, part)
		}
		if sr != nil {
			sr.Wait(r)
		}
		round++
	}
	c.trace(r, "Exscan", mine.Bytes, start)
	return res
}
