// Rooted collectives: broadcast (binomial tree and pipelined chain),
// reduce and gather (binomial trees). Splatt's communicator mix
// uses MPI_Bcast, MPI_Reduce and MPI_Gather alongside the non-rooted
// operations (§4.2).

package mpi

// bcastChainThreshold is the buffer size (bytes) above which the pipelined
// chain broadcast replaces the binomial tree.
const bcastChainThreshold = 64 * 1024

// bcastSegment is the pipeline segment size of the chain broadcast.
const bcastSegment = 128 * 1024

// Bcast sends root's buffer to every rank and returns it; non-root callers
// pass the expected size (synthetic) or any buffer of the right size —
// only root's payload is used.
func (c *Comm) Bcast(r *Rank, root int, buf Buf) Buf {
	buf.check()
	p := len(c.group)
	if p == 1 {
		return buf.Clone()
	}
	seq := c.nextSeq()
	start := r.Now()
	var out Buf
	if buf.Bytes <= bcastChainThreshold {
		out = c.bcastBinomial(r, seq, root, buf)
	} else {
		out = c.bcastChain(r, seq, root, buf)
	}
	c.trace(r, "Bcast", buf.Bytes, start)
	return out
}

// bcastBinomial is the MPICH binomial-tree broadcast over relative ranks.
func (c *Comm) bcastBinomial(r *Rank, seq int64, root int, buf Buf) Buf {
	p := len(c.group)
	vr := (c.rank - root + p) % p
	out := buf.Clone()
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (vr - mask + root) % p
			out = c.irecvTag(src, c.tag(seq, 0)).Wait(r)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := (vr + mask + root) % p
			c.isendTag(dst, c.tag(seq, 0), out).Wait(r)
		}
		mask >>= 1
	}
	return out
}

// bcastChain pipelines fixed-size segments down the rank chain
// root → root+1 → …, overlapping the forward of segment i with the receive
// of segment i+1.
func (c *Comm) bcastChain(r *Rank, seq int64, root int, buf Buf) Buf {
	p := len(c.group)
	vr := (c.rank - root + p) % p
	nseg := int((buf.Bytes + bcastSegment - 1) / bcastSegment)
	if nseg < 1 {
		nseg = 1
	}
	segs := buf.SplitEven(nseg)
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	var pending *Request
	for s := 0; s < nseg; s++ {
		if vr > 0 {
			segs[s] = c.irecvTag(prev, c.tag(seq, int64(s))).Wait(r)
		}
		if vr < p-1 {
			if pending != nil {
				pending.Wait(r)
			}
			pending = c.isendTag(next, c.tag(seq, int64(s)), segs[s])
		}
	}
	if pending != nil {
		pending.Wait(r)
	}
	return Concat(segs...)
}

// Reduce combines every rank's buffer with op at the root (binomial tree);
// non-root ranks receive a zero-value Buf.
func (c *Comm) Reduce(r *Rank, root int, mine Buf, op ReduceOp) Buf {
	mine.check()
	p := len(c.group)
	if p == 1 {
		return mine.Clone()
	}
	seq := c.nextSeq()
	start := r.Now()
	vr := (c.rank - root + p) % p
	acc := mine.Clone()
	mask := 1
	for mask < p {
		if vr&mask == 0 {
			childVr := vr + mask
			if childVr < p {
				src := (childVr + root) % p
				in := c.irecvTag(src, c.tag(seq, int64(mask))).Wait(r)
				acc = Combine(op, acc, in)
			}
		} else {
			dst := (vr - mask + root) % p
			c.isendTag(dst, c.tag(seq, int64(mask)), acc).Wait(r)
			acc = Buf{}
			break
		}
		mask <<= 1
	}
	c.trace(r, "Reduce", mine.Bytes, start)
	if c.rank == root {
		return acc
	}
	return Buf{}
}

// Gather collects every rank's buffer at the root along a binomial tree
// (subtree payloads are aggregated at each hop); the root returns recv with
// recv[i] = rank i's buffer, others return nil.
func (c *Comm) Gather(r *Rank, root int, mine Buf) []Buf {
	mine.check()
	p := len(c.group)
	seq := c.nextSeq()
	start := r.Now()
	vr := (c.rank - root + p) % p
	// blocks[j] is the buffer of relative rank vr+j collected so far.
	blocks := map[int]Buf{0: mine.Clone()}
	span := 1 // subtree size gathered so far
	mask := 1
	for mask < p {
		if vr&mask == 0 {
			childVr := vr + mask
			if childVr < p {
				src := (childVr + root) % p
				in := c.irecvTag(src, c.tag(seq, int64(mask))).Wait(r)
				childSpan := min(mask, p-childVr)
				parts := splitAsCounts(in, childSpan)
				for j := 0; j < childSpan; j++ {
					blocks[mask+j] = parts[j]
				}
				span = mask + childSpan
			}
		} else {
			// Ship the whole gathered subtree to the parent.
			parts := make([]Buf, span)
			for j := 0; j < span; j++ {
				parts[j] = blocks[j]
			}
			dst := (vr - mask + root) % p
			c.isendTag(dst, c.tag(seq, int64(mask)), Concat(parts...)).Wait(r)
			blocks = nil
			break
		}
		mask <<= 1
	}
	c.trace(r, "Gather", mine.Bytes, start)
	if c.rank != root {
		return nil
	}
	recv := make([]Buf, p)
	for j := 0; j < p; j++ {
		recv[(j+root)%p] = blocks[j]
	}
	return recv
}

// splitAsCounts splits an aggregated subtree payload back into n equal
// blocks (all Gather payloads are uniform in this codebase).
func splitAsCounts(b Buf, n int) []Buf {
	return b.SplitEven(n)
}
