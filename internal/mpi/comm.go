// Communicators: groups of ranks with their own rank numbering, created by
// splitting an existing communicator with a colour and key exactly like
// MPI_Comm_split — the paper's rank-reordering method (§3.2) passes the
// reordered rank as the key when splitting the world communicator.

package mpi

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Comm is a communicator: an ordered group of world ranks. Methods must be
// called from the body of the rank passed as the first argument, and
// every member must call each collective in the same order.
type Comm struct {
	w     *World
	id    int
	group []int // comm rank -> world rank
	rank  int   // calling rank's position in group
	seq   int64 // per-member collective sequence (identical across members)
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Rank returns the calling rank's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// ID returns the communicator's id (0 for the world communicator).
func (c *Comm) ID() int { return c.id }

// tag builds a matching tag private to this communicator and operation
// sequence number; user point-to-point tags live in the non-negative space.
func (c *Comm) tag(seq int64, phase int64) int64 {
	return -(1 + int64(c.id)<<40 | seq<<8 | phase)
}

// nextSeq advances the collective sequence counter for the calling rank.
func (c *Comm) nextSeq() int64 {
	c.seq++
	return c.seq
}

// internal isend/irecv with collective-private tags.
func (c *Comm) isendTag(dst int, t int64, buf Buf) *Request {
	return c.w.isend(c.group[c.rank], c.group[dst], t, buf)
}

func (c *Comm) irecvTag(src int, t int64) *Request {
	return c.w.irecv(c.group[c.rank], c.group[src], t)
}

// callSite identifies one call of a collective that matches its members
// up in a table (Split): every member executes the same collective
// sequence, so (comm, seq) names the call.
type callSite struct {
	commID int
	seq    int64
}

type splitState struct {
	entries []splitEntry
	done    *sim.Condition
	result  map[int]*commSpec // world rank -> new communicator layout
}

type splitEntry struct {
	worldRank int
	color     int
	key       int
}

type commSpec struct {
	id    int
	group []int
	rank  int
}

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same colour form a new communicator, ordered by (key, old rank). It
// returns nil for colour < 0 (MPI_UNDEFINED). Split itself is free in
// virtual time (its handshake cost is negligible in every experiment).
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	seq := c.nextSeq()
	w := c.w
	me := c.group[c.rank]

	sk := callSite{commID: c.id, seq: seq}
	st := w.splits[sk]
	if st == nil {
		st = &splitState{done: w.engine.NewCondition()}
		w.splits[sk] = st
	}
	st.entries = append(st.entries, splitEntry{worldRank: me, color: color, key: key})
	if len(st.entries) == len(c.group) {
		// Last arriver computes the split.
		st.result = make(map[int]*commSpec)
		byColor := map[int][]splitEntry{}
		for _, e := range st.entries {
			if e.color >= 0 {
				byColor[e.color] = append(byColor[e.color], e)
			}
		}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			es := byColor[col]
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].worldRank < es[j].worldRank
			})
			id := w.commSeq
			w.commSeq++
			group := make([]int, len(es))
			for i, e := range es {
				group[i] = e.worldRank
			}
			for i, e := range es {
				st.result[e.worldRank] = &commSpec{id: id, group: group, rank: i}
			}
		}
		delete(w.splits, sk)
		st.done.Fire()
	} else {
		st.done.AwaitOp(r.proc, "Split", -1, 0)
	}
	// All members observe the computed result.
	spec := st.result[me]
	if spec == nil {
		return nil
	}
	return &Comm{w: w, id: spec.id, group: spec.group, rank: spec.rank}
}

// Dup returns a communicator with the same group and a fresh id.
func (c *Comm) Dup(r *Rank) *Comm {
	return c.Split(r, 0, c.rank)
}

// Barrier blocks until every rank of the communicator has entered, using
// the dissemination algorithm's zero-byte message rounds so that its cost
// reflects the members' placement.
func (c *Comm) Barrier(r *Rank) {
	p := len(c.group)
	if p == 1 {
		return
	}
	seq := c.nextSeq()
	start := r.Now()
	for k, round := 1, int64(0); k < p; k, round = k*2, round+1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		t := c.tag(seq, round)
		rr := c.irecvTag(src, t)
		sr := c.isendTag(dst, t, BytesBuf(0))
		rr.Wait(r)
		sr.Wait(r)
	}
	c.trace(r, "Barrier", 0, start)
}

// trace reports a finished collective to the observability scope: one
// span per op on the rank's track, carrying its communicator, size and
// bytes (the per-communicator record mpisee keeps in §4.2). Disabled, it
// costs one predictable branch.
func (c *Comm) trace(r *Rank, op string, bytes int64, start float64) {
	sc := c.w.cfg.Obs
	if sc == nil {
		return
	}
	w := c.w
	sc.Span(w.nodeOf(w.binding[r.id]), r.id, op, "coll", start, r.Now(),
		obs.Arg{Key: "comm", Val: int64(c.id)},
		obs.Arg{Key: "comm_size", Val: int64(len(c.group))},
		obs.Arg{Key: "bytes", Val: bytes})
}
