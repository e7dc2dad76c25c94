// Fault injection against a live world: crashing ranks and nodes, slowing
// stragglers, degrading link levels — all at exact virtual times from a
// deterministic fault.Plan — and the communicator revocation that turns a
// crash into a typed abort instead of a hang.
//
// Semantics on a crash of world rank f at virtual time t:
//
//   - f's process is killed: if parked on an operation it never resumes,
//     and its coroutine exits cleanly.
//   - Every communicator created before the crash is revoked (the world
//     epoch is bumped). Any subsequent operation on a revoked communicator
//     aborts with an error wrapping fault.ErrRankLost naming f, so no rank
//     can silently keep collective sequence numbers that the dead member
//     will never match.
//   - Every unmatched receive posted against f, and every unmatched
//     rendezvous send addressed to f, is failed: blocked survivors wake
//     and abort with the same typed error. Transfers already matched and
//     in flight complete — the bytes were on the wire.
//
// Everything here — the fault actions, which run as event callbacks, and
// the guard every communicator operation enters through — runs inside
// whichever rank the engine resumed last, one at a time, so the world's
// state needs no lock.

package mpi

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ApplyFaults schedules the plan's events against the world. Call after
// Spawn and before the engine runs; a nil or empty plan is a no-op. The
// plan's seed and hash are recorded in the obs scope's run metadata so
// exported traces and metrics identify the exact degraded configuration.
func (w *World) ApplyFaults(plan *fault.Plan) error {
	if plan.Empty() {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	w.faulty = true
	if sc := w.cfg.Obs; sc != nil {
		sc.SetMeta("fault_seed", fmt.Sprint(plan.Seed))
		sc.SetMeta("fault_plan_hash", plan.Hash())
		sc.SetMeta("fault_plan", plan.String())
	}
	for _, ev := range plan.Materialize(w.Size(), w.coresPerNode) {
		ev := ev
		switch ev.Kind {
		case fault.KindRank:
			w.engine.At(ev.At, func() { w.killRank(ev.Target) })
		case fault.KindNode:
			w.engine.At(ev.At, func() { w.killNode(ev.Target) })
		case fault.KindStraggle:
			if ev.At == 0 {
				// Processes are released at t=0 before any event fires, so
				// a t=0 straggler must be slow from its very first step.
				w.straggle[ev.Target] = ev.Factor
				continue
			}
			w.engine.At(ev.At, func() { w.straggleRank(ev.Target, ev.Factor) })
		case fault.KindLink:
			w.engine.At(ev.At, func() { w.degradeLevel(ev.Level, ev.Factor) })
		}
	}
	return nil
}

// stretch returns the latency stretch for a message between two ranks: the
// slower endpoint's straggle factor.
func (w *World) stretch(src, dst int) float64 {
	if !w.faulty {
		return 1
	}
	s := w.straggle[src]
	if d := w.straggle[dst]; d > s {
		s = d
	}
	return s
}

// LostRanks returns the crashed world ranks, ascending.
func (w *World) LostRanks() []int {
	out := slices.Clone(w.lostList)
	slices.Sort(out)
	return out
}

// rankLostErr builds the typed error for an operation failed by the
// loss of the given rank.
func (w *World) rankLostErr(op string, rank int, at float64) error {
	return &fault.RankLostError{
		Rank:  rank,
		Node:  w.nodeOf(w.binding[rank]),
		At:    at,
		Op:    op,
		Ranks: w.LostRanks(),
	}
}

// revokedErr builds the typed error for an operation on a revoked
// communicator; it names the most recent crash.
func (w *World) revokedErr(op string) error {
	e := w.lastLoss // copy
	e.Op = op
	e.Ranks = w.LostRanks()
	return fmt.Errorf("mpi: communicator revoked: %w", &e)
}

// killNode crashes every rank bound to a core of the node. Runs in
// event-callback context.
func (w *World) killNode(node int) {
	for r, core := range w.binding {
		if w.nodeOf(core) == node {
			w.killRank(r)
		}
	}
}

// killRank crashes one world rank. Runs in event-callback context.
func (w *World) killRank(rank int) {
	now := w.engine.Now()
	if w.lost[rank] {
		return
	}
	w.lost[rank] = true
	w.lostList = append(w.lostList, rank)
	w.epoch++
	w.lastLoss = fault.RankLostError{Rank: rank, Node: w.nodeOf(w.binding[rank]), At: now}

	// Kill the process first: if it was parked, it wakes exactly once (to
	// die), and the condition failures below cannot double-wake it.
	w.procs[rank].Kill()

	// Poison every unmatched point-to-point operation, world-wide. All of
	// them belong to communicators created before this crash — which are
	// all revoked now — so none can legally match again: a pre-crash
	// receive can only be matched by a peer's later send, and that send is
	// stopped by the revocation guard. Failing them here is what keeps a
	// survivor blocked on another survivor (which aborted out of the same
	// collective) from hanging: it wakes with the typed error. Matched
	// transfers already in flight complete — the bytes were on the wire.
	// Conditions collect first and fail after the queues are consistent,
	// in a fixed order (destination, source, tag; then call site) so that
	// survivors wake in the same order on every replay.
	var failed []*sim.Condition
	for _, c := range w.mail.drain() {
		for req := c.head; req != nil; req = req.next {
			if req.recv || !req.started {
				failed = append(failed, &req.cond)
			}
		}
	}
	// Pending splits can never complete: a member is gone and the
	// communicator is revoked either way.
	for _, sk := range sortedCallSites(w.splits) {
		failed = append(failed, w.splits[sk].done)
	}
	clear(w.splits)
	err := w.rankLostErr("", rank, now)
	w.engine.SetDeadlockNote(fault.LostRanks(w.LostRanks()))

	if sc := w.cfg.Obs; sc != nil {
		core := w.binding[rank]
		sc.Instant(w.nodeOf(core), rank, "fault:crash", "fault", now,
			obs.Arg{Key: "rank", Val: int64(rank)},
			obs.Arg{Key: "core", Val: int64(core)})
	}

	for _, c := range failed {
		c.Fail(err)
	}
}

// straggleRank applies a slowdown factor to one rank. Runs in
// event-callback context.
func (w *World) straggleRank(rank int, factor float64) {
	w.straggle[rank] = factor
	if sc := w.cfg.Obs; sc != nil {
		core := w.binding[rank]
		sc.Instant(w.nodeOf(core), rank, "fault:straggle", "fault", w.engine.Now(),
			obs.Arg{Key: "rank", Val: int64(rank)},
			obs.Arg{Key: "factor_x1000", Val: int64(factor * 1000)})
	}
}

// degradeLevel degrades every link at one hierarchy level. Runs in
// event-callback context.
func (w *World) degradeLevel(level int, factor float64) {
	w.platform.DegradeLevel(level, factor)
	if sc := w.cfg.Obs; sc != nil {
		sc.Instant(0, 0, "fault:link", "fault", w.engine.Now(),
			obs.Arg{Key: "level", Val: int64(level)},
			obs.Arg{Key: "factor_x1000", Val: int64(factor * 1000)})
	}
}

// guard aborts the calling rank if the communicator was revoked by a crash
// or the addressed peer (world rank; pass -1 for none) is dead. It is the
// entry check of every communicator operation, skipped entirely on a
// perfect machine.
func (c *Comm) guard(op string, peerWorld int) {
	w := c.w
	if !w.faulty {
		return
	}
	var err error
	switch {
	case c.epoch != w.epoch:
		err = w.revokedErr(op)
	case peerWorld >= 0 && w.lost[peerWorld]:
		err = fmt.Errorf("mpi: %w", w.rankLostErr(op, peerWorld, w.lastLoss.At))
	}
	if err != nil {
		panic(sim.Abort{Err: err})
	}
}

// sortedCallSites returns the keys of the pending-split table in
// (communicator, sequence) order.
func sortedCallSites(m map[callSite]*splitState) []callSite {
	keys := make([]callSite, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b callSite) int { return cmp.Or(a.commID-b.commID, cmp.Compare(a.seq, b.seq)) })
	return keys
}
