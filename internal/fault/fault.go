// Package fault provides deterministic fault injection for the simulated
// cluster: a seeded fault plan (parsed from a small DSL or JSON) describing
// node crashes, rank stragglers, and per-level link degradation at exact
// virtual times, plus the typed errors surfaced when a collective runs over
// a degraded world.
//
// The plan is pure data — the MPI runtime (internal/mpi) interprets it
// against a concrete world via World.ApplyFaults.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// ErrRankLost is the sentinel matched by errors.Is when an MPI operation
// fails because a peer (or the calling rank's communicator) was lost to a
// crash. The concrete error is always a *RankLostError naming the rank.
var ErrRankLost = errors.New("fault: rank lost")

// RankLostError reports an MPI operation that cannot complete because one
// or more ranks crashed. It unwraps to ErrRankLost.
type RankLostError struct {
	// Rank is the first world rank whose loss failed the operation.
	Rank int
	// Node is the node that rank lived on (-1 when unknown).
	Node int
	// At is the virtual time (seconds) of the crash.
	At float64
	// Op is the MPI operation that observed the loss ("Send", "Recv",
	// "Allreduce", ...; empty when unknown).
	Op string
	// Ranks lists every world rank lost so far, ascending.
	Ranks []int
}

func (e *RankLostError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault: rank %d lost", e.Rank)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " (node %d)", e.Node)
	}
	fmt.Fprintf(&b, " at t=%.6fs", e.At)
	if e.Op != "" {
		fmt.Fprintf(&b, " during %s", e.Op)
	}
	if len(e.Ranks) > 1 {
		fmt.Fprintf(&b, "; %d ranks lost total %v", len(e.Ranks), e.Ranks)
	}
	return b.String()
}

func (e *RankLostError) Unwrap() error { return ErrRankLost }

// Catch runs body and intercepts the abort the MPI runtime raises when an
// operation fails with ErrRankLost, returning it as an ordinary error so a
// surviving rank can observe the loss and stop. Any other panic —
// including the engine-internal value used to terminate crashed processes
// — propagates unchanged.
func Catch(body func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if a, ok := r.(sim.Abort); ok && errors.Is(a.Err, ErrRankLost) {
			err = a.Err
			return
		}
		panic(r)
	}()
	body()
	return nil
}

// LostRanks formats a sorted rank list for diagnostics ("ranks 3,7 lost").
func LostRanks(ranks []int) string {
	if len(ranks) == 0 {
		return ""
	}
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, r := range sorted {
		parts[i] = fmt.Sprint(r)
	}
	noun := "ranks"
	if len(sorted) == 1 {
		noun = "rank"
	}
	return fmt.Sprintf("%s %s lost to fault injection", noun, strings.Join(parts, ","))
}
