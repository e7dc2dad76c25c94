// Package procset implements the paper's §5 proposal that "MPI runtimes
// could offer the possible rank orderings as process sets available as MPI
// sessions, introduced in Version 4 of the MPI standard": a registry of
// named process sets, one per mixed-radix order of the machine hierarchy,
// plus semantic aliases (packed, spread, per-level cyclic distributions).
//
// Process-set URIs follow the MPI sessions convention:
//
//	mpi://world                      the initial enumeration
//	mrr://order/0-1-2-3              explicit order
//	mrr://packed                     [k-1 … 0] (block:block, the identity)
//	mrr://spread                     [0 … k-1] (every level cyclic)
//	mrr://cyclic/<level>             the named level enumerated fastest,
//	                                 the rest in packed order
package procset

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/topology"
)

// ErrUnknownSet reports a URI not present in the registry.
var ErrUnknownSet = errors.New("procset: unknown process set")

// Set is one named rank ordering of the machine.
type Set struct {
	URI   string
	Order []int
	ro    *reorder.Reordering
}

// Size returns the number of processes of the set.
func (s *Set) Size() int { return s.ro.Size() }

// SplitKey returns the key a world rank passes to MPI_Comm_split to adopt
// this set's numbering.
func (s *Set) SplitKey(worldRank int) int { return s.ro.SplitKey(worldRank) }

// Binding returns the rank→core binding realizing the set via a rankfile.
func (s *Set) Binding() []int { return s.ro.Binding() }

// Characterize returns the §3.3 metrics of the set's first
// subcommunicator of the given size.
func (s *Set) Characterize(commSize int) (metrics.Characterization, error) {
	return metrics.Characterize(s.ro.Hierarchy(), s.Order, commSize)
}

// Registry holds the process sets of one machine hierarchy.
type Registry struct {
	h    topology.Hierarchy
	sets map[string]*Set
	uris []string
}

// NewRegistry enumerates all k! orders of the hierarchy (k ≤ 6 to keep the
// registry bounded) and registers the canonical URIs.
func NewRegistry(h topology.Hierarchy) (*Registry, error) {
	k := h.Depth()
	if k > 6 {
		return nil, fmt.Errorf("procset: refusing to enumerate %d! process sets", k)
	}
	r := &Registry{h: h, sets: make(map[string]*Set)}
	for _, sigma := range perm.All(k) {
		uri := "mrr://order/" + perm.Format(sigma)
		if err := r.add(uri, sigma); err != nil {
			return nil, err
		}
	}
	// Aliases.
	if err := r.alias("mpi://world", perm.Reversed(k)); err != nil {
		return nil, err
	}
	if err := r.alias("mrr://packed", perm.Reversed(k)); err != nil {
		return nil, err
	}
	if err := r.alias("mrr://spread", perm.Identity(k)); err != nil {
		return nil, err
	}
	for level, name := range h.Names() {
		// Level `level` fastest, remaining levels packed (innermost next).
		sigma := make([]int, 0, k)
		sigma = append(sigma, level)
		for l := k - 1; l >= 0; l-- {
			if l != level {
				sigma = append(sigma, l)
			}
		}
		if err := r.alias("mrr://cyclic/"+name, sigma); err != nil {
			return nil, err
		}
	}
	sort.Strings(r.uris)
	return r, nil
}

func (r *Registry) add(uri string, sigma []int) error {
	ro, err := reorder.New(r.h, sigma)
	if err != nil {
		return err
	}
	r.sets[uri] = &Set{URI: uri, Order: append([]int(nil), sigma...), ro: ro}
	r.uris = append(r.uris, uri)
	return nil
}

// alias registers uri pointing at the same underlying set as the explicit
// order URI (creating it if the hierarchy has duplicate level names).
func (r *Registry) alias(uri string, sigma []int) error {
	target := "mrr://order/" + perm.Format(sigma)
	if s, ok := r.sets[target]; ok {
		r.sets[uri] = s
		r.uris = append(r.uris, uri)
		return nil
	}
	return r.add(uri, sigma)
}

// Hierarchy returns the registry's machine hierarchy.
func (r *Registry) Hierarchy() topology.Hierarchy { return r.h }

// Names returns every registered URI, sorted.
func (r *Registry) Names() []string { return append([]string(nil), r.uris...) }

// Lookup resolves a URI. A bare order like "0-1-2" is accepted as
// shorthand for mrr://order/0-1-2.
func (r *Registry) Lookup(uri string) (*Set, error) {
	if s, ok := r.sets[uri]; ok {
		return s, nil
	}
	if !strings.Contains(uri, "://") {
		if s, ok := r.sets["mrr://order/"+uri]; ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownSet, uri)
}
