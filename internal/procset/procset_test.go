package procset

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/perm"
	"repro/internal/topology"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(topology.MustNew(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryEnumeratesAllOrders(t *testing.T) {
	r := testRegistry(t)
	count := 0
	for _, uri := range r.Names() {
		if strings.HasPrefix(uri, "mrr://order/") {
			count++
		}
	}
	if count != 6 {
		t.Errorf("%d explicit orders, want 6", count)
	}
}

func TestWorldAliasIsIdentity(t *testing.T) {
	r := testRegistry(t)
	s, err := r.Lookup("mpi://world")
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < s.Size(); rank++ {
		if s.SplitKey(rank) != rank {
			t.Errorf("world set moved rank %d to %d", rank, s.SplitKey(rank))
		}
	}
	packed, err := r.Lookup("mrr://packed")
	if err != nil {
		t.Fatal(err)
	}
	if !perm.Equal(packed.Order, s.Order) {
		t.Error("packed alias differs from world")
	}
}

func TestSpreadAlias(t *testing.T) {
	r := testRegistry(t)
	s, err := r.Lookup("mrr://spread")
	if err != nil {
		t.Fatal(err)
	}
	if !perm.Equal(s.Order, []int{0, 1, 2}) {
		t.Errorf("spread order = %v", s.Order)
	}
	// Figure 2a: world rank 1 gets key 4 under the spread order.
	if s.SplitKey(1) != 4 {
		t.Errorf("spread SplitKey(1) = %d, want 4", s.SplitKey(1))
	}
}

func TestCyclicLevelAliases(t *testing.T) {
	r := testRegistry(t)
	for _, name := range []string{"node", "socket", "core"} {
		s, err := r.Lookup("mrr://cyclic/" + name)
		if err != nil {
			t.Fatalf("cyclic/%s: %v", name, err)
		}
		if len(s.Order) != 3 {
			t.Fatalf("cyclic/%s order %v", name, s.Order)
		}
	}
	// cyclic/node must be [0, 2, 1]: nodes fastest, then cores, sockets.
	s, _ := r.Lookup("mrr://cyclic/node")
	if !perm.Equal(s.Order, []int{0, 2, 1}) {
		t.Errorf("cyclic/node order = %v, want [0 2 1]", s.Order)
	}
	// cyclic/core is the identity enumeration (cores already vary fastest).
	s, _ = r.Lookup("mrr://cyclic/core")
	if !perm.Equal(s.Order, []int{2, 1, 0}) {
		t.Errorf("cyclic/core order = %v, want [2 1 0]", s.Order)
	}
}

func TestLookupShorthandAndErrors(t *testing.T) {
	r := testRegistry(t)
	s, err := r.Lookup("0-1-2")
	if err != nil {
		t.Fatal(err)
	}
	if s.URI != "mrr://order/0-1-2" {
		t.Errorf("shorthand resolved to %q", s.URI)
	}
	if _, err := r.Lookup("mrr://nope"); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("unknown URI error = %v", err)
	}
	if _, err := r.Lookup("9-9-9"); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("bad shorthand error = %v", err)
	}
}

func TestSetBindingMatchesReorder(t *testing.T) {
	r := testRegistry(t)
	s, err := r.Lookup("mrr://order/0-1-2")
	if err != nil {
		t.Fatal(err)
	}
	b := s.Binding()
	// binding[new] = old: new rank 4 sits on core 1 (Figure 2a).
	if b[4] != 1 {
		t.Errorf("binding[4] = %d, want 1", b[4])
	}
	if s.Size() != 16 {
		t.Errorf("Size = %d", s.Size())
	}
}

func TestCharacterize(t *testing.T) {
	r := testRegistry(t)
	s, err := r.Lookup("mrr://spread")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Characterize(4)
	if err != nil {
		t.Fatal(err)
	}
	if ch.RingCost != 9 {
		t.Errorf("spread ring cost = %d, want 9 (§3.3)", ch.RingCost)
	}
}

func TestRegistryDepthLimit(t *testing.T) {
	if _, err := NewRegistry(topology.MustNew(2, 2, 2, 2, 2, 2, 2)); err == nil {
		t.Error("depth-7 registry accepted")
	}
}
