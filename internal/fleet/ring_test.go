package fleet

import (
	"sort"
	"strconv"
	"testing"
)

func TestSequenceCoversAllReplicasOnce(t *testing.T) {
	r := NewRing(5, 0)
	for k := 0; k < 50; k++ {
		key := "key-" + strconv.Itoa(k)
		seq := r.Sequence(key)
		if len(seq) != 5 {
			t.Fatalf("key %q: sequence %v has %d entries, want 5", key, seq, len(seq))
		}
		seen := map[int]bool{}
		for _, i := range seq {
			if i < 0 || i >= 5 || seen[i] {
				t.Fatalf("key %q: sequence %v is not a permutation of replicas", key, seq)
			}
			seen[i] = true
		}
		if home := r.Home(key); home != seq[0] {
			t.Fatalf("key %q: Home() = %d but Sequence()[0] = %d", key, home, seq[0])
		}
	}
}

func TestRingDeterministicAcrossInstances(t *testing.T) {
	a, b := NewRing(4, 64), NewRing(4, 64)
	for k := 0; k < 100; k++ {
		key := "q" + strconv.Itoa(k)
		sa, sb := a.Sequence(key), b.Sequence(key)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("key %q: rings disagree: %v vs %v", key, sa, sb)
			}
		}
	}
}

// Keys should spread across replicas roughly evenly — the warm-cache
// locality argument collapses if one replica owns most of the key space.
func TestRingBalance(t *testing.T) {
	const n, keys = 3, 3000
	r := NewRing(n, 0)
	counts := make([]int, n)
	for k := 0; k < keys; k++ {
		counts[r.Home("matrix|digest-"+strconv.Itoa(k))]++
	}
	for i, c := range counts {
		frac := float64(c) / keys
		if frac < 0.20 || frac > 0.47 {
			t.Errorf("replica %d owns %.1f%% of keys (counts %v), outside [20%%, 47%%]", i, 100*frac, counts)
		}
	}
}

// Removing one replica from the candidate set must not move keys homed on
// the survivors: consistent hashing's whole point. The router's candidate
// filter preserves ring order, so the first surviving replica in a key's
// sequence is its post-failure owner.
func TestRingStabilityUnderFailure(t *testing.T) {
	r := NewRing(4, 0)
	const dead = 2
	moved := 0
	for k := 0; k < 500; k++ {
		seq := r.Sequence("key-" + strconv.Itoa(k))
		owner := seq[0]
		if owner == dead {
			continue // those keys must move; everyone else's must not
		}
		surviving := owner
		for _, i := range seq {
			if i != dead {
				surviving = i
				break
			}
		}
		if surviving != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys homed on survivors moved when replica %d died", moved, dead)
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing(0, 0)
	if seq := r.Sequence("x"); seq != nil {
		t.Errorf("empty ring Sequence = %v, want nil", seq)
	}
	if home := r.Home("x"); home != -1 {
		t.Errorf("empty ring Home = %d, want -1", home)
	}
}

// Home returns the key's first-choice replica.
func (r *Ring) Home(key string) int {
	if r.n <= 0 {
		return -1
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[start%len(r.points)].replica
}
