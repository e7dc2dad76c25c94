package mpi

import (
	"math/rand"
	"testing"
)

// channels counts the channels of the mailbox addressed to dst.
func (m *mailbox) channels(dst int) int {
	n := 0
	for _, c := range m.slots {
		if c.head != nil && c.key.dst == dst {
			n++
		}
	}
	return n
}

// The open-addressed mailbox behaves like a map of FIFOs under any
// sequence of puts and takes, including removals whose probe runs wrap
// around the end of the table, and every live channel stays reachable from
// its home slot.
func TestMailboxMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Seven channels fit a 16-slot table at most half full, so it never
	// grows. Three of them want its last slot and two the one before, so
	// their probe runs wrap to the front and removals shift entries back
	// across the end; the rest are spread anywhere.
	var keys []chanKey
	for _, home := range []int{15, 15, 15, 14, 14, -1, -1} {
		for {
			k := chanKey{dst: rng.Intn(64), src: rng.Intn(64), tag: -rng.Int63n(1 << 50)}
			if home < 0 || k.home(15) == home {
				keys = append(keys, k)
				break
			}
		}
	}
	var m mailbox
	oracle := map[chanKey][]*Request{}
	wrapped, removed := 0, 0
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(len(keys))]
		recv := rng.Intn(2) == 0
		if q := oracle[k]; len(q) > 0 && rng.Intn(4) > 0 {
			recv = q[0].recv // mostly a matching take, so channels empty and go
		}
		if rng.Intn(5) < 2 {
			req := &Request{recv: recv}
			m.put(k, req)
			oracle[k] = append(oracle[k], req)
		} else {
			got := m.take(k, recv)
			var want *Request
			if q := oracle[k]; len(q) > 0 && q[0].recv == recv {
				want = q[0]
				if oracle[k] = q[1:]; len(oracle[k]) == 0 {
					delete(oracle, k)
				}
			}
			if got != want {
				t.Fatalf("step %d: take(%v, recv=%v) = %p, oracle %p", step, k, recv, got, want)
			}
			if want != nil && oracle[k] == nil {
				removed++
			}
		}
		if m.n != len(oracle) {
			t.Fatalf("step %d: mailbox holds %d channels, oracle %d", step, m.n, len(oracle))
		}
		live := 0
		mask := len(m.slots) - 1
		for i, c := range m.slots {
			if c.head == nil {
				continue
			}
			live++
			if m.find(c.key) != i {
				t.Fatalf("step %d: channel %v in slot %d is not reachable from its home %d", step, c.key, i, c.key.home(mask))
			}
			if i < c.key.home(mask) {
				wrapped++
			}
			j := 0
			for req := c.head; req != nil; req = req.next {
				if q := oracle[c.key]; j >= len(q) || q[j] != req {
					t.Fatalf("step %d: channel %v differs from the oracle at position %d", step, c.key, j)
				}
				j++
			}
			if j != len(oracle[c.key]) || c.tail != oracle[c.key][j-1] {
				t.Fatalf("step %d: channel %v holds %d operations, oracle %d", step, c.key, j, len(oracle[c.key]))
			}
		}
		if live != m.n {
			t.Fatalf("step %d: %d live slots, count says %d", step, live, m.n)
		}
	}
	if wrapped == 0 || removed < 1000 {
		t.Errorf("%d wrapped placements and %d channel removals: the sequence does not exercise the table", wrapped, removed)
	}
}

// A warmed latency-only round trip — a zero-byte message there and back —
// allocates nothing per trip: the arrivals are the requests' own
// conditions, the instants and mailbox slots are reused, and request
// records come from the world's slab, one allocation per 256 of them.
func TestWarmRoundTripAllocatesNothing(t *testing.T) {
	const trips = 1000
	var allocs float64
	_, err := Run(testSpec16(), identityBinding(2), Config{}, func(r *Rank) {
		w, peer := r.World(), 1-r.ID()
		if r.ID() == 1 {
			for i := 0; i < trips+1; i++ {
				w.Send(r, peer, 0, w.Recv(r, peer, 0))
			}
			return
		}
		allocs = testing.AllocsPerRun(trips, func() {
			w.Send(r, peer, 0, BytesBuf(0))
			w.Recv(r, peer, 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per warmed round trip, want 0", allocs)
	}
}
