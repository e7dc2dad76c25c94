// The world's mailbox: every unmatched operation, found by its channel.

package mpi

// chanKey names a channel: the messages from src to dst with one tag.
type chanKey struct {
	dst, src int
	tag      int64
}

// home is the key's preferred slot in a table of mask+1 slots.
func (k chanKey) home(mask int) int {
	h := uint64(k.dst)*0x9e3779b97f4a7c15 ^ uint64(k.src)*0xc2b2ae3d27d4eb4f ^ uint64(k.tag)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h) & mask
}

// channel is the FIFO of one channel's unmatched operations, all sends or all
// receives, linked through Request.next; a slot with a nil head is free.
type channel struct {
	key        chanKey
	head, tail *Request
}

// mailbox is an open-addressed hash table of channels with linear probing,
// at most half full. Deletion shifts the rest of the probe run back, so
// there are no tombstones and a lookup stops at the first free slot.
type mailbox struct {
	slots []channel // len is a power of two
	n     int
}

// find returns the slot of k, or the free slot ending its probe run.
func (m *mailbox) find(k chanKey) int {
	mask := len(m.slots) - 1
	i := k.home(mask)
	for m.slots[i].head != nil && m.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// take removes and returns the oldest unmatched operation of the wanted
// kind on channel k, or nil when there is none.
func (m *mailbox) take(k chanKey, recv bool) *Request {
	if m.n == 0 {
		return nil
	}
	i := m.find(k)
	req := m.slots[i].head
	if req == nil || req.recv != recv {
		return nil
	}
	if m.slots[i].head = req.next; req.next == nil {
		m.remove(i)
	}
	req.next = nil
	return req
}

// put appends an unmatched operation to channel k.
func (m *mailbox) put(k chanKey, req *Request) {
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]channel, max(16, 2*len(old)))
		for _, c := range old {
			if c.head != nil {
				m.slots[m.find(c.key)] = c
			}
		}
	}
	c := &m.slots[m.find(k)]
	if c.head == nil {
		*c = channel{key: k, head: req}
		m.n++
	} else {
		c.tail.next = req
	}
	c.tail = req
}

// remove frees slot i and moves back every later entry of its probe run
// whose home does not lie cyclically in (i, j].
func (m *mailbox) remove(i int) {
	mask := len(m.slots) - 1
	m.n--
	for j := (i + 1) & mask; m.slots[j].head != nil; j = (j + 1) & mask {
		if h := m.slots[j].key.home(mask); (j-h)&mask >= (j-i)&mask {
			m.slots[i], i = m.slots[j], j
		}
	}
	m.slots[i] = channel{}
}
