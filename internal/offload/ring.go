package offload

import "dsasim/internal/dsa"

// ringEntry is one queued plane submission: the descriptor by value and
// the tag (latency stamp and retry attempt, see stampTag) it carries to
// the completion hook.
type ringEntry struct {
	d   dsa.Descriptor
	tag uint64
}

// submitRing is the bounded FIFO a plane keeps in front of one WQ. The
// simulation runs every process on one goroutine, so plain head and tail
// indices suffice; the virtual-time cost of the hardware's lock-free
// publish is charged separately (Timing.RingPush through a sim.Token).
// Entries hold descriptors by value, so push and pop allocate nothing.
type submitRing struct {
	mask       uint64
	slots      []ringEntry
	head, tail uint64
}

// newSubmitRing builds a ring with at least the given capacity, rounded up
// to a power of two (minimum 2) so index math is a mask.
func newSubmitRing(capacity int) submitRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return submitRing{mask: uint64(n - 1), slots: make([]ringEntry, n)}
}

// capacity returns the number of slots.
func (r *submitRing) capacity() int { return len(r.slots) }

// length returns the entries currently queued.
func (r *submitRing) length() int { return int(r.tail - r.head) }

// push enqueues one descriptor, returning false when the ring is full.
func (r *submitRing) push(d dsa.Descriptor, tag uint64) bool {
	if r.length() == len(r.slots) {
		return false
	}
	r.slots[r.tail&r.mask] = ringEntry{d: d, tag: tag}
	r.tail++
	return true
}

// pop dequeues the oldest entry, returning ok false when the ring is empty.
func (r *submitRing) pop() (ringEntry, bool) {
	if r.head == r.tail {
		return ringEntry{}, false
	}
	slot := &r.slots[r.head&r.mask]
	e := *slot
	*slot = ringEntry{} // drop the descriptor's references
	r.head++
	return e, true
}
