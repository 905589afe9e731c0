package telemetry

import (
	"fmt"

	"dsasim/internal/sim"
)

// ID names one registered stream within a Hub.
type ID int

// shardBuf is the shard-local buffer depth. 64 samples keeps the common
// case (a policy read every few microseconds draining a handful of
// completions) entirely within one flush, while bounding how stale a
// digest can be to one buffer's worth of events between reads.
const shardBuf = 64

// sample is one buffered recording: which stream, when, what value.
type sample struct {
	id ID
	at sim.Time
	v  int64
}

// Hub owns the registered streams and their digests. Streams are created
// up front (Stream), recorded into through Shards, and read through
// Digest views; Sync merges every shard's buffered samples into the
// digests in global timestamp order (ties broken by shard registration
// order), so a given recording history always merges the same way
// regardless of which shard recorded what or when reads happen — the
// order-sensitive views (EWMA) are as deterministic as the commutative
// ones.
type Hub struct {
	window  sim.Time
	names   []string
	digests []*Digest
	shards  []*Shard

	// cadence, when positive, rate-limits the shard→digest merge: a Sync
	// within cadence of the last merge returns without draining, so hot
	// policy paths that sync before every read share one periodic
	// aggregation instead of merging per call (the BriskStream
	// periodic-aggregation point). Zero (the default) merges on every
	// Sync, the exact pre-cadence behavior.
	cadence  sim.Time
	lastSync sim.Time
	synced   bool
}

// NewHub returns a hub whose digests rotate on the given window span
// (DefaultWindow when non-positive).
func NewHub(window sim.Time) *Hub {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Hub{window: window}
}

// Stream registers a named stream and returns its ID. Registration
// allocates; it happens at topology-build time, never on the hot path.
func (h *Hub) Stream(name string) ID {
	h.names = append(h.names, name)
	h.digests = append(h.digests, NewDigest(h.window))
	return ID(len(h.digests) - 1)
}

// Name returns the stream's registered name.
func (h *Hub) Name(id ID) string { return h.names[id] }

// Streams returns the number of registered streams.
func (h *Hub) Streams() int { return len(h.digests) }

// Digest returns the stream's digest. Callers must Sync first (or hold a
// freshly synced hub) for the view to include buffered shard samples.
func (h *Hub) Digest(id ID) *Digest {
	if int(id) < 0 || int(id) >= len(h.digests) {
		panic(fmt.Sprintf("telemetry: unknown stream id %d", id))
	}
	return h.digests[id]
}

// NewShard returns a shard-local recorder bound to this hub. Each
// recording context (one per device plane, one per tenant) gets its own
// shard so the hot path is a couple of array writes with no sharing.
func (h *Hub) NewShard() *Shard {
	s := &Shard{h: h}
	h.shards = append(h.shards, s)
	return s
}

// SetSyncCadence bounds how often Sync actually merges the shards: calls
// within d of the last merge are no-ops, so views can be at most d stale.
// A non-positive d restores merge-on-every-Sync.
func (h *Hub) SetSyncCadence(d sim.Time) { h.cadence = d }

// Sync merges every shard's buffered samples into the digests in global
// timestamp order and rotates windows up to now. It is the pull half of
// the shard-local/periodic-merge design: policies call it (rate-limited by
// SetSyncCadence and memoized per virtual instant at the policy layer)
// before reading views, instead of a wall-clock merge timer that would
// keep the event loop alive. Allocation-free.
func (h *Hub) Sync(now sim.Time) {
	if h.synced && h.cadence > 0 && now < h.lastSync+h.cadence {
		return
	}
	h.lastSync, h.synced = now, true
	h.merge()
	for _, d := range h.digests {
		d.advance2(now)
	}
}

// merge is the k-way shard drain: repeatedly take the buffered sample with
// the smallest timestamp across all shards (earliest-registered shard wins
// ties) and record it into its digest. With strictly increasing recording
// timestamps the merged order equals the global recording order whatever
// shard each sample landed on, which is what makes the order-sensitive
// EWMA view shard-count-invariant. Linear scan per pop: shard counts are
// small (one per device plane plus one per tenant) and buffers are 64
// deep, and it keeps the merge allocation-free.
func (h *Hub) merge() {
	for {
		var best *Shard
		for _, s := range h.shards {
			if s.pos < s.n && (best == nil || s.buf[s.pos].at < best.buf[best.pos].at) {
				best = s
			}
		}
		if best == nil {
			break
		}
		b := &best.buf[best.pos]
		best.pos++
		h.digests[b.id].Record(b.at, b.v)
	}
	for _, s := range h.shards {
		s.n, s.pos = 0, 0
	}
}

// Shard is a shard-local recording buffer: Record appends into a fixed
// array, and the buffer merges into the hub's digests when it fills or at
// the next Sync. No locks, no allocations, no cross-shard sharing on the
// recording path.
type Shard struct {
	h   *Hub
	n   int
	pos int // merge cursor into buf, owned by Hub.merge
	buf [shardBuf]sample
}

// Record buffers one sample for the stream. Flushes inline when the
// buffer fills — the overflow fallback merges this shard's samples in
// recording order ahead of the next Sync (still allocation-free, since
// digests record in place); size the sync cadence so the common case
// stays under one buffer per merge.
func (s *Shard) Record(id ID, at sim.Time, v int64) {
	s.buf[s.n] = sample{id: id, at: at, v: v}
	s.n++
	if s.n == shardBuf {
		s.flush()
	}
}

// flush merges the buffered samples into the hub's digests in recording
// order (the single-shard overflow path; Sync uses the k-way merge).
func (s *Shard) flush() {
	for i := 0; i < s.n; i++ {
		b := &s.buf[i]
		s.h.digests[b.id].Record(b.at, b.v)
	}
	s.n, s.pos = 0, 0
}
