package mem

import (
	"fmt"
	"sort"
)

// LLC models the shared last-level cache of one socket at occupancy
// granularity: it tracks how many bytes each owner (a core, a process, or
// the DDIO partition used by I/O agents) holds, evicting proportionally from
// other owners when capacity is exceeded. This is the level of detail Figs
// 12/13 require — who occupies the cache and by how much — without
// simulating individual lines.
//
// Owners are interned to dense ids in first-seen order, and occupancy and
// eviction counts are slices indexed by id, so an overflowing insert costs
// one name lookup and a loop over the owners: no allocation, no sort and no
// map access per victim. The proportional eviction visits owners in id
// order, and that order cannot change a result: each victim's take depends
// only on its own occupancy, on the other owners' total and on the excess,
// all three fixed before the loop. An owner whose occupancy reaches zero
// (or is trimmed below it) is absent: it reads 0 and drops out of Owners,
// while its eviction count stays.
type LLC struct {
	capacity int64
	ways     int
	ddioWays int

	ids   map[string]int // owner name → dense id
	names []string       // id → owner name
	occ   []int64        // id → bytes held; 0 for an absent owner
	total int64

	// evictions counts bytes evicted per victim id, for telemetry.
	evictions []int64
}

// LLCConfig sizes an LLC.
type LLCConfig struct {
	Capacity int64 // bytes
	Ways     int   // total ways (SPR: 15)
	DDIOWays int   // ways available to DDIO / cache-control writes (default 2)
}

// NewLLC builds an LLC from cfg.
func NewLLC(cfg LLCConfig) *LLC {
	if cfg.Capacity <= 0 {
		panic("mem: LLC capacity must be positive")
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 15
	}
	if cfg.DDIOWays <= 0 {
		cfg.DDIOWays = 2
	}
	if cfg.DDIOWays > cfg.Ways {
		panic(fmt.Sprintf("mem: DDIO ways %d exceed total ways %d", cfg.DDIOWays, cfg.Ways))
	}
	return &LLC{
		capacity: cfg.Capacity,
		ways:     cfg.Ways,
		ddioWays: cfg.DDIOWays,
		ids:      make(map[string]int),
	}
}

// Capacity returns the LLC size in bytes.
func (c *LLC) Capacity() int64 { return c.capacity }

// DDIOCapacity returns the bytes available to DDIO-steered writes.
func (c *LLC) DDIOCapacity() int64 {
	return c.capacity / int64(c.ways) * int64(c.ddioWays)
}

// id returns owner's dense id, interning the name on first sight.
func (c *LLC) id(owner string) int {
	if id, ok := c.ids[owner]; ok {
		return id
	}
	id := len(c.names)
	c.ids[owner] = id
	c.names = append(c.names, owner)
	c.occ = append(c.occ, 0)
	c.evictions = append(c.evictions, 0)
	return id
}

// Insert allocates n bytes in the cache on behalf of owner, evicting
// proportionally from all owners if the cache overflows. It returns the
// bytes evicted from owners other than the inserter (the pollution damage).
func (c *LLC) Insert(owner string, n int64) int64 {
	if n <= 0 {
		return 0
	}
	id := c.id(owner)
	c.occ[id] += n
	c.total += n
	return c.shrinkTo(c.capacity, id)
}

// InsertDDIO allocates n bytes via the DDIO partition: the owner's DDIO
// footprint is capped at the partition size, so streaming writes cannot
// displace more than the DDIO ways (the §4.5 non-pollution property). It
// returns the bytes that overflowed ("leaked") past the partition to memory.
func (c *LLC) InsertDDIO(owner string, n int64) (leaked int64) {
	if n <= 0 {
		return 0
	}
	id := c.id(owner)
	fit := c.DDIOCapacity() - c.occ[id]
	if fit <= 0 {
		return n
	}
	if fit > n {
		fit = n
	}
	c.occ[id] += fit
	c.total += fit
	c.shrinkTo(c.capacity, id)
	return n - fit
}

// Evict removes up to n bytes owned by owner (as a cache-flush or natural
// invalidation would) and returns the bytes actually removed.
func (c *LLC) Evict(owner string, n int64) int64 {
	id := c.id(owner)
	if cur := c.occ[id]; n > cur {
		n = cur
	}
	c.occ[id] -= n
	c.total -= n
	return n
}

// Occupancy returns the bytes currently held by owner.
func (c *LLC) Occupancy(owner string) int64 {
	if id, ok := c.ids[owner]; ok {
		return c.occ[id]
	}
	return 0
}

// Total returns the total occupied bytes.
func (c *LLC) Total() int64 { return c.total }

// Evicted returns cumulative bytes evicted from owner by other inserters.
func (c *LLC) Evicted(owner string) int64 {
	if id, ok := c.ids[owner]; ok {
		return c.evictions[id]
	}
	return 0
}

// Owners returns the owners currently holding bytes, sorted by name
// (deterministic order for reports).
func (c *LLC) Owners() []string {
	names := make([]string, 0, len(c.names))
	for id, name := range c.names {
		if c.occ[id] > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// shrinkTo evicts proportionally from owners other than inserter until total
// occupancy fits in limit; if the inserter alone exceeds the limit it is
// trimmed too. Returns bytes evicted from others.
func (c *LLC) shrinkTo(limit int64, inserter int) int64 {
	if c.total <= limit {
		return 0
	}
	excess := c.total - limit
	othersTotal := c.total - c.occ[inserter]
	var victims int64
	if othersTotal > 0 {
		for id, occ := range c.occ {
			if id == inserter || occ == 0 {
				continue
			}
			share := float64(occ) / float64(othersTotal)
			take := int64(share * float64(excess))
			if take > occ {
				take = occ
			}
			c.occ[id] = occ - take
			c.total -= take
			c.evictions[id] += take
			victims += take
		}
	}
	// Rounding or a dominant inserter can leave residual excess: trim it.
	if c.total > limit {
		over := c.total - limit
		c.occ[inserter] -= over
		c.total -= over
		c.evictions[inserter] += over
		if c.occ[inserter] < 0 {
			c.occ[inserter] = 0
		}
	}
	return victims
}
