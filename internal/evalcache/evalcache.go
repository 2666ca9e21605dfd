// Package evalcache is the shared evaluation cache: a sharded, bounded,
// concurrency-safe store for finished CME evaluation results, shared
// across GA islands, successive searches, and tiling-service requests.
//
// Three tiers live behind one size bound:
//
//   - fitness: GA objective values keyed by (scope, genome bits), where
//     the scope hashes the search phase, nest IR, cache geometry and
//     sample fingerprint. A hit replays a finished evaluation from an
//     earlier search.
//   - stats: finalized per-tile cachesim.Stats keyed by (nest, geometry,
//     sample, iteration space), recalling the full classification
//     breakdown for a tile that was already finalized.
//   - pool: bound analyzer pools keyed by (nest, geometry), so a repeated
//     request reuses the CME setup work (reference-group analysis,
//     buffers) instead of rebuilding it.
//
// Determinism contract: a fitness or stats value is a pure function of
// its key — the sampled-miss objective depends only on the nest content,
// cache geometry, sample set and candidate genome — so recalling it is
// result-transparent. Callers must never store values that are not
// (quarantine sentinels, poisoned +Inf results); the cache itself only
// stores and recalls.
//
// Eviction is per-shard LRU with a hard total bound; an insert into a full
// shard drops exactly its least recently used entry under the shard mutex,
// so no caller stalls behind an O(cache) sweep. The bound counts entries,
// so an entry's bytes are what a full cache costs: each shard keeps its
// entries in one slice linked by index, with the value stored unboxed, and
// keys are built from raw 32-byte digests (key.go).
package evalcache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/telemetry"
)

// Config sizes the cache.
type Config struct {
	// MaxEntries bounds the total fitness + stats entry count across all
	// shards; 0 means DefaultMaxEntries.
	MaxEntries int
	// Shards is the shard count (rounded up to a power of two); 0 means
	// DefaultShards. More shards reduce mutex contention between
	// concurrent searches.
	Shards int
	// Observer receives evalcache_hit/miss/evict events and counter
	// deltas; nil disables telemetry at zero cost.
	Observer telemetry.Recorder
}

// Defaults for Config zero values.
const (
	DefaultMaxEntries = 1 << 15
	DefaultShards     = 16
	// maxPools bounds how many (nest, geometry) keys retain a parked
	// analyzer pool. Pools are heavyweight (per-worker solver state), so
	// the bound is small: enough for a service's hot kernels.
	maxPools = 8
)

// node is one cached entry in its shard's recency list. A fitness entry
// keeps its value in fit; a stats entry points at its statistics.
type node struct {
	key        string
	prev, next int32 // neighbours toward the most / least recently used end
	fit        float64
	stats      *cachesim.Stats
}

// none marks the end of a shard's recency list.
const none = -1

type shard struct {
	mu    sync.Mutex
	max   int
	items map[string]int32 // key → index into nodes
	nodes []node
	// head is the most and tail the least recently used node.
	head, tail int32
}

// unlink removes node i from the recency list.
func (s *shard) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != none {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != none {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
}

// pushFront links node i in as the most recently used.
func (s *shard) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev, n.next = none, s.head
	if s.head != none {
		s.nodes[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// touch marks node i most recently used.
func (s *shard) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// Cache is the shared evaluation cache. The zero value is not usable;
// construct with New. A nil *Cache is the canonical "disabled" state and
// is what Options.SharedCache left unset means.
type Cache struct {
	shards []*shard
	mask   uint64
	seed   maphash.Seed
	obs    telemetry.Recorder

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	poolMu    sync.Mutex
	pools     map[string]*list.Element
	poolOrder *list.List // front = most recently returned
}

type poolEntry struct {
	key  string
	pool []*cme.Analyzer
}

// New builds a cache from cfg, applying defaults for zero values.
func New(cfg Config) *Cache {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	perShard := (maxEntries + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{
		shards:    make([]*shard, shards),
		mask:      uint64(shards - 1),
		seed:      maphash.MakeSeed(),
		obs:       cfg.Observer,
		pools:     make(map[string]*list.Element),
		poolOrder: list.New(),
	}
	for i := range c.shards {
		c.shards[i] = &shard{max: perShard, items: make(map[string]int32), head: none, tail: none}
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	return c.shards[maphash.String(c.seed, key)&c.mask]
}

// get looks key up in its shard and refreshes recency on a hit.
func (c *Cache) get(key, tier string) (node, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	i, ok := s.items[key]
	var n node
	if ok {
		s.touch(i)
		n = s.nodes[i]
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheHit{Tier: tier})
			c.obs.Add(telemetry.Counters{EvalCacheHits: 1})
		}
		return n, true
	}
	c.misses.Add(1)
	if c.obs != nil {
		c.obs.Event(telemetry.EvalCacheMiss{Tier: tier})
		c.obs.Add(telemetry.Counters{EvalCacheMisses: 1})
	}
	return node{}, false
}

// put stores the value of n under key; an existing key is updated in
// place. A new key in a full shard takes the slot of the least recently
// used entry, which is evicted.
func (c *Cache) put(key string, n node) {
	s := c.shardOf(key)
	s.mu.Lock()
	if i, ok := s.items[key]; ok {
		s.nodes[i].fit, s.nodes[i].stats = n.fit, n.stats
		s.touch(i)
		s.mu.Unlock()
		return
	}
	n.key = key
	evicted := len(s.items) >= s.max
	var slot int32
	if evicted {
		slot = s.tail
		s.unlink(slot)
		delete(s.items, s.nodes[slot].key)
		s.nodes[slot] = n
	} else {
		if len(s.nodes) == cap(s.nodes) {
			// Grow by doubling, but never past the bound: a full shard
			// holds exactly max nodes.
			grown := make([]node, len(s.nodes), min(max(2*cap(s.nodes), 16), s.max))
			copy(grown, s.nodes)
			s.nodes = grown
		}
		slot = int32(len(s.nodes))
		s.nodes = append(s.nodes, n)
	}
	s.items[key] = slot
	s.pushFront(slot)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheEvict{Evicted: 1})
			c.obs.Add(telemetry.Counters{EvalCacheEvictions: 1})
		}
	}
}

// GetFitness recalls a finished GA objective value.
func (c *Cache) GetFitness(key string) (float64, bool) {
	n, ok := c.get("f:"+key, "fitness")
	return n.fit, ok
}

// PutFitness stores a finished GA objective value. Callers filter out
// sentinel values (quarantine fitness, ±Inf, NaN) before storing.
func (c *Cache) PutFitness(key string, v float64) { c.put("f:"+key, node{fit: v}) }

// GetStats recalls finalized per-tile classification statistics.
func (c *Cache) GetStats(key string) (cachesim.Stats, bool) {
	n, ok := c.get("s:"+key, "stats")
	if !ok {
		return cachesim.Stats{}, false
	}
	return *n.stats, true
}

// PutStats stores finalized per-tile classification statistics.
func (c *Cache) PutStats(key string, st cachesim.Stats) { c.put("s:"+key, node{stats: &st}) }

// CheckoutPool removes and returns the parked analyzer pool for key, if
// any. Removal (not sharing) keeps analyzers single-owner: concurrent
// searches over the same nest each check out at most one pool and the
// rest rebuild.
func (c *Cache) CheckoutPool(key string) ([]*cme.Analyzer, bool) {
	c.poolMu.Lock()
	el, ok := c.pools[key]
	var pool []*cme.Analyzer
	if ok {
		pool = el.Value.(*poolEntry).pool
		c.poolOrder.Remove(el)
		delete(c.pools, key)
	}
	c.poolMu.Unlock()
	if c.obs != nil {
		if ok {
			c.obs.Event(telemetry.EvalCacheHit{Tier: "pool"})
			c.obs.Add(telemetry.Counters{EvalCacheHits: 1})
		} else {
			c.obs.Event(telemetry.EvalCacheMiss{Tier: "pool"})
			c.obs.Add(telemetry.Counters{EvalCacheMisses: 1})
		}
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return pool, ok
}

// ReturnPool parks an analyzer pool under key for a later search over
// the same nest and geometry. A pool already parked under key is
// replaced; beyond maxPools distinct keys the least-recently-returned
// pool is dropped. The caller must not use pool afterwards.
func (c *Cache) ReturnPool(key string, pool []*cme.Analyzer) {
	if len(pool) == 0 {
		return
	}
	evicted := 0
	c.poolMu.Lock()
	if el, ok := c.pools[key]; ok {
		el.Value.(*poolEntry).pool = pool
		c.poolOrder.MoveToFront(el)
	} else {
		c.pools[key] = c.poolOrder.PushFront(&poolEntry{key: key, pool: pool})
		for c.poolOrder.Len() > maxPools {
			oldest := c.poolOrder.Back()
			c.poolOrder.Remove(oldest)
			delete(c.pools, oldest.Value.(*poolEntry).key)
			evicted++
		}
	}
	c.poolMu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheEvict{Evicted: evicted})
			c.obs.Add(telemetry.Counters{EvalCacheEvictions: uint64(evicted)})
		}
	}
}

// Len reports the live fitness + stats entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Metrics is a point-in-time accounting snapshot.
type Metrics struct {
	// Hits and Misses count lookups across all tiers (fitness, stats,
	// pool); Evictions counts entries dropped by the size bound.
	Hits, Misses, Evictions uint64
	// Entries is the live fitness + stats entry count.
	Entries int
}

// Metrics returns the cache's accounting snapshot.
func (c *Cache) Metrics() Metrics {
	return Metrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
