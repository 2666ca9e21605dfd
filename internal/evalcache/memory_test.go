package evalcache

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/cachesim"
)

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEntryLayout pins the structural part of an entry's cost exactly: a
// 40-byte recency node (key header, two int32 links, the fitness and a
// stats pointer) and raw 32-byte digests as keys, so a fitness key is 32
// bytes plus the genome and a stats key is 32 bytes.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 40 {
		t.Errorf("node is %d bytes, want 40", got)
	}
	scope := Scope("tiling", NestKey(nest(t, "MM", 500)), ConfigKey(cache.DM8K), "sample")
	if len(scope) != 32 {
		t.Errorf("scope key is %d bytes, want a raw 32-byte digest", len(scope))
	}
	if got := len(Scope(scope, "010101")); got != 32 {
		t.Errorf("stats key is %d bytes, want 32", got)
	}
}

// TestBytesPerEntry bounds what one cached evaluation costs in live heap
// at the default capacity, for keys shaped like the searches' own: a scope
// digest plus a 30-bit genome for fitness, a scope digest for statistics.
// The cache's size bound counts entries, not bytes, so this is what keeps
// a long-running daemon's peak memory from growing with its throughput.
//
// The heap figure also holds the map's buckets and the nodes slice's
// spare capacity, which move with the runtime's map layout and the
// collector's timing, so it is not pinned. This layout measures about 158
// (fitness) and 190 (stats) bytes; the previous one (container/list
// elements, boxed values, 64-character hex keys) measured 238 and 262.
// Each limit sits halfway between, wide of the noise on either side.
func TestBytesPerEntry(t *testing.T) {
	scope := Scope("tiling", NestKey(nest(t, "MM", 500)), ConfigKey(cache.DM8K), "sample")
	limits := map[string]float64{"fitness": 198, "stats": 226}
	for _, tier := range []string{"fitness", "stats"} {
		before := heapInUse()
		c := New(Config{})
		genome := make([]byte, 30)
		for i := 0; i < DefaultMaxEntries; i++ {
			for b := range genome {
				genome[b] = '0' + byte(i>>b&1)
			}
			if tier == "fitness" {
				c.PutFitness(scope+string(genome), float64(i))
			} else {
				c.PutStats(Scope(scope, string(genome)), cachesim.Stats{Accesses: uint64(i)})
			}
		}
		per := float64(heapInUse()-before) / float64(c.Len())
		runtime.KeepAlive(c)
		t.Logf("%s: %.0f bytes per entry over %d entries", tier, per, c.Len())
		if per > limits[tier] {
			t.Errorf("%s entries cost %.0f bytes each, limit %.0f", tier, per, limits[tier])
		}
	}
}
