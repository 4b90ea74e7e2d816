package difc

import (
	"sync"
	"sync/atomic"
)

// The flow cache memoizes SubsetOf over pairs of interned heap labels
// (more than inlineCap tags each). Every DIFC decision in the system —
// LSM hook checks, rt read/write barriers, label-change and region-entry
// rules — bottoms out in subset tests, so this one memo table
// accelerates all of them transparently: SubsetOf itself consults the
// cache when both operands are interned heap labels. A pair whose left
// operand is inline never reaches it: walking at most inlineCap tags
// against the other label is cheaper than the shard mutex and map probe.
//
// Design constraints, in order:
//
//  1. Correctness is unconditional. A cache entry keyed (a.id, b.id)
//     stores the pure function subset(tags(a), tags(b)); labels are
//     immutable and ids are never reused, so entries can never go
//     stale. Eviction merely forgets answers.
//  2. Concurrency. The cache is sharded 64 ways; each shard is a small
//     mutex-guarded map. Shards are picked by mixing both ids so
//     distinct hot pairs rarely collide.
//  3. Bounded memory. A shard that reaches flowCacheShardCap entries is
//     cleared wholesale (cheap, O(1) amortized, and keeps the table
//     hot-set-adaptive without LRU bookkeeping).

const (
	flowCacheShardCount = 64
	flowCacheShardCap   = 4096
)

type flowKey struct{ a, b uint64 }

type flowShard struct {
	mu sync.Mutex
	m  map[flowKey]bool
}

var (
	flowCache [flowCacheShardCount]flowShard

	flowHits      atomic.Uint64
	flowMisses    atomic.Uint64
	flowEvictions atomic.Uint64
)

func flowShardFor(a, b uint64) *flowShard {
	// splitmix-style finalizer over the combined ids.
	h := a*0x9e3779b97f4a7c15 ^ (b + 0xbf58476d1ce4e5b9)
	h ^= h >> 31
	return &flowCache[h%flowCacheShardCount]
}

// cachedSubset consults the memo table for "a ⊆ b", given the two
// labels' intern ids (both nonzero). The second return is false when the
// pair is absent and callers must recompute.
func cachedSubset(a, b uint64) (bool, bool) {
	sh := flowShardFor(a, b)
	sh.mu.Lock()
	v, ok := sh.m[flowKey{a, b}]
	sh.mu.Unlock()
	if ok {
		flowHits.Add(1)
	} else {
		flowMisses.Add(1)
	}
	return v, ok
}

// storeSubset records "a ⊆ b = v" for the labels with intern ids a and
// b, evicting the whole shard first if it is at capacity.
func storeSubset(a, b uint64, v bool) {
	sh := flowShardFor(a, b)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[flowKey]bool)
	} else if len(sh.m) >= flowCacheShardCap {
		clear(sh.m)
		flowEvictions.Add(1)
	}
	sh.m[flowKey{a, b}] = v
	sh.mu.Unlock()
}

// FlushFlowCache drops every memoized subset answer. Safe at any time;
// the next queries simply recompute. Tests use it to prove cached and
// uncached answers agree across evictions.
func FlushFlowCache() {
	for i := range flowCache {
		sh := &flowCache[i]
		sh.mu.Lock()
		if len(sh.m) > 0 {
			clear(sh.m)
			flowEvictions.Add(1)
		}
		sh.mu.Unlock()
	}
}

// FlowCacheStats reports cumulative hit/miss/eviction counters for the
// subset memo table.
func FlowCacheStats() (hits, misses, evictions uint64) {
	return flowHits.Load(), flowMisses.Load(), flowEvictions.Load()
}
