package difc

// FlowCacheStats reports hits, misses and evictions of a SubsetOf memo
// table. The package keeps no such table — SubsetOf and Equal decide
// from the signatures and tags alone — so all three are always zero.
// Its only caller is perfbench, whose run records still carry the
// difc.flowcache.* metrics.
func FlowCacheStats() (hits, misses, evictions uint64) { return 0, 0, 0 }

// VerdictCacheStats reports hits, misses and invalidations of a per-task
// access-verdict memo table. No such table exists — the security module
// re-derives every verdict from the labels — so all three are always
// zero. Like FlowCacheStats it survives only for perfbench, whose run
// records still carry the difc.verdictcache.* metrics.
func VerdictCacheStats() (hits, misses, invalidations uint64) { return 0, 0, 0 }
