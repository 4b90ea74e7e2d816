package difc

// FlowCacheStats reports hits, misses and evictions of a SubsetOf memo
// table. The package keeps no such table — SubsetOf and Equal decide
// from the signatures and tags alone — so all three are always zero.
// Its only caller is perfbench, whose run records still carry the
// difc.flowcache.* metrics.
func FlowCacheStats() (hits, misses, evictions uint64) { return 0, 0, 0 }
