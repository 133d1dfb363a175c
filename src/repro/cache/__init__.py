"""Cache substrate: LRU arrays, the 2 MB LLC with eager-candidate
selection, the LRU-stack profiler and dead-block prediction."""
