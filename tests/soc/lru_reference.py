"""Reference true-LRU cache: one OrderedDict per set, one access at a time.

The oracle for :class:`repro.soc.cache.SetAssociativeCache`.  Each set's
tag store maps tag -> dirty flag, ordered LRU-first, and every access is
replayed in temporal order, so the semantics are easy to read off:

- a hit moves the line to MRU and ORs in the write's dirty flag;
- a miss allocates (unless it is a write on a no-write-allocate cache),
  evicting the LRU line of a full set and counting a writeback when
  that line was dirty;
- a disabled cache bypasses every access at transaction granularity.

The public surface mirrors the production class so the two can be
driven side by side by ``tests/soc/test_cache_oracle.py``.
"""

from collections import OrderedDict
from typing import List

import numpy as np

from repro.soc.cache import AccessResult, CacheConfig, CacheStats


class ReferenceLRUCache:
    """Temporal-order, OrderedDict-per-set true-LRU cache."""

    def __init__(self, config: CacheConfig, enabled: bool = True) -> None:
        self.config = config
        self.enabled = enabled
        self.stats = CacheStats()
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def dirty_lines(self) -> int:
        return sum(1 for s in self._sets for dirty in s.values() if dirty)

    def contains(self, address: int) -> bool:
        line = address >> self._line_shift
        tag = line >> self._set_mask.bit_length()
        return tag in self._sets[line & self._set_mask]

    def access_trace(self, addresses: np.ndarray,
                     is_write: np.ndarray) -> AccessResult:
        n = len(addresses)
        if n == 0:
            return AccessResult(
                hits=np.empty(0, dtype=bool),
                miss_line_addresses=np.empty(0, dtype=np.int64),
                writeback_lines=0,
            )
        writes = int(np.count_nonzero(is_write))
        self.stats.accesses += n
        self.stats.write_accesses += writes
        self.stats.read_accesses += n - writes
        if not self.enabled:
            self.stats.misses += n
            self.stats.bypassed += n
            return AccessResult(
                hits=np.zeros(n, dtype=bool),
                miss_line_addresses=np.asarray(addresses, dtype=np.int64),
                writeback_lines=0,
            )

        lines = (np.asarray(addresses, dtype=np.int64)
                 >> self._line_shift).tolist()
        write_list = np.asarray(is_write, dtype=bool).tolist()
        set_bits = self._set_mask.bit_length()
        hits = np.zeros(n, dtype=bool)
        misses: List[int] = []
        writebacks = 0
        for i in range(n):
            line = lines[i]
            s = self._sets[line & self._set_mask]
            tag = line >> set_bits
            dirty = write_list[i] and self.config.write_back
            if tag in s:
                hits[i] = True
                s[tag] = s.pop(tag) or dirty  # move to MRU, accumulate dirty
            else:
                misses.append(line)
                if self.config.write_allocate or not write_list[i]:
                    if len(s) >= self.config.ways:
                        _evicted_tag, was_dirty = s.popitem(last=False)
                        if was_dirty:
                            writebacks += 1
                    s[tag] = dirty

        num_hits = int(np.count_nonzero(hits))
        self.stats.hits += num_hits
        self.stats.misses += n - num_hits
        self.stats.writebacks += writebacks
        return AccessResult(
            hits=hits,
            miss_line_addresses=np.array(misses, dtype=np.int64)
            << self._line_shift,
            writeback_lines=writebacks,
        )

    def flush(self) -> int:
        dirty = self.dirty_lines
        invalidated = self.resident_lines
        for s in self._sets:
            s.clear()
        self.stats.flush_writebacks += dirty
        self.stats.invalidations += invalidated
        return dirty

    def invalidate(self) -> int:
        count = self.resident_lines
        for s in self._sets:
            s.clear()
        self.stats.invalidations += count
        return count

    def reset(self) -> None:
        for s in self._sets:
            s.clear()
        self.stats = CacheStats()
