"""Exact set-associative cache simulation.

:class:`SetAssociativeCache` replays an address trace through a
write-back, write-allocate, true-LRU cache and reports hits, misses and
writebacks.  This is the reference model: the closed-form estimators in
:mod:`repro.soc.analytic` are validated against it.

State is three ``(num_sets, ways)`` arrays (tags, last-use stamps, dirty
bits) replayed set-lockstep by :class:`repro.soc.lockstep.SetLockstep`,
one access of every active set per round.  Resident and dirty counts
are counters, so flushing or invalidating an empty cache is O(1).

A cache can be *disabled* — every access then misses and bypasses the
array without allocating.  This is how the zero-copy communication model
is realized on boards that turn off the last-level caches (Jetson
Nano/TX2, and the GPU LLC on Xavier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.soc.lockstep import SetLockstep
from repro.units import is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    ``size_bytes`` must equal ``num_sets * ways * line_size`` with a
    power-of-two number of sets so set selection is a mask.
    """

    name: str
    size_bytes: int
    line_size: int
    ways: int
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size must be positive")
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(
                f"{self.name}: line size must be a power of two, got {self.line_size}"
            )
        if self.ways <= 0:
            raise ConfigurationError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.line_size * self.ways):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"line_size*ways = {self.line_size * self.ways}"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"{self.name}: number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_size * self.ways)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_size


@dataclass
class CacheStats:
    """Aggregate counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    writebacks: int = 0
    flush_writebacks: int = 0
    invalidations: int = 0
    bypassed: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Misses over accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum, returned as a new object."""
        return CacheStats(
            **{k: v + getattr(other, k) for k, v in vars(self).items()}
        )

    def snapshot(self) -> "CacheStats":
        """A copy of the current counters."""
        return CacheStats(**vars(self))

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(
            **{k: v - getattr(earlier, k) for k, v in vars(self).items()}
        )


@dataclass
class AccessResult:
    """Outcome of replaying one trace segment through a cache."""

    hits: np.ndarray
    miss_line_addresses: np.ndarray
    writeback_lines: int

    @classmethod
    def empty(cls) -> "AccessResult":
        """The outcome of an empty segment."""
        return cls(np.empty(0, dtype=bool), np.empty(0, dtype=np.int64), 0)

    @property
    def num_hits(self) -> int:
        """Number of hits in the segment."""
        return int(np.count_nonzero(self.hits))

    @property
    def num_misses(self) -> int:
        """Number of misses in the segment."""
        return len(self.hits) - self.num_hits


class SetAssociativeCache:
    """Write-back, write-allocate, true-LRU set-associative cache.

    Tags are ``-1`` on invalid ways.  Stamps come from a clock that
    ticks once per lockstep round, so a set's lowest stamp is its LRU
    line; invalid ways carry stamp ``-1`` and are taken first.
    ``resident_lines``/``dirty_lines`` change on every allocation,
    eviction and dirtying.
    """

    def __init__(self, config: CacheConfig, enabled: bool = True) -> None:
        self.config = config
        self.enabled = enabled
        self.stats = CacheStats()
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._set_bits = self._set_mask.bit_length()
        shape = (config.num_sets, config.ways)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._stamps = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        # Flat views of the same memory, indexed by set * ways + way.
        self._tags_flat = self._tags.reshape(-1)
        self._stamps_flat = self._stamps.reshape(-1)
        self._dirty_flat = self._dirty.reshape(-1)
        self._clock = 0
        #: Lines currently valid / dirty, kept in step with the arrays.
        self.resident_lines = 0
        self.dirty_lines = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident."""
        line = address >> self._line_shift
        row = self._tags[line & self._set_mask]
        return bool(np.any(row == line >> self._set_bits))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def access_trace(
        self, addresses: np.ndarray, is_write: np.ndarray
    ) -> AccessResult:
        """Replay a trace segment.

        Returns per-access hit flags, the line addresses that missed (in
        order, for the next level), and the number of dirty writebacks
        evicted during the segment.
        """
        n = len(addresses)
        if n == 0:
            return AccessResult.empty()
        writes = np.asarray(is_write, dtype=bool)
        write_count = int(np.count_nonzero(writes))
        self.stats.accesses += n
        self.stats.write_accesses += write_count
        self.stats.read_accesses += n - write_count

        if not self.enabled:
            # Disabled caches pass accesses through untouched, at the
            # original (transaction) granularity — this is the zero-copy
            # uncached path.
            self.stats.misses += n
            self.stats.bypassed += n
            return AccessResult(
                hits=np.zeros(n, dtype=bool),
                miss_line_addresses=np.asarray(addresses, dtype=np.int64),
                writeback_lines=0,
            )

        lines = np.asarray(addresses, dtype=np.int64) >> self._line_shift
        segment = SetLockstep(lines, writes, self._set_mask, self._set_bits,
                              collapse=self.config.write_allocate)
        hits, writebacks = segment.run(self._step)

        num_hits = int(np.count_nonzero(hits))
        self.stats.hits += num_hits
        self.stats.misses += n - num_hits
        self.stats.writebacks += writebacks
        return AccessResult(
            hits=hits,
            miss_line_addresses=lines[~hits] << self._line_shift,
            writeback_lines=writebacks,
        )

    def _step(
        self, sets: np.ndarray, tags: np.ndarray, writes: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Retire one access in each of ``sets`` (distinct) at once."""
        ways = self.config.ways
        # Victim by default (lowest stamp: an invalid way, else the LRU
        # line); a resident tag matches at most one way and overrides it.
        way = self._stamps.take(sets, axis=0).argmin(axis=1)
        hit_rows, hit_ways = np.divmod(
            np.flatnonzero(self._tags.take(sets, axis=0) == tags[:, None]), ways
        )
        way[hit_rows] = hit_ways
        hit = np.zeros(len(sets), dtype=bool)
        hit[hit_rows] = True
        result_hit = hit
        if not self.config.write_allocate:
            # A write miss bypasses a no-allocate cache untouched.
            touched = hit | ~writes
            sets, tags, writes, way, hit = (
                a[touched] for a in (sets, tags, writes, way, hit))
        flat = sets * ways + way
        was_dirty = self._dirty_flat[flat]
        kept_dirty = was_dirty & hit
        now_dirty = kept_dirty | writes if self.config.write_back else kept_dirty
        self.resident_lines += int(np.count_nonzero(self._tags_flat[flat] == -1))
        self._tags_flat[flat] = tags
        self._stamps_flat[flat] = self._clock
        self._dirty_flat[flat] = now_dirty
        self._clock += 1
        dirty_before = int(np.count_nonzero(was_dirty))
        self.dirty_lines += int(np.count_nonzero(now_dirty)) - dirty_before
        # Dirty lines that were not hit are the evicted ones.
        return result_hit, dirty_before - int(np.count_nonzero(kept_dirty))

    def access_single(self, address: int, is_write: bool = False) -> bool:
        """Replay one access; returns True on hit."""
        result = self.access_trace(
            np.array([address], dtype=np.int64), np.array([is_write])
        )
        return bool(result.hits[0])

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Write back all dirty lines and invalidate everything.

        Returns the number of lines written back.  This is the software
        coherence action the standard-copy model performs around each
        GPU kernel invocation.
        """
        dirty = self.dirty_lines
        self.stats.flush_writebacks += dirty
        self.stats.invalidations += self._clear()
        return dirty

    def invalidate(self) -> int:
        """Drop all lines without writing back (returns lines dropped)."""
        count = self._clear()
        self.stats.invalidations += count
        return count

    def _clear(self) -> int:
        """Empty the arrays (a no-op when nothing is resident); returns
        the lines dropped."""
        count = self.resident_lines
        if count:
            self._tags.fill(-1)
            self._stamps.fill(-1)
            self._dirty.fill(False)
            self.resident_lines = 0
            self.dirty_lines = 0
        return count

    def warm_with(self, addresses: np.ndarray) -> None:
        """Pre-load lines (reads) without counting statistics."""
        saved = self.stats
        self.stats = CacheStats()
        self.access_trace(
            np.asarray(addresses, dtype=np.int64),
            np.zeros(len(addresses), dtype=bool),
        )
        self.stats = saved

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._clear()
        self.stats = CacheStats()
