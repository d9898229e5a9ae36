"""Bit-PLRU set-associative cache simulation.

The event-driven backend replays access streams through this engine
instead of the true-LRU :class:`~repro.soc.cache.SetAssociativeCache`.
The replacement policy is *bit-PLRU* (MRU-bit pseudo-LRU), the policy
embedded caches actually implement and the one that works for any way
count (the boards have 4/6/16-way caches; 6 is not a power of two, so a
tree PLRU would not fit):

- each set keeps one MRU bit per way; an access sets the way's bit;
- when all bits would be set, every other bit clears (the accessed way
  keeps its bit);
- the victim is the first invalid way, else the lowest way with a clear
  MRU bit.

Two implementations share the same :class:`CacheSimState`:

- :func:`_core_scalar` — the reference, a plain temporal-order loop;
- the set-lockstep fast path — :class:`repro.soc.lockstep.SetLockstep`
  (shared with the true-LRU cache) collapses same-line runs, groups
  accesses by set and drives :func:`_plru_step` once per round.

Both paths are pinned bit-identical (hit masks, miss order, writebacks,
final state) by property tests in ``tests/sim``; ``vectorized=False``
forces the scalar reference.
"""

from __future__ import annotations

import copy
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.soc.cache import AccessResult
from repro.soc.lockstep import SetLockstep, Step
from repro.units import is_power_of_two


#: Below this many (collapsed) accesses per segment, or when one set
#: receives more than 1/8 of them, lockstep rounds degenerate and the
#: scalar core is faster; the results are bit-identical either way.
_LOCKSTEP_MIN_ACCESSES = 64
_LOCKSTEP_SKEW_FACTOR = 8


class CacheSimState:
    """Mutable tag/MRU/dirty state of one simulated cache level."""

    def __init__(self, num_sets: int, ways: int, line_size: int) -> None:
        if not is_power_of_two(num_sets):
            raise ConfigurationError(
                f"simulated cache needs power-of-two sets, got {num_sets}"
            )
        if not is_power_of_two(line_size):
            raise ConfigurationError(
                f"simulated cache needs a power-of-two line, got {line_size}"
            )
        if ways <= 0 or ways > 62:
            raise ConfigurationError(f"ways must be in [1, 62], got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = num_sets - 1
        self.set_bits = num_sets.bit_length() - 1
        self.full_mask = (1 << ways) - 1
        #: (num_sets, ways) resident line tags, -1 = invalid way.
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        #: per-set MRU bitmask (bit w set = way w recently used).
        self.mru = np.zeros(num_sets, dtype=np.int64)
        #: per-set dirty bitmask.
        self.dirty = np.zeros(num_sets, dtype=np.int64)
        #: valid and dirty line counts, kept in step with the arrays.
        self.resident_lines = 0
        self.dirty_lines = 0

    def invalidate(self) -> int:
        """Drop every line without writing back (returns lines dropped)."""
        count = self.resident_lines
        if count:
            self.tags.fill(-1)
            self.mru.fill(0)
            self.dirty.fill(0)
            self.resident_lines = 0
            self.dirty_lines = 0
        return count

    def flush(self) -> int:
        """Write back dirty lines and invalidate (returns dirty count)."""
        dirty = self.dirty_lines
        self.invalidate()
        return dirty

    def clone(self) -> "CacheSimState":
        """An independent copy (used by the equivalence tests)."""
        return copy.deepcopy(self)

    def state_equal(self, other: "CacheSimState") -> bool:
        """Bit-exact state comparison (arrays and counters)."""
        return (
            np.array_equal(self.tags, other.tags)
            and np.array_equal(self.mru, other.mru)
            and np.array_equal(self.dirty, other.dirty)
            and self.resident_lines == other.resident_lines
            and self.dirty_lines == other.dirty_lines
        )


def access_trace(
    state: CacheSimState,
    addresses: np.ndarray,
    is_write: np.ndarray,
    write_back: bool = True,
    write_allocate: bool = True,
    vectorized: bool = True,
) -> AccessResult:
    """Replay a trace segment through the bit-PLRU cache.

    ``vectorized=False`` runs the scalar reference on the raw trace;
    otherwise the set-lockstep fast path runs, producing bit-identical
    results.
    """
    if len(addresses) == 0:
        return AccessResult.empty()
    lines = np.asarray(addresses, dtype=np.int64) >> state.line_shift
    writes = np.ascontiguousarray(is_write, dtype=bool)
    replay = _access_fast if vectorized else _core_scalar
    hits, writebacks = replay(state, lines, writes, write_back, write_allocate)
    return AccessResult(
        hits=hits,
        miss_line_addresses=lines[~hits] << state.line_shift,
        writeback_lines=writebacks,
    )


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------


def _core_scalar(
    state: CacheSimState,
    lines: np.ndarray,
    writes: np.ndarray,
    write_back: bool,
    write_allocate: bool,
) -> Tuple[np.ndarray, int]:
    """Temporal-order replay; the semantics other paths must match."""
    n = len(lines)
    hits = np.zeros(n, dtype=bool)
    writebacks = 0
    resident = state.resident_lines
    dirty_lines = state.dirty_lines
    tags = state.tags
    mru = state.mru
    dirty = state.dirty
    ways = state.ways
    full = state.full_mask
    set_mask = state.set_mask
    set_bits = state.set_bits
    line_list = lines.tolist()
    write_list = writes.tolist()
    for i in range(n):
        line = line_list[i]
        set_i = line & set_mask
        tag = line >> set_bits
        row = tags[set_i]
        way = -1
        for w in range(ways):
            if row[w] == tag:
                way = w
                break
        make_dirty = write_list[i] and write_back
        if way >= 0:
            hits[i] = True
        else:
            if not (write_allocate or not write_list[i]):
                continue  # no-allocate write miss: bypass untouched
            # victim: first invalid way, else first clear MRU bit
            way = 0
            for w in range(ways):
                if row[w] == -1:
                    way = w
                    break
            else:
                m = int(mru[set_i])
                for w in range(ways):
                    if not (m >> w) & 1:
                        way = w
                        break
            if row[way] == -1:
                resident += 1
            elif (int(dirty[set_i]) >> way) & 1:
                writebacks += 1
                dirty_lines -= 1
            row[way] = tag
            dirty[set_i] &= ~(1 << way)
        if make_dirty and not (int(dirty[set_i]) >> way) & 1:
            dirty[set_i] |= 1 << way
            dirty_lines += 1
        m = int(mru[set_i]) | (1 << way)
        mru[set_i] = (1 << way) if m == full and ways > 1 else m
    state.resident_lines = resident
    state.dirty_lines = dirty_lines
    return hits, writebacks


# ----------------------------------------------------------------------
# vectorized fast path
# ----------------------------------------------------------------------


def _access_fast(state: CacheSimState, lines: np.ndarray, writes: np.ndarray,
                 write_back: bool, write_allocate: bool
                 ) -> Tuple[np.ndarray, int]:
    """Set-lockstep replay (bit-identical to the scalar reference)."""
    segment = SetLockstep(lines, writes, state.set_mask, state.set_bits,
                          collapse=write_allocate)
    m = len(segment.lines)
    if m < _LOCKSTEP_MIN_ACCESSES or segment.rounds * _LOCKSTEP_SKEW_FACTOR > m:
        core_hits, writebacks = _core_scalar(
            state, segment.lines, segment.writes, write_back, write_allocate
        )
        return segment.expand(core_hits), writebacks
    return segment.run(_plru_step(state, write_back, write_allocate))


def _plru_step(state: CacheSimState, write_back: bool,
               write_allocate: bool) -> Step:
    """One lockstep round of bit-PLRU as NumPy bit-ops over the active
    sets (see :mod:`repro.soc.lockstep`)."""
    tags, mru, dirty = state.tags, state.mru, state.dirty
    ways, full = state.ways, state.full_mask
    way_range = np.arange(ways, dtype=np.int64)
    one = np.int64(1)

    def step(su: np.ndarray, t: np.ndarray,
             w: np.ndarray) -> Tuple[np.ndarray, int]:
        rows = tags.take(su, axis=0)  # (active, ways)
        m = mru[su]
        d = dirty[su]
        hit_ways = rows == t[:, None]
        hit = hit_ways.any(axis=1)
        alloc = ~hit if write_allocate else ~hit & ~w
        # victim: first invalid way, else first clear MRU bit
        invalid = rows == -1
        has_invalid = invalid.any(axis=1)
        victim = np.where(has_invalid, invalid.argmax(axis=1),
                          (((m[:, None] >> way_range) & 1) == 0).argmax(axis=1))
        way = np.where(hit, hit_ways.argmax(axis=1), victim)
        bit = one << way
        touched = hit | alloc
        evict_dirty = alloc & ~has_invalid & ((d & bit) != 0)
        tags[su[alloc], way[alloc]] = t[alloc]
        d = np.where(alloc, d & ~bit, d)
        if write_back:
            newly_dirty = touched & w & ((d & bit) == 0)
            d = np.where(newly_dirty, d | bit, d)
            state.dirty_lines += int(np.count_nonzero(newly_dirty))
        dirty[su] = d
        new_m = m | bit
        if ways > 1:
            new_m = np.where(new_m == full, bit, new_m)
        mru[su] = np.where(touched, new_m, m)
        writebacks = int(np.count_nonzero(evict_dirty))
        state.resident_lines += int(np.count_nonzero(alloc & has_invalid))
        state.dirty_lines -= writebacks
        return hit, writebacks

    return step
