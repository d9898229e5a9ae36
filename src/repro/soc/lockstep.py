"""Set-lockstep trace replay, shared by the cache engines.

Sets are independent, so only the temporal order of accesses *within* a
set matters.  :class:`SetLockstep` replays a segment in rounds:

1. on a write-allocate cache, each run of consecutive same-line accesses
   collapses to one access whose write flag is the OR of the run (the
   repeats are hits on their set's most recent line and change nothing);
2. the accesses are reordered round-major: round ``r`` holds the
   ``r``-th access of every set that has one, so each round touches
   distinct sets and each set sees its accesses in temporal order;
3. each round goes to the policy's step as one batch.

The replacement policy is all in the step — true LRU in
:mod:`repro.soc.cache`, bit-PLRU in :mod:`repro.sim.engine`.  It gets
the round's (distinct) sets, tags and write flags and returns their hit
flags and how many dirty lines it evicted.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

#: ``step(sets, tags, writes) -> (hits, writebacks)`` for one round.
Step = Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, int]]


class SetLockstep:
    """One non-empty trace segment, run-collapsed and ordered by round.

    ``lines``/``writes`` are the accesses the policy replays (collapsed
    when ``collapse`` is set); :meth:`run` and :meth:`expand` report hit
    flags for the original segment.
    """

    def __init__(self, lines: np.ndarray, writes: np.ndarray, set_mask: int,
                 set_bits: int, collapse: bool) -> None:
        self.n = len(lines)
        self._keep: Optional[np.ndarray] = None
        if collapse and self.n > 1:
            keep = np.empty(self.n, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            idx = np.flatnonzero(keep)
            if len(idx) < self.n:
                self._keep = idx
                writes = np.logical_or.reduceat(writes, idx)
                lines = lines[idx]
        self.lines = lines
        self.writes = writes
        sets = lines & set_mask
        by_set = np.argsort(sets, kind="stable")
        sorted_sets = sets[by_set]
        starts = np.flatnonzero(sorted_sets[1:] != sorted_sets[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
        counts = np.diff(np.append(starts, len(lines)))
        # An access's round is its rank among its set's accesses.
        rank = np.arange(len(lines)) - np.repeat(starts, counts)
        self._perm = by_set[np.argsort(rank, kind="stable")]
        self._sets = sets[self._perm]
        self._tags = (lines >> set_bits)[self._perm]
        self._writes = writes[self._perm]
        self._bounds = np.cumsum(np.bincount(rank)).tolist()

    @property
    def rounds(self) -> int:
        """Lockstep rounds needed: the busiest set's access count."""
        return len(self._bounds)

    def run(self, step: Step) -> Tuple[np.ndarray, int]:
        """Replay every round through ``step``; returns hit flags for the
        original segment and the total dirty writebacks."""
        round_hits = np.empty(len(self.lines), dtype=bool)
        writebacks = 0
        begin = 0
        for end in self._bounds:
            hit, evicted_dirty = step(self._sets[begin:end],
                                      self._tags[begin:end],
                                      self._writes[begin:end])
            round_hits[begin:end] = hit
            writebacks += evicted_dirty
            begin = end
        hits = np.empty(len(self.lines), dtype=bool)
        hits[self._perm] = round_hits
        return self.expand(hits), writebacks

    def expand(self, hits: np.ndarray) -> np.ndarray:
        """Hit flags of the replayed accesses, for the original segment
        (collapsed-away repeats are hits)."""
        if self._keep is None:
            return hits
        full = np.ones(self.n, dtype=bool)
        full[self._keep] = hits
        return full
