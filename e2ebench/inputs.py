"""Seeded inputs: tune order, serve arrival schedules and request mix,
and the replayed access trace.

Everything here is a pure function of the seed (and a phase label), so
the same seed gives byte-identical inputs on every run.
"""

from __future__ import annotations

import pathlib
import random
from typing import Iterator, List, Tuple

import numpy as np

from e2ebench.common import CELLS

#: Rows of the generated trace the contended stream replays.
TRACE_ROWS = 200_000

#: One request in this many carries a pre-measured profile (retune path).
PROFILE_EVERY = 4


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"e2ebench:{seed}:{label}")


def cell_cycle(seed: int) -> Iterator[Tuple[str, str]]:
    """Endless (app, board) order: each block of six is a seeded
    permutation of the six cells, so every prefix is nearly balanced."""
    rng = _rng(seed, "cells")
    while True:
        block = list(CELLS)
        rng.shuffle(block)
        yield from block


def arrival_offsets(seed: int, label: str, rate: float,
                    duration: float) -> List[float]:
    """Poisson arrival times in ``[0, duration)`` at ``rate`` per second.

    The count is fixed at ``rate * duration`` (rounded, at least one) and
    the times are sorted seeded uniforms: a Poisson process conditioned
    on its count, so runs differ in how arrivals cluster but not in how
    many there are.
    """
    rng = _rng(seed, f"{label}:{rate:g}:{duration:g}")
    count = max(1, round(rate * duration))
    return sorted(rng.random() * duration for _ in range(count))


def request_stream(seed: int,
                   label: str) -> Iterator[Tuple[str, str, bool]]:
    """Endless requests as (app, board, carries_profile).

    Each block of ``6 * PROFILE_EVERY`` requests is a seeded shuffle of
    every cell asked :data:`PROFILE_EVERY` times, once with a
    pre-measured profile, so the mix of questions and of tune and
    retune paths is the same in every block.
    """
    rng = _rng(seed, label)
    block = [(app, board, copy == 0) for app, board in CELLS
             for copy in range(PROFILE_EVERY)]
    while True:
        rng.shuffle(block)
        yield from block


def trace_csv_text(seed: int, rows: int = TRACE_ROWS) -> str:
    """An ``offset,rw`` trace: a streaming phase, then hot reuse.

    The streaming phase walks a buffer at a seeded stride (little
    reuse); the hot phase hammers a small seeded working set.  Split
    point, stride, working-set size and write shares all come from the
    seed.
    """
    rng = np.random.default_rng([seed, 7])
    split = int(rows * rng.uniform(0.4, 0.6))
    base = int(rng.integers(0, 1 << 20)) * 64
    stride = int(rng.choice([4, 8, 16, 32, 64]))
    hot_words = int(rng.integers(32, 257)) * 16
    streaming = base + np.arange(split, dtype=np.int64) * stride
    hot = base + rng.integers(0, hot_words, rows - split) * 4
    offsets = np.concatenate([streaming, hot])
    write_share = np.concatenate([
        np.full(split, rng.uniform(0.1, 0.4)),
        np.full(rows - split, rng.uniform(0.1, 0.4)),
    ])
    writes = rng.random(rows) < write_share
    body = "\n".join(f"{offset},{'W' if write else 'R'}"
                     for offset, write in zip(offsets.tolist(),
                                              writes.tolist()))
    return "offset,rw\n" + body + "\n"


def write_trace_csv(seed: int, path: pathlib.Path,
                    rows: int = TRACE_ROWS) -> pathlib.Path:
    path.write_text(trace_csv_text(seed, rows))
    return path
