"""The set-lockstep LRU cache equals the OrderedDict reference (hypothesis).

Multi-segment traces, with flushes, invalidations, resets and enable
toggles between segments, replay through
:class:`repro.soc.cache.SetAssociativeCache` and the temporal-order
reference in :mod:`tests.soc.lru_reference`.  After every operation the
two must agree exactly: hit masks, miss addresses in order, writebacks,
resident and dirty line counts, ``flush()`` results and every
:class:`~repro.soc.cache.CacheStats` counter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.cache import CacheConfig, SetAssociativeCache
from tests.soc.lru_reference import ReferenceLRUCache

LINE = 64

geometry = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]),  # sets
    st.integers(min_value=1, max_value=6),  # ways
    st.booleans(),  # write_back
    st.booleans(),  # write_allocate
)

# (line index, byte offset, write, run length): runs of the same line
# exercise run-collapsing; a small line range forces conflicts.
access = st.tuples(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=LINE - 1),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)
segment = st.lists(access, min_size=0, max_size=120).map(lambda a: ("trace", a))
maintenance = st.sampled_from(["flush", "invalidate", "reset", "toggle"])
operations = st.lists(
    st.one_of(segment, segment, maintenance.map(lambda m: (m, None))),
    min_size=1,
    max_size=10,
)


def build(geo):
    sets, ways, write_back, write_allocate = geo
    config = CacheConfig(
        name="oracle",
        size_bytes=sets * ways * LINE,
        line_size=LINE,
        ways=ways,
        write_back=write_back,
        write_allocate=write_allocate,
    )
    return SetAssociativeCache(config), ReferenceLRUCache(config)


def expand(accesses):
    addrs, writes = [], []
    for line, offset, write, run in accesses:
        for k in range(run):
            addrs.append(line * LINE + (offset + 8 * k) % LINE)
            writes.append(write and k % 2 == 0)
    return np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)


def assert_same_state(fast, ref):
    assert fast.resident_lines == ref.resident_lines
    assert fast.dirty_lines == ref.dirty_lines
    assert vars(fast.stats) == vars(ref.stats)


@given(geo=geometry, ops=operations)
@settings(max_examples=300, deadline=None)
def test_lockstep_matches_reference(geo, ops):
    fast, ref = build(geo)
    for op, payload in ops:
        if op == "trace":
            addrs, writes = expand(payload)
            got = fast.access_trace(addrs, writes)
            want = ref.access_trace(addrs, writes)
            assert np.array_equal(got.hits, want.hits)
            assert np.array_equal(got.miss_line_addresses,
                                  want.miss_line_addresses)
            assert got.writeback_lines == want.writeback_lines
            for addr in addrs[:16].tolist():
                assert fast.contains(addr) == ref.contains(addr)
        elif op == "flush":
            assert fast.flush() == ref.flush()
        elif op == "invalidate":
            assert fast.invalidate() == ref.invalidate()
        elif op == "reset":
            fast.reset()
            ref.reset()
        else:
            fast.enabled = ref.enabled = not fast.enabled
        assert_same_state(fast, ref)


def test_long_single_set_trace():
    """Many lockstep rounds on one set (the worst case for the engine)."""
    fast, ref = build((1, 6, True, True))
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 12, size=2000) * LINE
    writes = rng.random(2000) < 0.3
    got = fast.access_trace(addrs, writes)
    want = ref.access_trace(addrs, writes)
    assert np.array_equal(got.hits, want.hits)
    assert np.array_equal(got.miss_line_addresses, want.miss_line_addresses)
    assert got.writeback_lines == want.writeback_lines
    assert fast.flush() == ref.flush()
    assert_same_state(fast, ref)
