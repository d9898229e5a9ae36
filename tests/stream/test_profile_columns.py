"""Window sums become the same profiles as the scalar reference.

On random window sums — including counts beyond 2**53, where float64
division and Python's ``int / int`` can round differently — every
field of ``profile_columns`` and of ``to_profile`` (its one-row case)
must equal the ``AppProfile`` that ``reference_profile`` builds one
Python scalar at a time.  A row is valid exactly when the reference
succeeds, and ``to_profile`` raises the reference's error otherwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.stream.sources import (
    COUNTER_COLUMNS,
    TRACE_COLUMNS,
    CounterWindowSource,
    CpuSideModel,
    TraceWindowSource,
)
from tests.stream.multi_reference import reference_profile

FIELDS = ("cpu_l1_miss_rate", "cpu_llc_miss_rate", "cpu_time_s",
          "gpu_l1_hit_rate", "gpu_transactions", "gpu_transaction_size",
          "kernel_runtime_s", "copy_time_s", "total_runtime_s")

counts = st.one_of(st.integers(0, 50), st.integers(0, 10 ** 9),
                   st.integers(2 ** 53 - 5, 2 ** 62))


def raised(build):
    try:
        return build(), None
    except ReproError as error:
        return None, (error.code, error.message)


def assert_mirrors(source, sums, model):
    columns = source.profile_columns(sums, model)
    for row in range(len(sums)):
        expected, error = raised(
            lambda: reference_profile(source, sums[row], model))
        profile, got_error = raised(
            lambda: source.to_profile(sums[row], model=model))
        assert got_error == error, row
        assert columns.valid[row] == (error is None), row
        if error is not None:
            continue
        assert profile == expected, row
        for name in FIELDS:
            assert getattr(columns, name)[row] == getattr(expected, name), \
                (row, name)


@given(rows=st.lists(st.lists(counts, min_size=len(COUNTER_COLUMNS),
                              max_size=len(COUNTER_COLUMNS)),
                     min_size=1, max_size=8),
       model=st.sampled_from(["SC", "UM", "ZC"]))
@settings(max_examples=200, deadline=None)
def test_counter_columns_mirror_to_profile(rows, model):
    sums = np.array(rows, dtype=np.int64)
    source = CounterWindowSource(sums, workload_name="app",
                                 board_name="xavier")
    assert_mirrors(source, sums, model)


@given(rows=st.lists(st.lists(counts, min_size=len(TRACE_COLUMNS),
                              max_size=len(TRACE_COLUMNS)),
                     min_size=1, max_size=8),
       model=st.sampled_from(["SC", "UM", "ZC"]),
       cpu_side=st.builds(CpuSideModel,
                          cpu_l1_miss_rate=st.sampled_from([0.05, 1.5]),
                          cpu_time_ratio=st.sampled_from([0.0, 0.5, 3.0])))
@settings(max_examples=200, deadline=None)
def test_trace_columns_mirror_to_profile(rows, model, cpu_side):
    sums = np.array(rows, dtype=np.int64)
    source = TraceWindowSource(iter(()), workload_name="app",
                               board_name="xavier", cpu_side=cpu_side)
    assert_mirrors(source, sums, model)


def test_large_counts_divide_like_python_ints():
    # Converting to float64 before dividing rounds twice and lands one
    # ulp away from Python's correctly rounded int / int here.
    num, den = 4_121_066_194_404_411_007, 930
    assert num / den != float(np.float64(num) / np.float64(den))
    sums = np.zeros((1, len(COUNTER_COLUMNS)), dtype=np.int64)
    col = {name: i for i, name in enumerate(COUNTER_COLUMNS)}
    sums[0, col["gpu_accesses"]] = den
    sums[0, col["gpu_bytes"]] = num
    sums[0, col["kernel_ns"]] = 1
    source = CounterWindowSource(sums, workload_name="app",
                                 board_name="xavier")
    columns = source.profile_columns(sums, "SC")
    assert columns.gpu_transaction_size[0] == num / den
    assert_mirrors(source, sums, "SC")
