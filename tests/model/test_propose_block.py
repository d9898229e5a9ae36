"""The vectorized Fig-2 proposer is pinned to ``decide``.

For every row, ``propose_block`` must answer exactly
``proposed_model(decide(profile, degraded), current)``, where
``degraded`` is the scalar reference's contended board for ``factor``,
and report that board's GPU threshold — on random profiles,
devices and degradation factors, including exact zone-boundary ties,
``factor == 1``, a non-positive SC→ZC headroom, profiles with no eqn-3
estimate and implausible usages.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model.decision import (
    MODELS,
    cache_usages,
    decide,
    implausible_usage,
    model_code,
    propose_block,
    proposed_model,
)
from repro.profiling.counters import AppProfile, ProfileColumns
from tests.model.test_decision import make_device
from tests.stream.multi_reference import reference_degraded

#: Powers of two scale thresholds exactly, so ``bound / factor * factor``
#: lands back on the bound and a usage can tie it bit for bit.
EXACT_FACTORS = (1.0, 0.5, 0.25, 0.125)


@pytest.fixture(scope="module")
def devices(nano_device, tx2_device, xavier_device):
    return {"nano": nano_device, "tx2": tx2_device, "xavier": xavier_device,
            "synthetic": make_device(io_coherent=True, gpu_zone2=40.0),
            "synthetic-nozone": make_device()}


times = st.floats(0.0, 1e-2, allow_nan=False)


@st.composite
def profiles(draw, board):
    kernel = draw(st.floats(1e-7, 1e-2))
    total = draw(st.one_of(st.just(0.0), times, st.floats(1e-7, 5e-2)))
    copy = draw(st.one_of(st.just(0.0), st.just(total), times))
    if copy > total > 0:
        copy = total  # copy == total: valid, but eqn 3 has no estimate
    return AppProfile(
        workload_name="app", board_name=board,
        model=draw(st.sampled_from(MODELS)),
        cpu_l1_miss_rate=draw(st.floats(0.0, 1.0)),
        cpu_llc_miss_rate=draw(st.floats(0.0, 1.0)),
        cpu_time_s=draw(times),
        gpu_l1_hit_rate=draw(st.floats(0.0, 1.0)),
        gpu_transactions=draw(st.integers(0, 10 ** 9)),
        gpu_transaction_size=draw(st.sampled_from([4.0, 32.0, 64.0,
                                                   128.0, 4096.0])),
        kernel_runtime_s=kernel,
        copy_time_s=copy,
        total_runtime_s=total,
    )


def tie(device, usage, factor, bound):
    """``device`` with its threshold (or zone-2 bound) placed so that the
    degraded bound equals ``usage`` exactly."""
    gpu = device.gpu_thresholds
    value = usage / factor if factor < 1.0 else usage
    if bound == "threshold":
        gpu = replace(gpu, threshold_pct=value)
    else:
        # Keep the threshold strictly below, so the tie is zone 2's.
        gpu = replace(gpu, zone2_pct=value,
                      threshold_pct=min(gpu.threshold_pct, value / 2))
    return replace(device, gpu_thresholds=gpu)


@given(data=st.data(),
       board=st.sampled_from(["nano", "tx2", "xavier", "synthetic",
                              "synthetic-nozone"]),
       io_coherent=st.sampled_from([None, True, False]),
       sc_zc_cap=st.sampled_from([None, 0.5, 1.0, 1.7, 3.0]),
       bound=st.sampled_from([None, "threshold", "zone2"]),
       rows=st.integers(1, 12))
@settings(max_examples=250, deadline=None)
def test_proposer_matches_decide(devices, data, board, io_coherent,
                                 sc_zc_cap, bound, rows):
    device = devices[board]
    if io_coherent is not None:
        device = replace(device, io_coherent=io_coherent)
    if sc_zc_cap is not None:
        device = replace(device, sc_zc_max_speedup=sc_zc_cap)
    board_name = device.board_name
    batch = [data.draw(profiles(board_name)) for _ in range(rows)]
    factors = np.array([data.draw(st.one_of(
        st.sampled_from(EXACT_FACTORS + (1.5,)),
        st.floats(1e-3, 1.0))) for _ in range(rows)])
    columns = ProfileColumns.from_profiles(batch)
    assert columns.valid.all()
    if bound is not None:
        # Tie row 0's usage to a bound (only exact factors tie exactly).
        factors[0] = data.draw(st.sampled_from(EXACT_FACTORS))
        _, gpu_usage = cache_usages(columns, device)
        device = tie(device, float(gpu_usage[0]), float(factors[0]), bound)
    current = np.array([model_code(p.model) for p in batch])

    proposals, thresholds = propose_block(columns, current, device, factors)
    implausible = implausible_usage(columns, device)
    for i, profile in enumerate(batch):
        effective = reference_degraded(device, float(factors[i]))
        try:
            decide(profile, effective)
            rejected = False
        except ModelError as error:
            assert error.code == "GUARD_CACHE_USAGE"
            rejected = True
        assert implausible[i] == rejected
        expected = proposed_model(decide(profile, effective, strict=False),
                                  profile.model)
        assert MODELS[proposals[i]] == expected, (i, profile, factors[i])
        assert thresholds[i] == effective.gpu_threshold_pct


def test_tie_lands_exactly_on_the_bound(devices):
    # The helper the property relies on really produces exact ties.
    device = devices["xavier"]
    profile = AppProfile(
        workload_name="app", board_name="xavier", model="SC",
        cpu_l1_miss_rate=0.01, cpu_llc_miss_rate=0.5, cpu_time_s=1e-4,
        gpu_l1_hit_rate=0.3, gpu_transactions=123_457,
        gpu_transaction_size=64.0, kernel_runtime_s=3e-4,
        copy_time_s=5e-5, total_runtime_s=6e-4)
    columns = ProfileColumns.from_profiles([profile])
    usage = float(cache_usages(columns, device)[1][0])
    for factor in EXACT_FACTORS:
        tied = tie(device, usage, factor, "threshold").degraded(factor)
        assert tied.gpu_threshold_pct == usage
        tied = tie(device, usage, factor, "zone2").degraded(factor)
        assert tied.gpu_zone2_pct == usage


@given(board=st.sampled_from(["nano", "tx2", "xavier", "synthetic",
                              "synthetic-nozone"]),
       sc_zc_cap=st.sampled_from([None, 0.5, 1.0, 1.7, 3.0]),
       factors=st.lists(st.one_of(st.sampled_from(EXACT_FACTORS + (1.5,)),
                                  st.floats(1e-3, 1.0)),
                        min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_degraded_board_matches_reference(devices, board, sc_zc_cap,
                                          factors):
    # One policy serves both the scalar board and the proposer's arrays.
    device = devices[board]
    if sc_zc_cap is not None:
        device = replace(device, sc_zc_max_speedup=sc_zc_cap)
    threshold, zone2, cap = device.degraded_bounds(np.array(factors))
    for i, factor in enumerate(factors):
        expected = reference_degraded(device, factor)
        assert device.degraded(factor) == expected
        assert threshold[i] == expected.gpu_threshold_pct
        if zone2 is None:
            assert expected.gpu_thresholds.zone2_pct is None
        else:
            assert zone2[i] == expected.gpu_zone2_pct
        assert np.broadcast_to(cap, len(factors))[i] == \
            expected.sc_zc_max_speedup


def test_unknown_model_code_is_structured():
    with pytest.raises(ModelError) as err:
        model_code("DMA")
    assert err.value.code == "MODEL_UNKNOWN"


def test_invalid_rows_follow_profile_validation():
    # ProfileColumns marks exactly the rows AppProfile would reject.
    ok = dict(cpu_l1_miss_rate=0.1, cpu_llc_miss_rate=0.2, cpu_time_s=1e-3,
              gpu_l1_hit_rate=0.5, gpu_transactions=10,
              gpu_transaction_size=4.0, kernel_runtime_s=1e-3,
              copy_time_s=1e-4, total_runtime_s=2e-3)
    bad = [
        {"cpu_l1_miss_rate": 1.5}, {"gpu_l1_hit_rate": -0.1},
        {"cpu_time_s": float("nan")}, {"gpu_transaction_size": -1.0},
        {"kernel_runtime_s": -1e-3}, {"copy_time_s": 3e-3},
        {"total_runtime_s": float("inf")},
    ]
    rows = [ok] + [{**ok, **change} for change in bad] + [
        {**ok, "copy_time_s": 3e-3, "total_runtime_s": 0.0}]
    columns = ProfileColumns(
        valid=np.ones(len(rows), dtype=bool),
        **{name: np.array([row[name] for row in rows]) for name in ok})
    expected = []
    for row in rows:
        try:
            AppProfile(workload_name="a", board_name="b", model="SC", **row)
            expected.append(True)
        except Exception:
            expected.append(False)
    assert columns.valid.tolist() == expected
    assert expected[0] and expected[-1] and not any(expected[1:-1])


def test_usage_exactly_at_the_plausibility_limit():
    # 120 % is still plausible for decide(); one step above is not.
    device = make_device()
    rows = [AppProfile(
        workload_name="app", board_name="tx2", model="SC",
        cpu_l1_miss_rate=0.0, cpu_llc_miss_rate=0.0, cpu_time_s=0.5,
        gpu_l1_hit_rate=0.0, gpu_transactions=transactions,
        gpu_transaction_size=64.0, kernel_runtime_s=1.0, copy_time_s=0.1,
        total_runtime_s=2.0) for transactions in (1_875_000_000,
                                                  1_875_000_001)]
    columns = ProfileColumns.from_profiles(rows)
    assert cache_usages(columns, device)[1][0] == 120.0
    assert implausible_usage(columns, device).tolist() == [False, True]
    decide(rows[0], device)
    with pytest.raises(ModelError) as err:
        decide(rows[1], device)
    assert err.value.code == "GUARD_CACHE_USAGE"
