"""Drift detector: warm-up, step response, determinism, reference parity."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.stream.drift import DriftConfig, DriftDetector

CFG = DriftConfig(lag=2, reference=4)


def run_detector(metrics, config=CFG, block=None):
    detector = DriftDetector(config, num_metrics=metrics.shape[1])
    if block is None:
        return detector.update(metrics)
    flags = []
    for start in range(0, len(metrics), block):
        flags.append(detector.update(metrics[start:start + block]))
    return np.concatenate(flags)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"lag": 0}, {"reference": 0}, {"rel_threshold": -0.1},
        {"abs_floor_pct": -1.0},
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(StreamError) as err:
            DriftConfig(**kwargs).validated()
        assert err.value.code == "STREAM_BAD_DRIFT"

    def test_bad_metric_shape(self):
        detector = DriftDetector(CFG, num_metrics=2)
        with pytest.raises(StreamError) as err:
            detector.update(np.zeros((4, 3)))
        assert err.value.code == "STREAM_BAD_DRIFT"


class TestBehaviour:
    def test_stationary_never_flags(self):
        metrics = np.full((60, 2), 42.0)
        assert not run_detector(metrics).any()

    def test_warmup_never_flags(self):
        # Wild values inside lag + reference are establishment, not drift.
        rng = np.random.default_rng(0)
        metrics = rng.uniform(0, 100, size=(CFG.lag + CFG.reference, 2))
        assert not run_detector(metrics).any()

    def test_step_change_flags(self):
        metrics = np.full((40, 2), 10.0)
        metrics[20:] = 30.0  # 3x the 25 % relative band
        flags = run_detector(metrics)
        assert not flags[:20].any()
        assert flags[20]
        # Once the reference catches up past the lag, the new level is
        # normal again — the detector does not latch.
        assert not flags[-1]

    def test_small_wiggle_below_floor_ignored(self):
        metrics = np.full((40, 2), 10.0)
        metrics[25] = 10.3  # within the 0.5 pp absolute floor
        assert not run_detector(metrics).any()

    def test_disabled_detector_never_flags(self):
        metrics = np.zeros((30, 1))
        metrics[20:] = 99.0
        config = DriftConfig(lag=2, reference=4, enabled=False)
        assert not run_detector(metrics, config=config).any()


class TestDeterminism:
    def test_block_size_invariance(self):
        rng = np.random.default_rng(7)
        metrics = rng.uniform(0, 50, size=(97, 2))
        reference = run_detector(metrics)
        for block in (1, 3, 10, 97):
            assert np.array_equal(run_detector(metrics, block=block),
                                  reference)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(11)
        metrics = rng.uniform(0, 50, size=(64, 2))
        assert np.array_equal(run_detector(metrics),
                              run_detector(metrics))

    def test_injection_scalar_path_matches(self):
        # No fault seam is reachable from the detector: an active plan
        # changes nothing.
        rng = np.random.default_rng(13)
        metrics = rng.uniform(0, 50, size=(80, 2))
        clean = run_detector(metrics)
        with inject_faults(FaultPlan(seed=0)):
            gated = run_detector(metrics)
        assert np.array_equal(gated, clean)


def reference_flags(metrics, config=CFG):
    """Per-emission reference: re-sum each reference slice directly."""
    flags = np.zeros(len(metrics), dtype=bool)
    if not config.enabled:
        return flags
    for g in range(len(metrics)):
        hi = g - config.lag
        lo = hi - config.reference
        if lo < 0:
            continue
        ref = metrics[lo:hi].sum(axis=0) / config.reference
        dev = np.abs(metrics[g] - ref)
        tol = np.maximum(config.rel_threshold * np.abs(ref),
                         config.abs_floor_pct)
        flags[g] = bool((dev > tol).any())
    return flags


class TestReference:
    """The prefix-sum update equals the direct per-emission re-sum.

    Metrics are multiples of 1/8 in a small range, so every partial
    sum is exact in float64 and the two arithmetics must agree bit for
    bit; random block splits cover the carried history.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_random_blocks_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        config = DriftConfig(lag=int(rng.integers(1, 5)),
                             reference=int(rng.integers(1, 9)))
        n = int(rng.integers(40, 150))
        # Four plateaus with small noise: steps flag, plateaus do not.
        levels = np.repeat(rng.integers(8, 40, size=4), -(-n // 4))[:n]
        metrics = levels[:, None] + rng.integers(-8, 9, size=(n, 3)) / 8.0
        expected = reference_flags(metrics, config)
        warm = config.lag + config.reference
        assert expected[warm:].any() and not expected[warm:].all()
        detector = DriftDetector(config, num_metrics=3)
        cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
        got = [detector.update(block) for block in np.split(metrics, cuts)]
        assert np.array_equal(np.concatenate(got), expected)
