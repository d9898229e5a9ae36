"""Window sources: profile round-trips and trace-replay classification."""

import io

import numpy as np
import pytest

from repro.errors import StreamError
from repro.profiling.metrics import (
    profile_cpu_cache_usage,
    profile_gpu_cache_usage,
)
from repro.profiling.trace import RecordedTrace
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.stream.sources import (
    COUNTER_COLUMNS,
    CounterWindowSource,
    LocalityModel,
    TraceWindowSource,
)
from repro.stream.window import SlidingWindow, WindowSpec


class TestCounterSource:
    def test_bad_shape_rejected(self):
        with pytest.raises(StreamError) as err:
            CounterWindowSource(np.ones((4, 3), dtype=np.int64), "w", "b")
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_float_samples_rejected(self):
        samples = np.ones((4, len(COUNTER_COLUMNS)))
        with pytest.raises(StreamError) as err:
            CounterWindowSource(samples, "w", "b")
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_stationary_roundtrip_preserves_rates(self, shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        windower = SlidingWindow(WindowSpec(1024, 512), len(source.columns))
        for chunk in source.feature_chunks(1024):
            emissions, sums = windower.push(chunk)
            if len(emissions):
                break
        windowed = source.to_profile(sums[0], model="SC")
        assert windowed.cpu_l1_miss_rate == \
            pytest.approx(shwfs_profile.cpu_l1_miss_rate, rel=1e-3)
        assert windowed.gpu_l1_hit_rate == \
            pytest.approx(shwfs_profile.gpu_l1_hit_rate, rel=1e-3)
        assert windowed.gpu_transaction_size == \
            pytest.approx(shwfs_profile.gpu_transaction_size, rel=1e-3)

    def test_usage_series_matches_scalar_eqns(self, shwfs_profile,
                                              xavier_device):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        windower = SlidingWindow(WindowSpec(1024, 256),
                                 len(source.columns))
        sums = np.concatenate([
            windower.push(chunk)[1]
            for chunk in source.feature_chunks(1024)
        ])
        series = source.usage_series(sums, xavier_device)
        assert series.shape == (len(sums), 2)
        for row, total in zip(series, sums):
            profile = source.to_profile(total, model="SC")
            assert row[0] == pytest.approx(
                profile_cpu_cache_usage(profile))
            assert row[1] == pytest.approx(profile_gpu_cache_usage(
                profile, xavier_device.gpu_peak_throughput))

    def test_empty_window_rejected(self, shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=16)
        with pytest.raises(StreamError) as err:
            source.to_profile(np.zeros(len(COUNTER_COLUMNS),
                                       dtype=np.int64), model="SC")
        assert err.value.code == "STREAM_EMPTY_WINDOW"

    def test_drifting_switch_validated(self, shwfs_profile):
        with pytest.raises(StreamError) as err:
            CounterWindowSource.drifting(shwfs_profile, shwfs_profile,
                                         samples=64, switch_at=64)
        assert err.value.code == "STREAM_BAD_FEATURES"


def sample_trace(n=4096, seed=5):
    rng = np.random.default_rng(seed)
    sequential = (np.arange(n, dtype=np.int64) * 4) % 4096
    scattered = rng.integers(0, 1 << 20, n) * 4
    offsets = np.where(rng.random(n) < 0.7, sequential, scattered)
    return RecordedTrace(offsets=offsets.astype(np.int64),
                         is_write=rng.random(n) < 0.25)


def reference_features(trace, locality=LocalityModel()):
    """One-access-at-a-time reference for the trace feature matrix.

    L1 hit: the line is among the last ``l1_recent`` accessed lines.
    LLC hit: the direct-mapped set still holds the line, and the access
    did not already hit L1.
    """
    recent = []
    set_lines = [-1] * locality.llc_sets
    rows = []
    for offset, write in zip(trace.offsets, trace.is_write):
        line = int(offset) // locality.line_size
        l1 = line in recent
        cache_set = line % locality.llc_sets
        llc = set_lines[cache_set] == line and not l1
        set_lines[cache_set] = line
        recent.append(line)
        if len(recent) > locality.l1_recent:
            recent.pop(0)
        latency = (locality.l1_ns if l1 else
                   locality.llc_ns if llc else locality.dram_ns)
        rows.append([1, int(write), trace.access_size, int(l1), int(llc),
                     latency])
    return np.asarray(rows, dtype=np.int64).reshape(-1, 6)


class TestTraceSource:
    def test_vectorized_matches_scalar(self):
        """``feature_chunks`` equals the scalar reference for several
        traces, locality models and chunk sizes (locality state crosses
        chunk cuts)."""
        small = LocalityModel(line_size=16, l1_recent=3, llc_sets=5)
        for seed, n, locality in ((5, 4096, LocalityModel()),
                                  (21, 1500, LocalityModel()),
                                  (22, 333, small)):
            trace = sample_trace(n=n, seed=seed)
            expected = reference_features(trace, locality)
            source = TraceWindowSource(trace, "t", "xavier",
                                       locality=locality)
            for chunk in (1, 7, 64, 512, n):
                rows = np.concatenate(list(source.feature_chunks(chunk)))
                assert np.array_equal(rows, expected), (seed, chunk)

    def test_chunking_invariant(self):
        trace = sample_trace(seed=6)
        source = TraceWindowSource(trace, "t", "xavier")
        big = np.concatenate(list(source.feature_chunks(4096)))
        small = np.concatenate(list(source.feature_chunks(97)))
        assert np.array_equal(big, small)

    def test_injection_uses_scalar_path(self):
        """No fault seam is reachable from feature extraction: under an
        active plan the one (vectorized) classifier still answers, and
        equals the clean scalar reference."""
        trace = sample_trace(seed=7)
        source = TraceWindowSource(trace, "t", "xavier")
        with inject_faults(FaultPlan(seed=0)):
            gated = np.concatenate(list(source.feature_chunks(512)))
        assert np.array_equal(gated, reference_features(trace))

    def test_csv_stream_is_single_pass(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{i * 4},r\n" for i in range(256)))
        source = TraceWindowSource.from_csv(
            path, workload_name="t", board_name="xavier")
        assert len(list(source.feature_chunks(64))) >= 1
        with pytest.raises(StreamError) as err:
            list(source.feature_chunks(64))
        assert err.value.code == "STREAM_SOURCE_CONSUMED"

    def test_recorded_trace_is_replayable(self):
        source = TraceWindowSource(sample_trace(seed=8), "t", "xavier")
        first = np.concatenate(list(source.feature_chunks(512)))
        second = np.concatenate(list(source.feature_chunks(512)))
        assert np.array_equal(first, second)

    def test_locality_model_validated(self):
        with pytest.raises(StreamError) as err:
            LocalityModel(line_size=0).validated()
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_window_profile_is_plausible(self, xavier_device):
        from repro.model.decision import decide

        source = TraceWindowSource(sample_trace(seed=9), "t", "xavier")
        windower = SlidingWindow(WindowSpec(1024, 512),
                                 len(source.columns))
        sums = np.concatenate([
            windower.push(chunk)[1]
            for chunk in source.feature_chunks(1024)
        ])
        profile = source.to_profile(sums[0], model="SC")
        assert 0.0 <= profile.gpu_l1_hit_rate <= 1.0
        assert profile.kernel_runtime_s > 0
        decide(profile, xavier_device)  # must not raise guards
