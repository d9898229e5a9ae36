"""Unit tests of the timing-backend protocol and stream synthesis."""

import pickle

import numpy as np
import pytest

from repro import SoC, get_board
from repro.errors import ConfigurationError, SimulationError
from repro.sim.backend import (
    ANALYTIC,
    BACKEND_NAMES,
    AnalyticBackend,
    SimulatedBackend,
    get_backend,
)
from repro.sim.config import SimConfig
from repro.soc.stream import AccessStream, PatternKind


class TestResolution:
    def test_none_is_analytic(self):
        assert get_backend(None) is ANALYTIC

    def test_names_resolve(self):
        assert get_backend("analytic").is_analytic
        backend = get_backend("simulated")
        assert isinstance(backend, SimulatedBackend)
        assert not backend.is_analytic

    def test_instance_passes_through(self):
        backend = SimulatedBackend(config=SimConfig(seed=7))
        assert get_backend(backend) is backend

    def test_instance_plus_config_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend(SimulatedBackend(), config=SimConfig())

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("cycle-accurate")

    def test_config_reaches_simulated(self):
        backend = get_backend("simulated", config=SimConfig(seed=3))
        assert backend.config.seed == 3

    def test_names_cover_registry(self):
        assert BACKEND_NAMES == ("analytic", "simulated")


class TestIdentity:
    def test_backends_hash_and_compare_by_value(self):
        assert AnalyticBackend() == AnalyticBackend()
        assert SimulatedBackend() == SimulatedBackend()
        assert SimulatedBackend() != SimulatedBackend(
            config=SimConfig(seed=1)
        )
        suites = {AnalyticBackend(): "a", SimulatedBackend(): "s"}
        assert suites[AnalyticBackend()] == "a"

    def test_backends_pickle(self):
        backend = SimulatedBackend(config=SimConfig(seed=5))
        clone = pickle.loads(pickle.dumps(backend))
        assert clone == backend
        assert clone.config.seed == 5

    def test_cache_tokens_distinct(self):
        tokens = {
            str(AnalyticBackend().cache_token()),
            str(SimulatedBackend().cache_token()),
            str(SimulatedBackend(config=SimConfig(seed=9)).cache_token()),
        }
        assert len(tokens) == 3


class TestSynthesis:
    def setup_method(self):
        self.soc = SoC(get_board("xavier"), backend=SimulatedBackend())
        self.hierarchy = self.soc.cpu.hierarchy
        self.backend = self.soc.backend

    def test_materialized_stream_verbatim(self):
        addrs = np.array([0, 64, 128], dtype=np.int64)
        writes = np.array([False, True, False])
        stream = AccessStream(
            addresses=addrs, is_write=writes, transaction_size=8
        )
        out_addrs, out_writes, scale = self.backend.synthesize(
            stream, self.hierarchy
        )
        assert out_addrs is addrs
        assert out_writes is writes
        assert scale == 1.0

    def test_small_virtual_stream_not_scaled(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.LINEAR,
            per_pass=1024,
            footprint_bytes=8192,
            transaction_size=8,
        )
        addrs, writes, scale = self.backend.synthesize(stream, self.hierarchy)
        assert scale == 1.0
        assert len(addrs) == 1024
        assert addrs.max() < 8192
        assert not writes.any()

    def test_huge_virtual_stream_windowed(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.LINEAR,
            per_pass=1 << 24,
            footprint_bytes=1 << 30,
            transaction_size=64,
        )
        addrs, writes, scale = self.backend.synthesize(stream, self.hierarchy)
        assert len(addrs) < stream.transactions_per_pass
        assert scale == pytest.approx(
            stream.transactions_per_pass / len(addrs)
        )
        # The window must exceed twice the largest cache so capacity
        # misses survive the cut.
        largest = max(
            c.config.num_lines * c.config.line_size
            for c in self.hierarchy.caches
        )
        assert addrs.max() >= 2 * largest - 64

    def test_write_fraction_bresenham_exact(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.LINEAR,
            per_pass=1000,
            footprint_bytes=64000,
            transaction_size=64,
            write_fraction=0.5,
        )
        _, writes, _ = self.backend.synthesize(stream, self.hierarchy)
        assert int(writes.sum()) == 500
        # ld/st pairing: reads and writes strictly alternate at 0.5.
        assert not writes[0] and writes[1]

    def test_sparse_synthesis_is_seeded_permutation(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.SPARSE,
            per_pass=4096,
            footprint_bytes=1 << 20,
            transaction_size=64,
        )
        a1, _, _ = self.backend.synthesize(stream, self.hierarchy)
        a2, _, _ = self.backend.synthesize(stream, self.hierarchy)
        assert np.array_equal(a1, a2)  # deterministic under one seed
        other = SimulatedBackend(config=SimConfig(seed=11))
        a3, _, _ = other.synthesize(stream, self.hierarchy)
        assert not np.array_equal(a1, a3)

    def test_single_address_synthesis(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.SINGLE_ADDRESS,
            per_pass=256,
            footprint_bytes=8,
            transaction_size=8,
        )
        addrs, _, _ = self.backend.synthesize(stream, self.hierarchy)
        assert not addrs.any()


class TestHierarchyIntegration:
    def test_process_summaries_guarded_on_simulated(self):
        from repro.soc.analytic import SummaryBatch

        soc = SoC(get_board("tx2"), backend="simulated")
        batch = SummaryBatch.build(
            pattern=PatternKind.LINEAR,
            per_pass=1024,
            repeats=1,
            footprint_bytes=65536,
            write_fraction=0.0,
            transaction_size=64,
        )
        with pytest.raises(SimulationError):
            soc.gpu.hierarchy.process_summaries(batch)

    def test_batch_sweeps_declare_analytic_only(self):
        from repro.perf.batch import BatchUnsupported, mb2_gpu_points

        soc = SoC(get_board("tx2"), backend="simulated")
        with pytest.raises(BatchUnsupported):
            mb2_gpu_points(soc, [0.5], array_bytes=1 << 16, sweep_repeats=1)

    def test_simulated_process_close_to_analytic_on_streaming(self):
        stream = AccessStream.virtual_stream(
            pattern=PatternKind.LINEAR,
            per_pass=1 << 16,
            footprint_bytes=1 << 22,
            transaction_size=64,
        )
        board = get_board("xavier")
        times = {}
        for name in BACKEND_NAMES:
            soc = SoC(board, backend=name)
            result = soc.gpu.hierarchy.process(stream, mode="auto")
            times[name] = result.streaming_time_s
            soc.gpu.hierarchy.reset()
        assert times["simulated"] == pytest.approx(
            times["analytic"], rel=0.5
        )
