"""Performance regression gate (``repro bench --check``).

The vectorized fast paths earn their complexity only while they stay
fast.  This module re-measures each one against its scalar reference
and compares the fresh speedup with the value committed in the
``BENCH_*.json`` baselines at the repo root: a path whose speedup fell
more than :data:`REGRESSION_THRESHOLD` below its baseline is flagged
and :func:`check` reports exit code :data:`EXIT_REGRESSION`.

The same probes produce the ``BENCH_app.json`` payload
(:func:`collect_app_bench`), so the baselines and the gate always
measure identical workload shapes.  The serving fast path is gated the
same way: ``serving.speedup`` compares coalesced vs serial sustained
decision throughput (measured by :mod:`repro.serve.bench`, baselined
in ``BENCH_serve.json``).

Every probe run is traced (``bench.probe`` spans) and its timings are
published through the :mod:`repro.obs` metrics registry as
``bench.<metric>.scalar_s`` / ``vectorized_s`` / ``speedup`` gauges.
When the gate fails, :func:`check` writes a Chrome-trace artifact next
to the baselines (or to ``trace_path``) for post-mortem inspection.
"""

from __future__ import annotations

import functools
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs

#: A metric regresses when its fresh speedup drops more than this
#: fraction below the committed baseline.
REGRESSION_THRESHOLD = 0.25

#: Process exit code :func:`check` reports for a regression.
EXIT_REGRESSION = 4

#: Default file name for the post-mortem trace a failed gate writes.
DEFAULT_TRACE_NAME = "bench-check-trace.json"

#: (scalar seconds, vectorized seconds) for one fast path.
_TimingPair = Tuple[float, float]


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timing_pair(slow: Callable[[], object], fast: Callable[[], object],
                 slow_repeats: int = 2, fast_repeats: int = 5) -> _TimingPair:
    """Best-of timings for a scalar/vectorized pair (fast path warmed)."""
    fast()  # warm imports and caches outside the timed region
    return _best_of(slow, slow_repeats), _best_of(fast, fast_repeats)


# ----------------------------------------------------------------------
# workload builders (cached: probes and warmups share one instance)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _trace_text(rows: int = 200_000) -> str:
    """A synthetic strict-format trace (``offset,rw`` rows)."""
    flags = ("r", "w", "R", "W", "read", "write", "0", "1")
    lines = ["offset,rw"]
    lines.extend(
        f"{(i * 6151) % (1 << 26)},{flags[i % len(flags)]}"
        for i in range(rows)
    )
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _descriptor_pair(n: int = 600, width: int = 32):
    import numpy as np

    rng = np.random.default_rng(7)
    a = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    b = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    return a, b


@functools.lru_cache(maxsize=None)
def _shwfs_inputs(rows: int = 48, cols: int = 48, size: int = 8):
    import numpy as np

    from repro.apps.shwfs.centroid import SubapertureGrid

    rng = np.random.default_rng(11)
    frame = rng.random((rows * size, cols * size))
    grid = SubapertureGrid(rows=rows, cols=cols, size_px=size)
    return frame, grid


@functools.lru_cache(maxsize=None)
def _tiling_inputs(phases: int = 256):
    from repro.comm.tiling import TilingPlan
    from repro.soc.events import OverlapJob
    from repro.soc.interconnect import InterconnectConfig

    plan = TilingPlan(
        buffer_name="bench",
        buffer_bytes=1 << 20,
        element_size=4,
        tile_bytes=64,
        num_tiles=(1 << 20) // 64,
        num_phases=phases,
    )
    cpu = OverlapJob(name="cpu", compute_time_s=1.0e-3,
                     memory_bytes=1.0e6, solo_bandwidth=20.0e9)
    gpu = OverlapJob(name="gpu", compute_time_s=2.0e-3,
                     memory_bytes=4.0e6, solo_bandwidth=40.0e9)
    return plan, cpu, gpu, InterconnectConfig(total_bandwidth=50.0e9)


@functools.lru_cache(maxsize=None)
def _whatif_workload():
    """A pinned, cache-independent workload (the MB3 shape).

    The closed-form :class:`~repro.perf.batch.ZcSweepEvaluator` only
    covers all-shared workloads; cached apps fall back to the scalar
    sweep by design, so they would measure nothing here.
    """
    from repro.microbench.third import ThirdMicroBenchmark
    from repro.soc.board import get_board
    from repro.soc.soc import SoC

    board = get_board("tx2")
    workload = ThirdMicroBenchmark(num_elements=2 ** 20).build_workload(
        SoC(board)
    )
    return workload, board


# ----------------------------------------------------------------------
# probes: each measures one fast path against its scalar reference
# ----------------------------------------------------------------------


def _probe_mb2_sweep() -> _TimingPair:
    from repro.microbench.second import SecondMicroBenchmark
    from repro.soc.board import get_board
    from repro.soc.soc import SoC

    board = get_board("nano")
    fast = SecondMicroBenchmark(vectorized=True)
    slow = SecondMicroBenchmark(vectorized=False)
    return _timing_pair(
        lambda: slow.run(SoC(board)), lambda: fast.run(SoC(board)),
        slow_repeats=1,
    )


def _probe_cache() -> _TimingPair:
    import tempfile

    from repro.microbench.suite import MicrobenchmarkSuite
    from repro.soc.board import get_board

    board = get_board("xavier")
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = _best_of(
            lambda: MicrobenchmarkSuite(cache_dir=cache_dir)
            .characterize(board),
            1,
        )
        warm = _best_of(
            lambda: MicrobenchmarkSuite(cache_dir=cache_dir)
            .characterize(board),
            5,
        )
    return cold, warm


def _probe_trace() -> _TimingPair:
    from repro.profiling.trace import RecordedTrace

    text = _trace_text()
    return _timing_pair(
        lambda: RecordedTrace.from_csv(io.StringIO(text), vectorized=False),
        lambda: RecordedTrace.from_csv(io.StringIO(text), vectorized=True),
        fast_repeats=3,
    )


def _probe_matching() -> _TimingPair:
    from repro.apps.orbslam.matching import match_descriptors

    a, b = _descriptor_pair()
    return _timing_pair(
        lambda: match_descriptors(a, b, vectorized=False),
        lambda: match_descriptors(a, b, vectorized=True),
    )


def _probe_centroids() -> _TimingPair:
    from repro.apps.shwfs.centroid import CentroidMethod, extract_centroids

    frame, grid = _shwfs_inputs()
    method = CentroidMethod.WINDOWED_COG
    return _timing_pair(
        lambda: extract_centroids(frame, grid, method, vectorized=False),
        lambda: extract_centroids(frame, grid, method, vectorized=True),
    )


def _probe_tiling() -> _TimingPair:
    from repro.comm.tiling import TiledZeroCopyPattern

    plan, cpu, gpu, interconnect = _tiling_inputs()
    fast = TiledZeroCopyPattern(plan, vectorized=True)
    slow = TiledZeroCopyPattern(plan, vectorized=False)
    return _timing_pair(
        lambda: slow.overlapped_execution(cpu, gpu, interconnect),
        lambda: fast.overlapped_execution(cpu, gpu, interconnect),
    )


def _probe_mb3() -> _TimingPair:
    from repro.microbench.third import ThirdMicroBenchmark
    from repro.soc.board import get_board
    from repro.soc.soc import SoC

    board = get_board("nano")
    fast = ThirdMicroBenchmark(vectorized=True)
    slow = ThirdMicroBenchmark(vectorized=False)
    return _timing_pair(
        lambda: slow.balance_sweep(SoC(board)),
        lambda: fast.balance_sweep(SoC(board)),
        fast_repeats=3,
    )


def _probe_whatif() -> _TimingPair:
    from repro.model.whatif import zc_bandwidth_sweep

    workload, board = _whatif_workload()
    return _timing_pair(
        lambda: zc_bandwidth_sweep(workload, board, vectorized=False),
        lambda: zc_bandwidth_sweep(workload, board, vectorized=True),
        fast_repeats=3,
    )


@functools.lru_cache(maxsize=None)
def _surrogate_fixture():
    """A small calibrated surrogate over a tx2-based 2-axis space,
    plus a held-out in-hull target board.

    Cached so the sweep+fit cost (a few dozen characterizations) is
    paid once per process no matter how often the probe reruns.
    """
    from repro.explore import Axis, BoardSpace, fit_surrogate
    from repro.microbench.suite import MicrobenchmarkSuite

    space = BoardSpace(
        "tx2",
        axes=(
            Axis("dram_bandwidth", (0.8, 1.0, 1.25)),
            Axis("zc_bandwidth", (0.5, 1.0, 2.0)),
        ),
    )
    suite = MicrobenchmarkSuite()
    surrogate, _, _ = fit_surrogate(space, suite, holdout=2, seed=7)
    target = space.board_at((0.9, 1.4))
    return surrogate, target


def _probe_surrogate() -> _TimingPair:
    """Cold full characterization vs surrogate answer (k probe points).

    Both sides run on a fresh suite (no memory or store cache) for the
    same held-out in-hull board; the fast side asserts the surrogate
    actually answered — a silent fallback would otherwise time the full
    characterization and report a bogus ~1x.
    """
    from repro.microbench.suite import MicrobenchmarkSuite

    surrogate, target = _surrogate_fixture()

    def fast():
        prediction = surrogate.characterize(
            target, suite=MicrobenchmarkSuite())
        assert prediction is not None, (
            f"surrogate fell back ({surrogate.last_fallback_reason}) on "
            f"the probe's in-hull board {target.name!r}"
        )

    return _timing_pair(
        lambda: MicrobenchmarkSuite().characterize(target),
        fast,
        slow_repeats=2,
    )


def _probe_serving() -> _TimingPair:
    """Serial vs coalesced sustained serving on a warm store.

    One end-to-end run of each side (the serve probe already amortizes
    noise over 48 requests), measured by :mod:`repro.serve.bench` with
    exactly the traffic shape committed in ``BENCH_serve.json``.
    """
    from repro.serve.bench import serving_timing_pair

    return serving_timing_pair()


def _probe_sim_sweep() -> _TimingPair:
    """Scalar vs lockstep event-driven simulation of one phase sweep.

    Replays the same linear + sparse virtual streams through the
    simulated timing backend with the NumPy lockstep engine on and off
    (results are pinned bit-identical by the ``tests/sim`` property
    suite, so this measures pure engine throughput).
    """
    from repro.sim.backend import SimulatedBackend
    from repro.sim.config import SimConfig
    from repro.soc.board import get_board
    from repro.soc.soc import SoC
    from repro.soc.stream import AccessStream, PatternKind

    board = get_board("xavier")

    def run(vectorized: bool) -> None:
        backend = SimulatedBackend(config=SimConfig(vectorized=vectorized))
        soc = SoC(board, backend=backend)
        for pattern in (PatternKind.LINEAR, PatternKind.SPARSE):
            stream = AccessStream.virtual_stream(
                pattern=pattern,
                per_pass=1 << 16,
                footprint_bytes=1 << 22,
                transaction_size=64,
                repeats=2,
                write_fraction=0.5,
            )
            soc.gpu.hierarchy.process(stream, mode="auto")

    return _timing_pair(
        lambda: run(False), lambda: run(True), slow_repeats=1, fast_repeats=3
    )


def _probe_stream_incremental() -> _TimingPair:
    """Prefix-sum window aggregation vs naive per-window recompute."""
    from repro.stream.bench import incremental_timing_pair

    return incremental_timing_pair()


def _probe_stream_decisions() -> _TimingPair:
    """Sustained streaming re-tune throughput.

    Returns ``(1.0, seconds_per_decision)``: the gate's
    scalar/vectorized ratio then equals decisions/sec, so the
    25 %-below-baseline failure rule acts as a rate floor.
    """
    from repro.stream.bench import decisions_timing_pair

    return decisions_timing_pair()


#: metric (dotted path into the baseline JSON) -> (baseline file, probe).
PROBES: Dict[str, Tuple[str, Callable[[], _TimingPair]]] = {
    "mb2_sweep.nano.speedup": ("BENCH_perf.json", _probe_mb2_sweep),
    "characterization_cache.speedup": ("BENCH_perf.json", _probe_cache),
    "paths.tiling.speedup": ("BENCH_app.json", _probe_tiling),
    "paths.matching.speedup": ("BENCH_app.json", _probe_matching),
    "paths.centroids.speedup": ("BENCH_app.json", _probe_centroids),
    "paths.trace_csv.speedup": ("BENCH_app.json", _probe_trace),
    "paths.mb3_balance_sweep.speedup": ("BENCH_app.json", _probe_mb3),
    "paths.whatif_sweep.speedup": ("BENCH_app.json", _probe_whatif),
    "serving.speedup": ("BENCH_serve.json", _probe_serving),
    "explore.surrogate_speedup": ("BENCH_perf.json", _probe_surrogate),
    "sim.sweep_throughput": ("BENCH_perf.json", _probe_sim_sweep),
    "stream.incremental_speedup": ("BENCH_stream.json",
                                   _probe_stream_incremental),
    "stream.decisions_per_sec": ("BENCH_stream.json",
                                 _probe_stream_decisions),
}


@dataclass(frozen=True)
class MetricCheck:
    """One baseline-vs-fresh comparison."""

    metric: str
    baseline_file: str
    baseline: Optional[float]
    measured: Optional[float]
    threshold: float

    @property
    def skipped(self) -> bool:
        """No committed baseline to compare against."""
        return self.baseline is None

    @property
    def floor(self) -> Optional[float]:
        """The lowest acceptable fresh speedup."""
        if self.baseline is None:
            return None
        return self.baseline * (1.0 - self.threshold)

    @property
    def regressed(self) -> bool:
        """Fresh speedup fell below :attr:`floor`."""
        return not self.skipped and self.measured < self.floor


def default_baseline_dir() -> Path:
    """The directory holding the ``BENCH_*.json`` baselines.

    The working directory (or the nearest ancestor containing a
    baseline) wins; the package's own repo root is the fallback, so
    the check also runs from an installed tree.
    """
    here = Path.cwd()
    for candidate in (here, *here.parents):
        if any(candidate.glob("BENCH_*.json")):
            return candidate
    return Path(__file__).resolve().parents[3]


def _lookup(doc: object, dotted: str) -> Optional[float]:
    """``doc["a"]["b"]["c"]`` for ``"a.b.c"``, or ``None``."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def run_checks(
    baseline_dir: Optional[Path] = None,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[MetricCheck]:
    """Measure every probed metric against its committed baseline.

    Metrics whose baseline file (or key) is missing are returned as
    skipped — absent baselines are not failures.
    """
    root = Path(baseline_dir) if baseline_dir else default_baseline_dir()
    docs: Dict[str, Optional[dict]] = {}
    checks: List[MetricCheck] = []
    for metric, (filename, probe) in PROBES.items():
        if filename not in docs:
            path = root / filename
            docs[filename] = (
                json.loads(path.read_text()) if path.exists() else None
            )
        doc = docs[filename]
        baseline = _lookup(doc, metric) if doc is not None else None
        if baseline is None:
            checks.append(MetricCheck(metric, filename, None, None, threshold))
            continue
        with obs.span("bench.probe", metric=metric, baseline_file=filename):
            scalar_s, vectorized_s = probe()
        measured = scalar_s / vectorized_s if vectorized_s > 0 else 0.0
        obs.gauge_set(f"bench.{metric}.scalar_s", scalar_s)
        obs.gauge_set(f"bench.{metric}.vectorized_s", vectorized_s)
        obs.gauge_set(f"bench.{metric}.speedup", measured)
        checks.append(
            MetricCheck(metric, filename, baseline, measured, threshold)
        )
    return checks


def check(
    baseline_dir: Optional[Path] = None,
    threshold: float = REGRESSION_THRESHOLD,
    trace_path: Optional[Path] = None,
) -> Tuple[str, int]:
    """Run the gate; returns the report and the process exit code.

    When the gate fails (exit :data:`EXIT_REGRESSION`) and tracing is
    enabled, the probe spans and metric gauges are written as a
    Chrome-trace artifact — to ``trace_path`` when given, else
    :data:`DEFAULT_TRACE_NAME` in the baseline directory — and the
    report's last line names the file.
    """
    with obs.span("bench.check", threshold=threshold):
        checks = run_checks(baseline_dir, threshold)
    from repro.analysis.tables import Table

    table = Table(
        f"Perf regression check (fail below "
        f"{(1.0 - threshold) * 100:.0f}% of baseline speedup)",
        ["metric", "baseline", "measured", "status"],
    )
    for item in checks:
        if item.skipped:
            table.add_row(item.metric, "-", "-",
                          f"skipped (no {item.baseline_file})")
            continue
        table.add_row(
            item.metric,
            f"{item.baseline:.1f}x",
            f"{item.measured:.1f}x",
            "REGRESSED" if item.regressed else "ok",
        )
    regressed = [item for item in checks if item.regressed]
    compared = [item for item in checks if not item.skipped]
    if regressed:
        for item in regressed:
            obs.event("bench.regressed", metric=item.metric,
                      baseline=item.baseline, measured=item.measured)
        verdict = (f"{len(regressed)} of {len(compared)} metric(s) regressed "
                   f"more than {threshold * 100:.0f}% below baseline")
        code = EXIT_REGRESSION
    else:
        verdict = (f"all {len(compared)} compared metric(s) within "
                   f"{threshold * 100:.0f}% of baseline")
        code = 0
    report = table.render() + "\n" + verdict
    if code == EXIT_REGRESSION:
        artifact = _write_failure_trace(baseline_dir, trace_path)
        if artifact is not None:
            report += f"\npost-mortem trace written to {artifact}"
    return report, code


def _write_failure_trace(
    baseline_dir: Optional[Path], trace_path: Optional[Path]
) -> Optional[Path]:
    """Persist the probe trace after a failed gate; None when disabled."""
    from repro.obs import export, state

    if not state.ENABLED:
        return None
    if trace_path is None:
        root = Path(baseline_dir) if baseline_dir else default_baseline_dir()
        trace_path = root / DEFAULT_TRACE_NAME
    try:
        export.write_chrome_trace(Path(trace_path))
    except OSError:
        return None
    return Path(trace_path)


# ----------------------------------------------------------------------
# baseline generation (shared shapes with the gate above)
# ----------------------------------------------------------------------

#: BENCH_app.json path name -> (probe, what the shape is).
APP_PATHS: Dict[str, Tuple[Callable[[], _TimingPair], str]] = {
    "tiling": (_probe_tiling, "256-phase tiled overlap timing"),
    "matching": (_probe_matching, "600x600 ORB descriptor matching"),
    "centroids": (_probe_centroids, "48x48 SHWFS windowed-CoG grid"),
    "trace_csv": (_probe_trace, "200k-row strict trace CSV decode"),
    "mb3_balance_sweep": (_probe_mb3, "MB3 7-point balance sweep [nano]"),
    "whatif_sweep": (_probe_whatif, "7-factor ZC what-if sweep, MB3 "
                                    "workload [tx2]"),
}


def collect_app_bench(generated: str, host: str = "vm") -> dict:
    """Measure every app-layer path and build the baseline payload."""
    paths = {}
    for name, (probe, workload) in APP_PATHS.items():
        scalar_s, vectorized_s = probe()
        paths[name] = {
            "workload": workload,
            "scalar_s": round(scalar_s, 5),
            "vectorized_s": round(vectorized_s, 6),
            "speedup": round(scalar_s / vectorized_s, 1),
        }
    ten_x = sorted(
        name for name, entry in paths.items() if entry["speedup"] >= 10.0
    )
    return {
        "criteria": {
            "min_paths_at_10x": 3,
            "regression_threshold": REGRESSION_THRESHOLD,
        },
        "generated": generated,
        "host": host,
        "paths": paths,
        "paths_at_10x": ten_x,
    }
