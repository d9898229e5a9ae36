"""``tune-cold``: one in-process cold ``Framework.tune`` per operation.

Each operation builds a fresh :class:`Framework` on a fresh, empty
characterization store and tunes one (app, board) cell, so the
micro-benchmark characterization runs every time and no two operations
share state.  Closed loop, one client.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro import obs
from repro.cli import _get_pipeline
from repro.comm.base import get_model
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.decision import decide
from repro.model.device import DeviceCharacterization
from repro.model.framework import Framework
from repro.perf.cache import ShardedCharacterizationStore
from repro.soc.board import get_board
from repro.soc.soc import SoC

from e2ebench.common import (
    APPS,
    BOARDS,
    CELLS,
    Context,
    Oracle,
    median,
    metric,
    peak_rss_mb,
    timed_setup,
)
from e2ebench.inputs import cell_cycle


@dataclass
class State:
    pipelines: Dict[str, object]
    boards: Dict[str, object]
    cells: Iterator[Tuple[str, str]]
    oracle: Oracle


def cold_tune(ctx: Context, state: State, app: str, board: str):
    """One cold tune; returns (seconds, report).  The store directory
    is created before and removed after the timed region."""
    store = ctx.fresh_dir("store")
    start = time.perf_counter()
    framework = Framework(cache_dir=str(store))
    report = state.pipelines[app].tune(framework, state.boards[board])
    elapsed = time.perf_counter() - start
    shutil.rmtree(store)
    obs.clear()
    return elapsed, report


def setup(ctx: Context, repeats: int) -> Tuple[float, State]:
    def once() -> State:
        state = State(
            pipelines={app: _get_pipeline(app) for app in APPS},
            boards={name: get_board(name) for name in BOARDS},
            cells=cell_cycle(ctx.seed),
            oracle=Oracle(),
        )
        # Warm-up: one discarded tune per cell, so process-wide lazy
        # set-up is paid here and not by the measured operations.
        for _ in CELLS:
            cold_tune(ctx, state, *next(state.cells))
        return state

    return timed_setup(ctx, once, repeats)


def run(ctx: Context, state: State) -> Dict[str, dict]:
    latencies: List[float] = []
    first = len(ctx.probes)
    end = time.perf_counter() + ctx.seconds
    while not latencies or time.perf_counter() < end:
        app, board = next(state.cells)
        elapsed, report = cold_tune(ctx, state, app, board)
        ctx.tally.record(state.oracle.check_report(app, board, report))
        latencies.append(elapsed)
        ctx.probe()
    p50, tail_ms, total = ctx.report_scaled("tune", latencies, first)
    rate = len(latencies) / total
    ctx.say(f"  tune_per_s_scaled = {rate:.3f} 1/s (closed loop, 1 client)")
    return {
        "p50_ms": metric(p50, "ms"),
        "tail_ms": metric(tail_ms, "ms"),
        "throughput_per_s": metric(rate, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


class _Timer:
    """Accumulates named wall-clock intervals for one operation."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.times[name] = (self.times.get(name, 0.0)
                            + time.perf_counter() - start)
        return value


#: The layer calls a cold tune makes, in order (``decomposed`` mirrors
#: them); ``model.tune_overhead_ms`` is the tune's time beyond these.
MIRRORED = ("perf.store_miss", "soc.build", "microbench.mb1",
            "microbench.mb2", "microbench.mb3", "perf.store_save",
            "profiling.profile", "model.decide")


def decomposed(ctx: Context, state: State, framework, app: str,
               board_name: str):
    """The cold tune's layer calls made one by one from here.

    Returns (layer seconds, simulated cache accesses, total seconds of
    the mirrored sequence, device, recommendation, problems).
    """
    board = state.boards[board_name]
    workload = state.pipelines[app].workload(board_name=board_name)
    directory = ctx.fresh_dir("store")
    t = _Timer()
    start = time.perf_counter()
    store = ShardedCharacterizationStore(directory)
    suite = MicrobenchmarkSuite()
    signature = suite.cache_signature()
    t("perf.store_miss", store.load, board, signature)
    soc = t("soc.build", SoC, board)
    first = t("microbench.mb1", suite.first.run, soc)
    second = t("microbench.mb2", suite.second.run, soc,
               gpu_peak_throughput=first.gpu_max_throughput["SC"],
               cpu_peak_throughput=first.cpu_max_throughput["SC"])
    third = t("microbench.mb3", suite.third.run, soc)
    device = DeviceCharacterization(
        board_name=board.name,
        io_coherent=board.io_coherent,
        gpu_cache_throughput=first.gpu_max_throughput,
        cpu_cache_throughput=first.cpu_max_throughput,
        gpu_thresholds=second.gpu_analysis,
        cpu_thresholds=second.cpu_analysis,
        sc_zc_max_speedup=max(1.0, third.sc_zc_max_speedup),
        zc_sc_max_speedup=max(1.0, first.zc_sc_kernel_ratio),
    )
    t("perf.store_save", store.store, board, signature, device)
    profile = t("profiling.profile", framework.profile, workload, board,
                model="SC")
    recommendation = t("model.decide", decide, profile, device)
    total = time.perf_counter() - start
    loaded = t("perf.store_load", store.load, board, signature)
    execute_soc = SoC(board)
    t("comm.execute", get_model("SC").execute, workload, execute_soc)
    accesses = sum(cache.stats.accesses
                   for hierarchy in (soc.cpu.hierarchy, soc.gpu.hierarchy)
                   for cache in hierarchy.caches)
    shutil.rmtree(directory)
    problems = []
    if loaded != device:
        problems.append(f"{app}/{board_name}: store returned a different "
                        f"characterization than it was given")
    return t.times, accesses, total, device, recommendation, problems


def layers(ctx: Context, state: State, budget: float,
           native: bool) -> Dict[str, dict]:
    """Per-layer timings of the cold tune path.

    Each iteration tunes one cell three ways: ``Framework.tune`` with
    observability on (the default), the same with it off, and the
    decomposed layer sequence.  At least one full block of six cells
    runs, so every board's cache-access count is measured.
    """
    framework = Framework()
    on: List[float] = []
    off: List[float] = []
    traced: List[float] = []
    overhead: List[float] = []
    per_layer: Dict[str, List[float]] = {}
    accesses_by_board: Dict[str, int] = {}
    suite_s = 0.0
    suite_accesses = 0
    end = time.perf_counter() + budget
    while len(on) < len(CELLS) or time.perf_counter() < end:
        app, board = next(state.cells)
        order = (True, False) if len(on) % 2 == 0 else (False, True)
        for enabled in order:
            if not enabled:
                obs.disable()
            try:
                elapsed, report = cold_tune(ctx, state, app, board)
            finally:
                obs.enable()
            ctx.tally.record(state.oracle.check_report(app, board, report))
            (on if enabled else off).append(elapsed)
            if enabled:
                device = report.device
        times, accesses, total, layer_device, recommendation, problems = \
            decomposed(ctx, state, framework, app, board)
        if layer_device != device:
            problems.append(f"{app}/{board}: decomposed characterization "
                            f"differs from Framework.tune's")
        want = state.oracle.expected(app, board)
        if (recommendation.model.value, int(recommendation.zone)) != (
                want["model"], want["zone"]):
            problems.append(f"{app}/{board}: decomposed decision "
                            f"{recommendation.model.value} differs")
        if accesses_by_board.setdefault(board, accesses) != accesses:
            problems.append(f"{board}: simulated cache accesses changed "
                            f"between identical suites")
        ctx.tally.record(problems)
        obs.clear()
        for name, seconds in times.items():
            per_layer.setdefault(name, []).append(seconds)
        suite_s += sum(times[f"microbench.mb{i}"] for i in (1, 2, 3))
        suite_accesses += accesses
        traced.append(total)
        overhead.append(on[-1] - sum(times[name] for name in MIRRORED))

    def ms(name: str) -> dict:
        return metric(median(per_layer[name]) * 1e3, "ms")

    metrics = {
        "soc.build_ms": ms("soc.build"),
        "microbench.mb1_ms": ms("microbench.mb1"),
        "microbench.mb2_ms": ms("microbench.mb2"),
        "microbench.mb3_ms": ms("microbench.mb3"),
        "soc.cache_accesses": metric(
            sum(accesses_by_board[board] for board in BOARDS), "count"),
        "soc.ns_per_access": metric(suite_s * 1e9 / suite_accesses, "ns"),
        "comm.execute_ms": ms("comm.execute"),
        "profiling.profile_ms": ms("profiling.profile"),
        "model.tune_overhead_ms": metric(median(overhead) * 1e3, "ms"),
        "perf.store_save_ms": ms("perf.store_save"),
        "perf.store_load_ms": ms("perf.store_load"),
        "obs.overhead_pct": metric(
            (median(on) / median(off) - 1.0) * 100.0, "%"),
    }
    ctx.say(f"  tune layers: {len(on)} cells; tune p50 obs on "
            f"{median(on) * 1e3:.2f} ms, off {median(off) * 1e3:.2f} ms")
    if native:
        metrics["trace.overhead_pct"] = metric(
            (median(traced) / median(on) - 1.0) * 100.0, "%")
    return metrics
