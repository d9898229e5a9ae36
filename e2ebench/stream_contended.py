"""``stream-contended``: one two-app contended stream replay per operation.

Each operation runs a :class:`MultiAppStreamTuner` on xavier over two
sources in lockstep: a seeded generated access trace replayed from CSV
(a streaming phase, then hot reuse) and a drifting shwfs -> orbslam
counter stream.  Trace decoding, the sliding windows, contention and
thousands of ``decide`` calls do the work; nothing is characterized or
profiled inside an operation.  Closed loop, one client.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.cli import _get_pipeline
from repro.model.decision import decide
from repro.model.framework import Framework
from repro.profiling.trace import RecordedTrace
from repro.soc.board import get_board
from repro.stream import (
    AppWindow,
    ContentionModel,
    CounterWindowSource,
    DriftDetector,
    MultiAppStreamTuner,
    StreamConfig,
    TraceWindowSource,
    sliding_window_sums,
)

from e2ebench.common import (
    Context,
    median,
    metric,
    peak_rss_mb,
    timed_setup,
)
from e2ebench.inputs import TRACE_ROWS, write_trace_csv

BOARD = "xavier"
#: Window profiles timed one ``decide`` call each for ``model.decide_us``.
DECIDE_SAMPLES = 256


@dataclass
class State:
    framework: object
    device: object
    before: object
    after: object
    csv: object
    #: What every replay must reproduce: flips, final models, counts.
    reference: Tuple = ()


def _sources(state: State, config, trace_chunks=None):
    if trace_chunks is None:
        trace = TraceWindowSource.from_csv(
            state.csv, chunk_size=config.chunk_size, workload_name="trace",
            board_name=BOARD)
    else:
        trace = TraceWindowSource(iter(trace_chunks), workload_name="trace",
                                  board_name=BOARD)
    counters = CounterWindowSource.drifting(state.before, state.after,
                                            samples=TRACE_ROWS)
    return [trace, counters]


def replay(state: State, incremental: bool = True):
    """One contended replay; returns (seconds, result)."""
    config = StreamConfig(incremental=incremental)
    start = time.perf_counter()
    result = MultiAppStreamTuner(state.framework, _sources(state, config),
                                 state.device, config).run()
    elapsed = time.perf_counter() - start
    obs.clear()
    return elapsed, result


def signature(result) -> Tuple:
    """Everything a replay decides, for exact comparison."""
    return (
        result.windows,
        result.max_fixed_point_iterations,
        result.converged,
        tuple((app.workload_name, app.initial_model, app.final_model,
               app.decisions,
               tuple((flip.emission, flip.from_model, flip.to_model)
                     for flip in app.flips))
              for app in result.apps),
    )


def setup(ctx: Context, repeats: int) -> Tuple[float, State]:
    def once() -> State:
        csv = write_trace_csv(ctx.seed, ctx.fresh_dir("trace") / "trace.csv")
        framework = Framework()
        board = get_board(BOARD)
        device = framework.characterize(board)
        before, after = (
            framework.profile(_get_pipeline(app).workload(board_name=BOARD),
                              board, model="SC")
            for app in ("shwfs", "orbslam"))
        return State(framework, device, before, after, csv)

    setup_s, state = timed_setup(ctx, once, repeats)
    # Reference from the per-window recompute path, independent of the
    # incremental windows every measured replay uses.
    _, result = replay(state, incremental=False)
    state.reference = signature(result)
    return setup_s, state


def _check(state: State, result) -> List[str]:
    if signature(result) != state.reference:
        return ["stream replay decided differently from the reference: "
                f"{signature(result)[3]} vs {state.reference[3]}"]
    return []


def run(ctx: Context, state: State) -> Dict[str, dict]:
    latencies: List[float] = []
    decisions = 0
    first = len(ctx.probes)
    end = time.perf_counter() + ctx.seconds
    while not latencies or time.perf_counter() < end:
        elapsed, result = replay(state)
        ctx.tally.record(_check(state, result))
        latencies.append(elapsed)
        ctx.probe()
        decisions += sum(app.decisions for app in result.apps)
    p50, tail_ms, total = ctx.report_scaled("stream_replay", latencies,
                                            first)
    rate = decisions / total
    ctx.say(f"  stream_decisions_per_s_scaled = {rate:.1f} 1/s "
            f"({TRACE_ROWS} trace rows, {state.reference[0]} windows x 2 "
            f"apps per replay)")
    return {
        "p50_ms": metric(p50, "ms"),
        "tail_ms": metric(tail_ms, "ms"),
        "throughput_per_s": metric(rate, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def _active_models(initial: str, flips, emissions) -> List[str]:
    """The model each emission was decided under, given the flips."""
    pending = list(flips)
    active = initial
    models = []
    for emission in emissions:
        models.append(active)
        if pending and pending[0].emission == emission:
            active = pending.pop(0).to_model
    return models


def decomposed(state: State, result):
    """A replay's layers called one by one from here; (layer seconds,
    total seconds of the sequence, problems)."""
    config = StreamConfig()
    times: Dict[str, float] = {}
    start = time.perf_counter()
    mark = start

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        times[name] = now - mark
        mark = now

    chunks = list(RecordedTrace.iter_chunks(state.csv,
                                            chunk_size=config.chunk_size))
    lap("profiling.trace_decode")
    sources = _sources(state, config, trace_chunks=chunks)
    features = [np.concatenate(list(source.feature_chunks(config.chunk_size)))
                for source in sources]
    lap("stream.features")
    windows = [sliding_window_sums(f, config.spec,
                                   chunk_size=config.chunk_size)
               for f in features]
    lap("stream.window")
    for source, (_, sums) in zip(sources, windows):
        DriftDetector(config.drift, num_metrics=2).update(
            source.usage_series(sums, state.device))
    lap("stream.drift")
    emissions = windows[0][0]
    models = [_active_models(app.initial_model, app.flips, emissions)
              for app in result.apps]
    contention = ContentionModel()
    for i in range(len(emissions)):
        contention.resolve(
            [AppWindow(profile=source.to_profile(sums[i], model=active[i]),
                       model=active[i])
             for source, (_, sums), active in zip(sources, windows, models)],
            state.device, strict=config.strict)
    lap("stream.contention")
    total = time.perf_counter() - start
    profiles = [sources[0].to_profile(windows[0][1][i], model="SC")
                for i in range(min(DECIDE_SAMPLES, len(emissions)))]
    begin = time.perf_counter()
    for profile in profiles:
        decide(profile, state.device)
    times["model.decide"] = (time.perf_counter() - begin) / len(profiles)
    problems = []
    if any(len(e) != result.windows for e, _ in windows):
        problems.append(f"decomposed replay produced "
                        f"{[len(e) for e, _ in windows]} windows, the "
                        f"tuner {result.windows}")
    return times, total, problems


def layers(ctx: Context, state: State, budget: float,
           native: bool) -> Dict[str, dict]:
    """Per-layer timings of one replay: trace decoding, feature
    extraction, windows, drift, the contention passes and ``decide``.
    Each iteration runs the tuner and then the decomposed sequence."""
    plain: List[float] = []
    traced: List[float] = []
    per_layer: Dict[str, List[float]] = {}
    end = time.perf_counter() + budget
    while not plain or time.perf_counter() < end:
        elapsed, result = replay(state)
        ctx.tally.record(_check(state, result))
        times, total, problems = decomposed(state, result)
        ctx.tally.record(problems)
        plain.append(elapsed)
        traced.append(total)
        for name, seconds in times.items():
            per_layer.setdefault(name, []).append(seconds)

    def ms(name: str) -> dict:
        return metric(median(per_layer[name]) * 1e3, "ms")

    metrics = {
        "profiling.trace_decode_ms": ms("profiling.trace_decode"),
        "stream.features_ms": ms("stream.features"),
        "stream.window_ms": ms("stream.window"),
        "stream.drift_ms": ms("stream.drift"),
        "stream.contention_ms": ms("stream.contention"),
        "model.decide_us": metric(median(per_layer["model.decide"]) * 1e6,
                                  "us"),
        "stream.decisions": metric(
            sum(app.decisions for app in result.apps), "count"),
        "stream.flips": metric(
            sum(len(app.flips) for app in result.apps), "count"),
        "stream.fixed_point_iters_max": metric(
            result.max_fixed_point_iterations, "count"),
    }
    if native:
        metrics["trace.overhead_pct"] = metric(
            (median(traced) / median(plain) - 1.0) * 100.0, "%")
    return metrics
