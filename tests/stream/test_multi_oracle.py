"""Block-evaluated stream engines against the per-window reference.

``MultiAppStreamTuner`` and ``StreamTuner`` decide whole emission
blocks at once; ``tests/stream/multi_reference.py`` keeps the engines
that decide every aligned window on its own.  On random app sets,
sources, chunkings, boards, contention weights and injected bad
windows, both must produce identical windows, decisions, flips,
models, thresholds, fixed-point statistics, obs counters — and, in
strict mode, the same structured error at the same emission.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.model.framework import Framework
from repro.obs.metrics import REGISTRY
from repro.profiling.trace import TRACE_ROW_DTYPE
from repro.soc.board import get_board
from repro.stream.contention import ContentionConfig, ContentionModel
from repro.stream.engine import (
    MultiAppStreamTuner,
    StreamConfig,
    StreamTuner,
)
from repro.stream.sources import (
    COUNTER_COLUMNS,
    CounterWindowSource,
    TraceWindowSource,
)
from tests.stream.multi_reference import (
    reference_multi_run,
    reference_single_run,
)

BOARDS = ("nano", "tx2", "xavier")
MODELS = ("SC", "UM", "ZC")
COUNTERS = ("stream.windows", "stream.decisions", "stream.flips")


@pytest.fixture(scope="module")
def boards():
    """Per board: framework, device and the two apps' SC profiles."""
    from repro.apps.orbslam import build_orbslam_workload
    from repro.apps.shwfs import build_shwfs_workload

    framework = Framework()
    out = {}
    for name in BOARDS:
        board = get_board(name)
        out[name] = (framework, framework.characterize(board), {
            "shwfs": framework.profile(build_shwfs_workload(), board,
                                       model="SC"),
            "orbslam": framework.profile(build_orbslam_workload(), board,
                                         model="SC"),
        })
    return out


# ----------------------------------------------------------------------
# source specs: plain data, rebuilt into fresh sources for every run
# ----------------------------------------------------------------------

counter_specs = st.fixed_dictionaries({
    "kind": st.just("counter"),
    "before": st.sampled_from(["shwfs", "orbslam"]),
    "after": st.sampled_from(["shwfs", "orbslam"]),
    "heavy": st.sampled_from([1, 2, 4]),
    "samples": st.integers(200, 900),
    "switch": st.floats(0.1, 0.9),
    "model": st.sampled_from(MODELS),
})

trace_specs = st.fixed_dictionaries({
    "kind": st.just("trace"),
    "seed": st.integers(0, 2 ** 16),
    "samples": st.integers(200, 900),
    "access_size": st.sampled_from([4, 4096, 65536, 262144]),
    "chunks": st.lists(st.integers(1, 300), min_size=1, max_size=6),
    "model": st.sampled_from(MODELS),
})

#: A stretch of bad ticks injected into one counter source (in about a
#: third of the examples).
faults = st.one_of(st.none(), st.none(), st.fixed_dictionaries({
    "app": st.integers(0, 2),
    "kind": st.sampled_from(["empty", "implausible", "bad-rate"]),
    "at": st.floats(0.0, 0.9),
    "length": st.integers(1, 200),
}))


def heavy(profile, factor):
    return replace(profile, gpu_transactions=profile.gpu_transactions *
                   factor)


def counter_rows(spec, profiles):
    before = heavy(profiles[spec["before"]], spec["heavy"])
    after = profiles[spec["after"]]
    switch = min(max(1, int(spec["samples"] * spec["switch"])),
                 spec["samples"] - 1)
    return CounterWindowSource.drifting(before, after,
                                        samples=spec["samples"],
                                        switch_at=switch).samples.copy()


def inject(rows, fault):
    start = int(len(rows) * fault["at"])
    stop = start + fault["length"]
    col = {name: i for i, name in enumerate(COUNTER_COLUMNS)}
    if fault["kind"] == "empty":
        for name in ("gpu_accesses", "gpu_l1_hits", "gpu_bytes",
                     "kernel_ns"):
            rows[start:stop, col[name]] = 0
    elif fault["kind"] == "implausible":
        rows[start:stop, col["gpu_bytes"]] *= 5000
    else:
        rows[start:stop, col["gpu_l1_hits"]] = \
            rows[start:stop, col["gpu_accesses"]] * 3
    return rows


def trace_chunks(spec):
    """Uneven in-memory CSV-style chunks of a seeded trace."""
    rng = np.random.default_rng(spec["seed"])
    n = spec["samples"]
    hot = rng.integers(0, 64, size=n) * 64
    cold = np.arange(n, dtype=np.int64) * 4096
    rows = np.empty(n, dtype=TRACE_ROW_DTYPE)
    rows["offset"] = np.where(rng.random(n) < 0.5, hot, cold)
    rows["write"] = rng.random(n) < 0.3
    sizes = spec["chunks"]
    out, start, i = [], 0, 0
    while start < n:
        out.append(rows[start:start + sizes[i % len(sizes)]])
        start += sizes[i % len(sizes)]
        i += 1
    return out


def build_sources(specs, profiles, board, fault=None):
    sources = []
    for i, spec in enumerate(specs):
        if spec["kind"] == "counter":
            rows = counter_rows(spec, profiles)
            if fault is not None and fault["app"] == i:
                rows = inject(rows, fault)
            sources.append(CounterWindowSource(
                rows, workload_name=f"app{i}", board_name=board,
                initial_model=spec["model"]))
        else:
            sources.append(TraceWindowSource(
                iter(trace_chunks(spec)), workload_name=f"app{i}",
                board_name=board, initial_model=spec["model"],
                access_size=spec["access_size"]))
    return sources


def counters():
    return {name: REGISTRY.counter(name).value for name in COUNTERS}


def run_counted(run):
    """``(outcome, counter deltas)``; the outcome is the result or the
    raised error's code."""
    before = counters()
    try:
        outcome = run()
    except ReproError as error:
        outcome = ("error", error.code, error.message)
    after = counters()
    return outcome, {k: after[k] - before[k] for k in COUNTERS}


def recommendation_key(rec):
    if rec is None:
        return None
    return (rec.model, rec.zone, rec.reason, rec.caveats,
            rec.estimated_speedup_pct)


def flip_keys(flips):
    return [(f.emission, f.from_model, f.to_model,
             recommendation_key(f.report.recommendation)) for f in flips]


stream_configs = st.builds(
    StreamConfig,
    window=st.sampled_from([16, 48, 128]),
    stride=st.sampled_from([1, 4, 16]),
    hysteresis=st.integers(1, 4),
    chunk_size=st.sampled_from([7, 64, 100, 333]),
    strict=st.booleans(),
)

contention_configs = st.builds(
    ContentionConfig,
    dram_weight=st.sampled_from([0.0, 0.5, 8.0, 40.0]),
    zc_weight=st.sampled_from([0.0, 1.0, 30.0, 200.0]),
    max_iterations=st.sampled_from([1, 2, 16]),
)


@given(board=st.sampled_from(BOARDS),
       specs=st.lists(st.one_of(counter_specs, trace_specs), min_size=2,
                      max_size=3),
       config=stream_configs, contention=contention_configs,
       fault=faults)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_multi_engine_matches_reference(boards, board, specs, config,
                                        contention, fault):
    framework, device, profiles = boards[board]
    model = ContentionModel(contention)

    result, got = run_counted(lambda: MultiAppStreamTuner(
        framework, build_sources(specs, profiles, board, fault), device,
        config, contention=model).run())
    reference, want = run_counted(lambda: reference_multi_run(
        framework, build_sources(specs, profiles, board, fault), device,
        config, model))

    assert got == want
    if isinstance(reference, tuple):
        assert result == reference
        return
    assert not isinstance(result, tuple), result
    assert result.windows == reference.windows
    assert result.converged == reference.converged
    assert result.max_fixed_point_iterations == \
        reference.max_fixed_point_iterations
    for app, ref in zip(result.apps, reference.apps):
        assert app.final_model == ref.final_model
        assert app.decisions == ref.decisions
        assert app.effective_gpu_threshold_pct == \
            ref.effective_gpu_threshold_pct
        assert flip_keys(app.flips) == flip_keys(ref.flips)


@given(board=st.sampled_from(BOARDS),
       spec=st.one_of(counter_specs, trace_specs),
       config=stream_configs, fault=faults)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_engine_matches_reference(boards, board, spec, config,
                                         fault):
    framework, device, profiles = boards[board]
    if fault is not None:
        fault = dict(fault, app=0)

    result, got = run_counted(lambda: StreamTuner(
        framework, build_sources([spec], profiles, board, fault)[0],
        device, config).run())
    reference, _ = run_counted(lambda: reference_single_run(
        framework, build_sources([spec], profiles, board, fault)[0],
        device, config))

    if isinstance(reference, tuple):
        assert result == reference
        return
    assert not isinstance(result, tuple), result
    assert result.windows == reference.windows
    assert result.decisions == reference.decisions == got["stream.decisions"]
    assert result.final_model == reference.final_model
    assert flip_keys(result.flips) == flip_keys(reference.flips)
    assert recommendation_key(result.last_recommendation) == \
        recommendation_key(reference.last_recommendation)


def test_forced_two_cycle_matches_reference(boards):
    """Weights this high make two ZC-hungry apps push each other out of
    ZC every round: the fixed point cycles and both engines must break
    it the same way."""
    framework, device, profiles = boards["xavier"]
    specs = [dict(kind="counter", before="shwfs", after="shwfs", heavy=1,
                  samples=600, switch=0.5, model="ZC"),
             dict(kind="counter", before="shwfs", after="shwfs", heavy=1,
                  samples=600, switch=0.5, model="ZC")]
    config = StreamConfig(window=64, stride=8, hysteresis=2, chunk_size=100)
    model = ContentionModel(ContentionConfig(dram_weight=0.0,
                                             zc_weight=1e4))
    result = MultiAppStreamTuner(
        framework, build_sources(specs, profiles, "xavier"), device, config,
        contention=model).run()
    reference = reference_multi_run(
        framework, build_sources(specs, profiles, "xavier"), device, config,
        model)
    assert not reference.converged
    assert result.converged == reference.converged
    assert result.max_fixed_point_iterations == \
        reference.max_fixed_point_iterations
    assert [a.final_model for a in result.apps] == \
        [a.final_model for a in reference.apps]


@pytest.mark.parametrize("kind,code", [
    ("empty", "STREAM_EMPTY_WINDOW"),
    ("implausible", "GUARD_CACHE_USAGE"),
    ("bad-rate", "PROFILE_COUNTER_RANGE"),
])
def test_strict_errors_match_reference(boards, kind, code):
    framework, device, profiles = boards["xavier"]
    specs = [dict(kind="counter", before="shwfs", after="orbslam", heavy=1,
                  samples=800, switch=0.5, model="SC")] * 2
    fault = {"app": 1, "kind": kind, "at": 0.6, "length": 120}
    config = StreamConfig(window=64, stride=8, hysteresis=1, chunk_size=100)
    outcome, got = run_counted(lambda: MultiAppStreamTuner(
        framework, build_sources(specs, profiles, "xavier", fault), device,
        config).run())
    reference, want = run_counted(lambda: reference_multi_run(
        framework, build_sources(specs, profiles, "xavier", fault), device,
        config, ContentionModel()))
    assert outcome[:2] == ("error", code)
    assert outcome == reference
    assert got == want and got["stream.windows"] > 0


@given(board=st.sampled_from(BOARDS),
       apps=st.lists(st.tuples(st.sampled_from(["shwfs", "orbslam"]),
                               st.sampled_from([1, 2, 4, 8]),
                               st.sampled_from(MODELS)),
                     min_size=1, max_size=4),
       contention=contention_configs, strict=st.booleans())
@settings(max_examples=150, deadline=None)
def test_resolve_matches_reference(boards, board, apps, contention, strict):
    from repro.stream.contention import AppWindow
    from tests.stream.multi_reference import reference_resolve

    _, device, profiles = boards[board]
    windows = [(heavy(profiles[app], factor), model)
               for app, factor, model in apps]
    model = ContentionModel(contention)
    try:
        result = model.resolve([AppWindow(p, m) for p, m in windows],
                               device, strict=strict)
    except ReproError as error:
        with pytest.raises(ReproError) as expected:
            reference_resolve(model, windows, device, strict=strict)
        assert expected.value.code == error.code
        return
    decisions, iterations, converged = reference_resolve(
        model, windows, device, strict=strict)
    assert (result.iterations, result.converged) == (iterations, converged)
    for got, want in zip(result.decisions, decisions):
        assert (got.model, got.proposed) == (want.model, want.proposed)
        assert recommendation_key(got.recommendation) == \
            recommendation_key(want.recommendation)
        assert got.effective_gpu_threshold_pct == \
            want.effective_gpu_threshold_pct


@pytest.mark.parametrize("kind", ["empty", "implausible", "bad-rate"])
def test_non_strict_bad_windows_match_reference(boards, kind):
    """Non-strict runs keep the active model for a bad window (single
    app) or raise as before (multi-app, bad profile) — as the reference
    does, window for window."""
    # orbslam stays on SC on the TX2 (zone 3); a bad window read as a
    # profile would look like zone 1 and propose ZC.
    framework, device, profiles = boards["tx2"]
    spec = dict(kind="counter", before="orbslam", after="orbslam", heavy=1,
                samples=800, switch=0.5, model="SC")
    fault = {"app": 0, "kind": kind, "at": 0.3, "length": 300}
    config = StreamConfig(window=64, stride=8, hysteresis=1, chunk_size=100,
                          strict=False)
    result = StreamTuner(framework,
                         build_sources([spec], profiles, "tx2", fault)[0],
                         device, config).run()
    reference = reference_single_run(
        framework, build_sources([spec], profiles, "tx2", fault)[0],
        device, config)
    assert flip_keys(result.flips) == flip_keys(reference.flips)
    assert result.final_model == reference.final_model
    assert recommendation_key(result.last_recommendation) == \
        recommendation_key(reference.last_recommendation)

    outcome, got = run_counted(lambda: MultiAppStreamTuner(
        framework, build_sources([spec, spec], profiles, "tx2", fault),
        device, config).run())
    want_outcome, want = run_counted(lambda: reference_multi_run(
        framework, build_sources([spec, spec], profiles, "tx2", fault),
        device, config, ContentionModel()))
    assert got == want
    if isinstance(want_outcome, tuple):
        assert outcome == want_outcome
    else:
        assert [flip_keys(a.flips) for a in outcome.apps] == \
            [flip_keys(a.flips) for a in want_outcome.apps]


def test_flip_on_the_last_window(boards):
    """``last_recommendation`` is decided under the model that was active
    *before* a flip that commits on the final window."""
    framework, device, profiles = boards["xavier"]
    spec = dict(kind="counter", before="shwfs", after="shwfs", heavy=1,
                samples=512, switch=0.5, model="SC")

    def run(hysteresis):
        config = StreamConfig(window=64, stride=8, hysteresis=hysteresis,
                              chunk_size=100)
        source = build_sources([spec], profiles, "xavier")[0]
        return StreamTuner(framework, source, device, config).run()

    windows = run(1).windows
    result = run(windows)
    reference = reference_single_run(
        framework, build_sources([spec], profiles, "xavier")[0], device,
        StreamConfig(window=64, stride=8, hysteresis=windows,
                     chunk_size=100))
    assert [f.emission for f in reference.flips] == [spec["samples"]]
    assert flip_keys(result.flips) == flip_keys(reference.flips)
    assert recommendation_key(result.last_recommendation) == \
        recommendation_key(reference.last_recommendation)
