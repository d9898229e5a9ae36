"""The streaming re-tuning engine.

:class:`StreamTuner` drives one application's event stream through the
full online loop:

1. the source yields bounded-memory feature chunks;
2. :class:`~repro.stream.window.SlidingWindow` turns them into
   incremental per-window integer sums (the headline O(1)-amortized
   path, gated in ``BENCH_stream.json``);
3. the :class:`~repro.stream.drift.DriftDetector` classifies the
   vectorized usage series of each emission block;
4. the block's windows become profile columns
   (``source.profile_columns``) and the Fig-2 flow proposes a model for
   all of them at once (:func:`~repro.model.decision.propose_block`);
   **hysteresis** then walks the proposals in emission order and gates
   the active model: a flip commits only after ``hysteresis``
   *consecutive* emissions propose the same target.  A committed flip
   re-invokes :meth:`~repro.model.framework.Framework.retune`, so every
   flip owns a full :class:`~repro.model.framework.TuningReport` and
   the matching :class:`~repro.obs.report.TuneReport` — explainability
   is not reconstructed after the fact, it is captured at the flip.
   A flip changes the active model, and with it the window profiles
   (copy times) and the proposals, so the rest of the block is
   evaluated again from the next window; block evaluation pays off
   while flips are rare within a block (``docs/streaming.md`` §5).

:class:`MultiAppStreamTuner` runs N sources in lockstep over one
board and replaces the proposer of step 4 with a
:meth:`~repro.stream.contention.ContentionModel.solve` fixed-point
pass over the aligned block, so one app's ZC choice shifts the
thresholds every other app decides against.

The answers are those of deciding every window on its own: block
evaluation repeats the per-window float operations elementwise.  A
window whose inputs are invalid is rebuilt as ``AppProfile``s and
decided the per-window way, which raises the same structured error.
A non-strict run instead keeps an app's active model for a window
whose usages ``decide`` rejects, and the single-app engine also for a
window with no valid profile.

Everything is observable: ``stream.windows`` / ``stream.decisions`` /
``stream.flips`` / ``stream.drift`` counters, a
``stream.decisions_per_sec`` gauge, one span per run, and a
``stream.flip`` trace event per committed flip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError, StreamError
from repro.model.decision import (
    MODELS,
    Recommendation,
    decide,
    implausible_usage,
    keep_current,
    model_code,
    propose_block,
    proposed_model,  # noqa: F401 (callers import it from this module)
)
from repro.model.device import DeviceCharacterization
from repro.obs.report import TuneReport
from repro.profiling.counters import ProfileColumns
from repro.stream.contention import ContentionModel
from repro.stream.drift import DriftConfig, DriftDetector
from repro.stream.window import SlidingWindow, WindowSpec


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one streaming run (all CLI-surfaced)."""

    window: int = 2048
    stride: int = 64
    hysteresis: int = 3
    chunk_size: int = 8192
    drift: DriftConfig = field(default_factory=DriftConfig)
    incremental: bool = True
    strict: bool = True

    def validated(self) -> "StreamConfig":
        self.spec.validated()
        if self.hysteresis < 1:
            raise StreamError(
                f"hysteresis must be >= 1 consecutive emission, got "
                f"{self.hysteresis}",
                code="STREAM_BAD_HYSTERESIS",
                details={"hysteresis": self.hysteresis},
            )
        if self.chunk_size < 1:
            raise StreamError(
                f"chunk size must be >= 1 event, got {self.chunk_size}",
                code="STREAM_BAD_CHUNK",
                details={"chunk_size": self.chunk_size},
            )
        self.drift.validated()
        return self

    @property
    def spec(self) -> WindowSpec:
        return WindowSpec(window=self.window, stride=self.stride)


@dataclass(frozen=True)
class FlipEvent:
    """One committed model flip, with its full explanation."""

    emission: int
    from_model: str
    to_model: str
    drift: bool
    #: The :class:`~repro.model.framework.TuningReport` of the
    #: committing :meth:`Framework.retune` call.
    report: object
    #: The serializable :class:`~repro.obs.report.TuneReport` captured
    #: at the flip.
    tune_report: Optional[TuneReport]

    def to_dict(self) -> Dict[str, object]:
        rec = self.report.recommendation if self.report else None
        return {
            "emission": self.emission,
            "from": self.from_model,
            "to": self.to_model,
            "drift": self.drift,
            "reason": rec.reason if rec else None,
            "zone": int(rec.zone) if rec and rec.zone is not None else None,
            "gpu_cache_usage_pct": rec.gpu_cache_usage_pct if rec else None,
            "cpu_cache_usage_pct": rec.cpu_cache_usage_pct if rec else None,
        }


@dataclass(frozen=True)
class StreamResult:
    """Summary of one streaming run."""

    workload_name: str
    board_name: str
    initial_model: str
    final_model: str
    events: int
    windows: int
    decisions: int
    drift_windows: int
    flips: Tuple[FlipEvent, ...]
    elapsed_s: float
    decisions_per_sec: float
    window_mode: Optional[str]
    last_recommendation: Optional[Recommendation]

    @property
    def flipped(self) -> bool:
        return bool(self.flips)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload_name,
            "board": self.board_name,
            "initial_model": self.initial_model,
            "final_model": self.final_model,
            "events": self.events,
            "windows": self.windows,
            "decisions": self.decisions,
            "drift_windows": self.drift_windows,
            "flips": [flip.to_dict() for flip in self.flips],
            "elapsed_s": self.elapsed_s,
            "decisions_per_sec": self.decisions_per_sec,
            "window_mode": self.window_mode,
        }


class _Hysteresis:
    """Streak counter: commit only on sustained identical proposals."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.target: Optional[str] = None
        self.streak = 0

    def observe(self, proposal: str, active: str) -> Optional[str]:
        """Feed one proposal; returns the target iff it just committed."""
        if proposal == active:
            self.target = None
            self.streak = 0
            return None
        if proposal == self.target:
            self.streak += 1
        else:
            self.target = proposal
            self.streak = 1
        if self.streak >= self.threshold:
            self.target = None
            self.streak = 0
            return proposal
        return None


def _walk(hysteresis: Sequence[_Hysteresis], proposals: np.ndarray,
          active: Sequence[int]) -> Tuple[int, Optional[List[Optional[int]]]]:
    """Feed ``(windows, apps)`` proposal codes to per-app hysteresis in
    emission order, stopping at the first window that commits a flip.

    Returns the number of windows consumed and, if one committed, each
    app's committed code (``None`` for apps that did not flip).  A
    window on which every app proposes its active model only resets the
    streaks, so only windows proposing a change are visited one by one.
    """
    def reset() -> None:
        for h, model in zip(hysteresis, active):
            h.observe(model, model)

    seen = 0
    for j in np.flatnonzero((proposals != active).any(axis=1)):
        if j > seen:
            reset()
        commits = [h.observe(int(p), model) for h, p, model
                   in zip(hysteresis, proposals[j], active)]
        seen = int(j) + 1
        if any(c is not None for c in commits):
            return seen, commits
    if len(proposals) > seen:
        reset()
    return len(proposals), None


class StreamTuner:
    """Online re-tuning of one application's stream on one board."""

    def __init__(self, framework, source,
                 device: DeviceCharacterization,
                 config: StreamConfig = StreamConfig()) -> None:
        self.framework = framework
        self.source = source
        self.device = device
        self.config = config.validated()
        if source.board_name != device.board_name:
            raise StreamError(
                f"stream is for board {source.board_name!r} but the "
                f"characterization is for {device.board_name!r}",
                code="STREAM_BAD_APPSET",
                details={"source_board": source.board_name,
                         "device_board": device.board_name},
            )
        model_code(source.initial_model)

    def run(self) -> StreamResult:
        cfg = self.config
        source = self.source
        windower = SlidingWindow(cfg.spec, len(source.columns),
                                 incremental=cfg.incremental)
        detector = DriftDetector(cfg.drift, num_metrics=2)
        hysteresis = _Hysteresis(cfg.hysteresis)
        active = source.initial_model
        flips: List[FlipEvent] = []
        decisions = 0
        windows = 0
        drift_windows = 0
        last_recommendation: Optional[Recommendation] = None
        last_sums: Optional[np.ndarray] = None
        last_active = active
        with obs.span("stream.run", workload=source.workload_name,
                      board=source.board_name, window=cfg.window,
                      stride=cfg.stride, hysteresis=cfg.hysteresis
                      ) as run_span:
            start = time.perf_counter()
            for features in source.feature_chunks(cfg.chunk_size):
                emissions, sums = windower.push(features)
                if not len(emissions):
                    continue
                windows += len(emissions)
                obs.counter_inc("stream.windows", len(emissions))
                series = source.usage_series(sums, self.device)
                drift_flags = detector.update(series)
                flagged = int(np.count_nonzero(drift_flags))
                drift_windows += flagged
                if flagged:
                    obs.counter_inc("stream.drift", flagged)
                begin = 0
                while begin < len(emissions):
                    block = sums[begin:]
                    used, committed = self._walk_block(
                        block, active, hysteresis)
                    decisions += used
                    last_sums, last_active = block[used - 1], active
                    if committed is not None:
                        i = begin + used - 1
                        flips.append(self._flip(
                            int(emissions[i]), active, committed,
                            bool(drift_flags[i]), sums[i]))
                        active = committed
                    begin += used
            if decisions:
                last_recommendation = self._decide(last_sums, last_active)
            elapsed = time.perf_counter() - start
            obs.counter_inc("stream.decisions", decisions)
            rate = decisions / elapsed if elapsed > 0 else 0.0
            obs.gauge_set("stream.decisions_per_sec", rate)
            run_span.set(windows=windows, decisions=decisions,
                         flips=len(flips), drift_windows=drift_windows,
                         final_model=active)
        return StreamResult(
            workload_name=source.workload_name,
            board_name=source.board_name,
            initial_model=source.initial_model,
            final_model=active,
            events=windower.events_seen,
            windows=windows,
            decisions=decisions,
            drift_windows=drift_windows,
            flips=tuple(flips),
            elapsed_s=elapsed,
            decisions_per_sec=rate,
            window_mode=windower.last_mode,
            last_recommendation=last_recommendation,
        )

    def _walk_block(self, sums: np.ndarray, active: str,
                    hysteresis: _Hysteresis
                    ) -> Tuple[int, Optional[str]]:
        """Propose for a block of windows decided under ``active`` and
        walk the proposals through hysteresis up to the first flip.

        Returns the windows consumed and the committed model, if any.
        """
        code = model_code(active)
        columns = self.source.profile_columns(sums, active)
        proposals, _ = propose_block(columns, code, self.device)
        invalid = ~columns.valid | implausible_usage(columns, self.device)
        end = len(sums)
        if self.config.strict:
            if invalid.any():
                end = int(invalid.argmax())
        else:
            proposals[invalid] = code
        used, commits = _walk([hysteresis], proposals[:end, None], [code])
        if commits is not None:
            return used, MODELS[commits[0]]
        if end < len(sums):
            self._decide(sums[end], active)
            raise AssertionError("a window flagged invalid decided cleanly")
        return used, None

    def _decide(self, sums: np.ndarray, active: str) -> Recommendation:
        """One window's Fig-2 run (degrading instead of raising when
        the config is non-strict)."""
        try:
            profile = self.source.to_profile(sums, model=active)
            return decide(profile, self.device, strict=self.config.strict)
        except ReproError as error:
            if self.config.strict:
                raise
            return keep_current(
                active, f"stream window failed ({error.code})",
                caveats=(f"{error.code}: {error.message}",),
                device=self.device,
            )

    def _flip(self, emission: int, from_model: str, to_model: str,
              drift: bool, sums: np.ndarray) -> FlipEvent:
        """Commit one flip through ``Framework.retune`` and record it."""
        profile = self.source.to_profile(sums, model=from_model)
        report = self.framework.retune(
            profile, device=self.device, strict=self.config.strict)
        obs.counter_inc("stream.flips")
        obs.event("stream.flip", workload=self.source.workload_name,
                  board=self.source.board_name, emission=emission,
                  from_model=from_model, to_model=to_model, drift=drift)
        return FlipEvent(emission=emission, from_model=from_model,
                         to_model=to_model, drift=drift, report=report,
                         tune_report=self.framework.last_tune_report)


@dataclass(frozen=True)
class AppStreamResult:
    """One app's summary inside a multi-app run."""

    workload_name: str
    initial_model: str
    final_model: str
    decisions: int
    flips: Tuple[FlipEvent, ...]
    #: Effective GPU threshold this app last decided against (shifted
    #: down from the solo threshold by the other apps' load).
    effective_gpu_threshold_pct: float


@dataclass(frozen=True)
class MultiStreamResult:
    """Outcome of a lockstep multi-app contention run."""

    board_name: str
    apps: Tuple[AppStreamResult, ...]
    windows: int
    converged: bool
    max_fixed_point_iterations: int
    elapsed_s: float
    decisions_per_sec: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "board": self.board_name,
            "windows": self.windows,
            "converged": self.converged,
            "max_fixed_point_iterations": self.max_fixed_point_iterations,
            "elapsed_s": self.elapsed_s,
            "decisions_per_sec": self.decisions_per_sec,
            "apps": [{
                "workload": app.workload_name,
                "initial_model": app.initial_model,
                "final_model": app.final_model,
                "decisions": app.decisions,
                "flips": [flip.to_dict() for flip in app.flips],
                "effective_gpu_threshold_pct":
                    app.effective_gpu_threshold_pct,
            } for app in self.apps],
        }


class MultiAppStreamTuner:
    """N sources in lockstep, deciding through the contention model.

    Emissions are aligned by index: every source must use the same
    window spec, and the run stops at the shortest stream.  Every
    aligned emission's window profiles enter one fixed-point contention
    pass — evaluated for a whole aligned block of emissions at once —
    and per-app hysteresis then gates the flips exactly as in the
    single-app engine.
    """

    def __init__(self, framework, sources: Sequence[object],
                 device: DeviceCharacterization,
                 config: StreamConfig = StreamConfig(),
                 contention=None) -> None:
        if len(sources) < 2:
            raise StreamError(
                f"a multi-app run needs >= 2 sources, got {len(sources)}",
                code="STREAM_BAD_APPSET",
                details={"sources": len(sources)},
            )
        for source in sources:
            if source.board_name != device.board_name:
                raise StreamError(
                    f"stream {source.workload_name!r} is for board "
                    f"{source.board_name!r} but the run is on "
                    f"{device.board_name!r}",
                    code="STREAM_BAD_APPSET",
                    details={"workload": source.workload_name},
                )
            model_code(source.initial_model)
        self.framework = framework
        self.sources = list(sources)
        self.device = device
        self.config = config.validated()
        self.contention = contention or ContentionModel()

    def _aligned_blocks(self) -> Iterator[List[Tuple[np.ndarray,
                                                     np.ndarray]]]:
        """Equal-length ``(emissions, sums)`` blocks, one per source.

        Each source's emissions are buffered, so alignment is by index
        whatever each chunk emits; a source's next chunk is read only
        when its buffer is empty, and the run ends at the first source
        (in order) that runs dry.
        """
        cfg = self.config
        streams = [(SlidingWindow(cfg.spec, len(source.columns),
                                  incremental=cfg.incremental),
                    iter(source.feature_chunks(cfg.chunk_size)))
                   for source in self.sources]
        empty = (np.empty(0, dtype=np.int64), None)
        pending = [empty] * len(streams)
        while True:
            for k, (windower, chunks) in enumerate(streams):
                while not len(pending[k][0]):
                    features = next(chunks, None)
                    if features is None:
                        return
                    pending[k] = windower.push(features)
            n = min(len(emissions) for emissions, _ in pending)
            yield [(emissions[:n], sums[:n]) for emissions, sums in pending]
            pending = [(emissions[n:], sums[n:])
                       for emissions, sums in pending]

    def run(self) -> MultiStreamResult:
        cfg = self.config
        sources = self.sources
        active = [source.initial_model for source in sources]
        hysteresis = [_Hysteresis(cfg.hysteresis) for _ in sources]
        flips: List[List[FlipEvent]] = [[] for _ in sources]
        last_threshold = [self.device.gpu_threshold_pct] * len(sources)
        windows = 0
        converged = True
        max_iterations = 0
        with obs.span("stream.multi_run", board=self.device.board_name,
                      apps=len(sources)) as run_span:
            start = time.perf_counter()
            for block in self._aligned_blocks():
                begin = 0
                while begin < len(block[0][0]):
                    used, commits, solution = self._walk_block(
                        block, begin, active, hysteresis)
                    windows += used
                    converged = converged and bool(
                        solution.converged[:used].all())
                    max_iterations = max(
                        max_iterations,
                        int(solution.iterations[:used].max()))
                    last_threshold = [
                        float(t) for t in solution.thresholds[used - 1]]
                    i = begin + used - 1
                    for k, committed in enumerate(commits or ()):
                        if committed is not None:
                            emissions, sums = block[k]
                            flips[k].append(self._flip(
                                sources[k], int(emissions[i]), active[k],
                                committed, sums[i]))
                            active[k] = committed
                    begin += used
            elapsed = time.perf_counter() - start
            total = windows * len(sources)
            obs.counter_inc("stream.decisions", total)
            rate = total / elapsed if elapsed > 0 else 0.0
            obs.gauge_set("stream.decisions_per_sec", rate)
            run_span.set(windows=windows, decisions=total,
                         flips=sum(len(f) for f in flips),
                         converged=converged)
        return MultiStreamResult(
            board_name=self.device.board_name,
            apps=tuple(
                AppStreamResult(
                    workload_name=source.workload_name,
                    initial_model=source.initial_model,
                    final_model=active[i],
                    decisions=windows,
                    flips=tuple(flips[i]),
                    effective_gpu_threshold_pct=last_threshold[i],
                )
                for i, source in enumerate(self.sources)
            ),
            windows=windows,
            converged=converged,
            max_fixed_point_iterations=max_iterations,
            elapsed_s=elapsed,
            decisions_per_sec=rate,
        )

    def _walk_block(self, block, begin: int, active: List[str],
                    hysteresis: List[_Hysteresis]):
        """Solve the aligned windows from ``begin`` on under the active
        models and walk the proposals through hysteresis up to the
        first flip.

        Returns the windows consumed (at least one), each app's
        committed model (or ``None``; the list itself is ``None`` when
        nothing flipped) and the block's solution.  A window whose
        inputs are invalid is rebuilt, which raises its error.
        """
        codes = [model_code(model) for model in active]
        solution = self.contention.solve(
            ProfileColumns.stack([
                source.profile_columns(sums[begin:], model)
                for source, (_, sums), model
                in zip(self.sources, block, active)]),
            codes, self.device)
        invalid = solution.invalid.any(axis=1)
        if self.config.strict:
            invalid |= solution.implausible.any(axis=1)
        end = int(invalid.argmax()) if invalid.any() else len(invalid)
        used, commits = _walk(hysteresis, solution.proposals[:end], codes)
        if commits is None and end < len(invalid):
            obs.counter_inc("stream.windows",
                            (used + 1) * len(self.sources))
            self._raise_invalid(block, begin + end, active)
        obs.counter_inc("stream.windows", used * len(self.sources))
        return used, commits and [None if c is None else MODELS[c]
                                  for c in commits], solution

    def _raise_invalid(self, block, index: int, active: List[str]) -> None:
        """Rebuild one invalid window the per-window way: building its
        profiles or deciding them raises the structured error."""
        profiles = [source.to_profile(sums[index], model=model)
                    for source, (_, sums), model
                    in zip(self.sources, block, active)]
        for profile in profiles:
            decide(profile, self.device)
        raise AssertionError("a window flagged invalid decided cleanly")

    def _flip(self, source, emission: int, from_model: str,
              to_model: str, sums: np.ndarray) -> FlipEvent:
        profile = source.to_profile(sums, model=from_model)
        report = self.framework.retune(
            profile, device=self.device, strict=self.config.strict)
        obs.counter_inc("stream.flips")
        obs.event("stream.flip", workload=source.workload_name,
                  board=source.board_name, emission=emission,
                  from_model=from_model, to_model=to_model, drift=False)
        return FlipEvent(emission=emission, from_model=from_model,
                         to_model=to_model, drift=False, report=report,
                         tune_report=self.framework.last_tune_report)
