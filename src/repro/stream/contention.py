"""Multi-app contention over one SoC's shared memory paths.

N co-resident applications share the DRAM controller and the zero-copy
(system-memory) path.  One app's communication-model choice changes
another's thresholds — an app that moves to ZC adds sustained traffic
on the exact path a second app's ZC kernels depend on, shrinking the
GPU cache-usage zone in which ZC still wins for that second app (the
real-time interference concern of Ali & Yun, arXiv 1712.08738).

The model is deliberately simple and fully deterministic:

- each app's **demand** on the DRAM and ZC paths is its off-chip
  traffic rate ``bytes * (1 - l1_hit) / kernel_runtime`` attributed to
  the path its current model uses (ZC traffic loads both the ZC path
  and DRAM; copy-model traffic loads DRAM only);
- an app's **effective device** degrades the ZC throughput — and
  proportionally the GPU threshold/zone-2 bounds and the SC→ZC speedup
  cap — by ``1 / (1 + w · others_demand / path_capacity)``, one factor
  per path;
- :meth:`ContentionModel.solve` runs the Fig-2 flow
  (:func:`~repro.model.decision.propose_block`) per app against its
  effective device and iterates to a **fixed point** with simultaneous
  updates (every app re-decides against the *previous* round's
  choices, so the outcome is independent of app order).  A revisited
  state is a cycle: the pass stops, reports ``converged=False`` and
  keeps the smaller (lexicographically, by model name) of the two
  states of the revisit — the round's input state and the state it
  proposed — so the answer is still deterministic.

``solve`` evaluates a whole block of windows at once: demands,
factors, degraded thresholds and proposals are ``(windows, apps)``
arrays, every window runs its own fixed point in lockstep with the
others, and each round repeats the scalar model's float operations in
the same order, so every value is bit-identical to evaluating the
windows one at a time.  :meth:`ContentionModel.resolve` is ``solve``
on one window followed by one scalar
:func:`~repro.model.decision.decide` per app, which builds the
explained :class:`ContendedDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from repro.errors import StreamError
from repro.model.decision import (
    MODELS,
    ZC,
    Recommendation,
    decide,
    implausible_usage,
    model_code,
    propose_block,
)
from repro.model.device import DeviceCharacterization
from repro.profiling.counters import AppProfile, ProfileColumns


@dataclass(frozen=True)
class ContentionConfig:
    """Weights and bounds of the contention model."""

    #: Pressure weight of other apps' DRAM traffic.
    dram_weight: float = 0.5
    #: Pressure weight of other apps' ZC-path traffic.
    zc_weight: float = 1.0
    #: Fixed-point iteration cap (a cycle is detected earlier).
    max_iterations: int = 16

    def validated(self) -> "ContentionConfig":
        if self.dram_weight < 0 or self.zc_weight < 0:
            raise StreamError(
                "contention weights cannot be negative",
                code="STREAM_BAD_CONTENTION",
                details={"dram_weight": self.dram_weight,
                         "zc_weight": self.zc_weight},
            )
        if self.max_iterations < 1:
            raise StreamError(
                f"max_iterations must be >= 1, got {self.max_iterations}",
                code="STREAM_BAD_CONTENTION",
                details={"max_iterations": self.max_iterations},
            )
        return self


@dataclass(frozen=True)
class AppWindow:
    """One app's state entering a contention pass."""

    profile: AppProfile
    model: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", self.model.upper())


@dataclass(frozen=True)
class ContendedDecision:
    """The contention pass's outcome for one app."""

    workload_name: str
    model: str
    proposed: str
    recommendation: Recommendation
    dram_demand_bps: float
    zc_demand_bps: float
    #: The degraded thresholds this app actually decided against.
    effective_gpu_threshold_pct: float
    effective_zc_throughput: float

    @property
    def shifted(self) -> bool:
        """True when contention moved this app's proposal."""
        return self.proposed != self.model


@dataclass(frozen=True)
class ContentionResult:
    """Fixed point (or detected cycle) of one contention pass."""

    decisions: Tuple[ContendedDecision, ...]
    iterations: int
    converged: bool

    @property
    def models(self) -> Tuple[str, ...]:
        return tuple(d.proposed for d in self.decisions)


class ContentionModel:
    """Degrades each app's effective bandwidth from the others' load."""

    def __init__(self, config: ContentionConfig = ContentionConfig()
                 ) -> None:
        self.config = config.validated()

    def demand_bps(self, profile: AppProfile, model: str
                   ) -> Tuple[float, float]:
        """``(dram_bps, zc_bps)`` demand of one app under one model."""
        if profile.kernel_runtime_s <= 0:
            return 0.0, 0.0
        traffic = (profile.gpu_bytes_requested *
                   (1.0 - profile.gpu_l1_hit_rate) /
                   profile.kernel_runtime_s)
        if model.upper() == "ZC":
            return traffic, traffic
        return traffic, 0.0

    def effective_device(self, device: DeviceCharacterization,
                         others_dram_bps: float, others_zc_bps: float
                         ) -> DeviceCharacterization:
        """The characterization one app sees under the others' load."""
        return device.degraded(self._factor(device, others_dram_bps,
                                            others_zc_bps))

    def _factor(self, device: DeviceCharacterization, others_dram_bps,
                others_zc_bps):
        """``f_dram · f_zc``, the scale the others' DRAM and ZC-path
        demand puts on one app's bandwidth (floats or arrays)."""
        cfg = self.config
        f_dram = 1.0 / (1.0 + cfg.dram_weight * others_dram_bps /
                        device.gpu_peak_throughput)
        f_zc = 1.0 / (1.0 + cfg.zc_weight * others_zc_bps /
                      device.gpu_zc_throughput)
        return f_dram * f_zc

    def solve(self, columns: ProfileColumns, models: Sequence[int],
              device: DeviceCharacterization) -> "BlockSolution":
        """Fixed points of a block of aligned windows.

        ``columns`` is ``(windows, apps)``: app ``k``'s window profiles
        in column ``k``, entering every window under the
        :data:`~repro.model.decision.MODELS` code ``models[k]``.  Apps
        whose usages ``decide`` rejects keep proposing their current
        model (``strict=False`` semantics); :attr:`BlockSolution.implausible`
        tells strict callers where to raise.  Windows with an invalid
        profile are computed but meaningless.
        """
        cfg = self.config
        with np.errstate(all="ignore"):
            traffic = np.where(columns.kernel_runtime_s > 0,
                               columns.gpu_traffic_bps(), 0.0)
        state = np.tile(np.asarray(models, dtype=np.int8), (len(columns), 1))
        seen = [state]
        done = np.zeros(len(columns), dtype=bool)
        converged = np.zeros(len(columns), dtype=bool)
        iterations = np.full(len(columns), cfg.max_iterations)
        final = _Round.empty(state.shape)
        for iteration in range(1, cfg.max_iterations + 1):
            step = self._round(columns, traffic, state, device)
            live = ~done
            final.take(live, step)
            fixed = live & (step.proposals == state).all(axis=1)
            cycled = live & ~fixed & np.logical_or.reduce(
                [(step.proposals == past).all(axis=1) for past in seen])
            if cycled.any():
                # Oscillation: A's move makes B move makes A move back.
                # Re-decide from the smaller of the revisit's two
                # states so the answer is order- and run-independent.
                stable = _smaller(step.proposals, state)
                final.take(cycled, self._round(columns, traffic, stable,
                                               device))
            iterations[fixed | cycled] = iteration
            converged |= fixed
            done |= fixed | cycled
            if done.all():
                break
            state = np.where(done[:, None], state, step.proposals)
            seen.append(state)
        return BlockSolution(
            states=final.states, proposals=final.proposals,
            thresholds=final.thresholds, others_dram_bps=final.others_dram,
            others_zc_bps=final.others_zc, iterations=iterations,
            converged=converged, invalid=~columns.valid,
            implausible=implausible_usage(columns, device))

    def _round(self, columns: ProfileColumns, traffic: np.ndarray,
               state: np.ndarray, device: DeviceCharacterization
               ) -> "_Round":
        """One simultaneous re-decision round against ``state``."""
        zc = np.where(state == ZC, traffic, 0.0)
        # Python's sum adds app by app, as the scalar model did.
        apps = range(state.shape[1])
        others_dram = sum(traffic[:, k] for k in apps)[:, None] - traffic
        others_zc = sum(zc[:, k] for k in apps)[:, None] - zc
        with np.errstate(all="ignore"):
            factor = self._factor(device, others_dram, others_zc)
        proposals, thresholds = propose_block(columns, state, device, factor)
        return _Round(state, proposals, thresholds, others_dram, others_zc)

    def resolve(self, apps: Sequence[AppWindow],
                device: DeviceCharacterization,
                strict: bool = True) -> ContentionResult:
        """Iterate per-app decisions to a fixed point, explained.

        The slow single-window path: :meth:`solve` on a one-row block,
        then one scalar ``decide`` per app against its
        :meth:`effective_device` to build each rich
        :class:`ContendedDecision`.  Throughput callers that need only
        the models, iterations and thresholds of many windows should
        call :meth:`solve` on the whole block.
        """
        if not apps:
            raise StreamError(
                "a contention pass needs at least one app",
                code="STREAM_BAD_APPSET",
            )
        for app in apps:
            if app.profile.board_name != device.board_name:
                raise StreamError(
                    f"app {app.profile.workload_name!r} was profiled on "
                    f"{app.profile.board_name!r} but the contention pass "
                    f"runs on {device.board_name!r}",
                    code="STREAM_BAD_APPSET",
                    details={"workload": app.profile.workload_name,
                             "profile_board": app.profile.board_name,
                             "device_board": device.board_name},
                )
        solution = self.solve(
            ProfileColumns.from_profiles([app.profile for app in apps])[None],
            [model_code(app.model) for app in apps], device)
        decisions = []
        for k, app in enumerate(apps):
            model = MODELS[solution.states[0, k]]
            own_dram, own_zc = self.demand_bps(app.profile, model)
            effective = self.effective_device(
                device, float(solution.others_dram_bps[0, k]),
                float(solution.others_zc_bps[0, k]))
            decisions.append(ContendedDecision(
                workload_name=app.profile.workload_name,
                model=model,
                proposed=MODELS[solution.proposals[0, k]],
                recommendation=decide(replace(app.profile, model=model),
                                      effective, strict=strict),
                dram_demand_bps=own_dram,
                zc_demand_bps=own_zc,
                effective_gpu_threshold_pct=effective.gpu_threshold_pct,
                effective_zc_throughput=effective.gpu_zc_throughput,
            ))
        return ContentionResult(decisions=tuple(decisions),
                                iterations=int(solution.iterations[0]),
                                converged=bool(solution.converged[0]))


@dataclass(frozen=True)
class BlockSolution:
    """Per-window outcome of :meth:`ContentionModel.solve`.

    ``(windows, apps)`` arrays describe each window's final round: the
    model codes it decided from, the codes it proposed, the effective
    GPU thresholds and the other apps' DRAM/ZC demand.
    """

    states: np.ndarray
    proposals: np.ndarray
    thresholds: np.ndarray
    others_dram_bps: np.ndarray
    others_zc_bps: np.ndarray
    #: ``(windows,)``: rounds run, and whether a fixed point was hit.
    iterations: np.ndarray
    converged: np.ndarray
    #: ``(windows, apps)``: rows that are no valid profile, and rows
    #: whose usages ``decide`` rejects (``GUARD_CACHE_USAGE``).
    invalid: np.ndarray
    implausible: np.ndarray


@dataclass
class _Round:
    """One round's ``(windows, apps)`` arrays."""

    states: np.ndarray
    proposals: np.ndarray
    thresholds: np.ndarray
    others_dram: np.ndarray
    others_zc: np.ndarray

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "_Round":
        codes = np.zeros(shape, dtype=np.int8)
        return cls(codes, codes.copy(),
                   *(np.zeros(shape) for _ in range(3)))

    def take(self, mask: np.ndarray, other: "_Round") -> None:
        """Copy ``other``'s rows under ``mask``."""
        for name in ("states", "proposals", "thresholds", "others_dram",
                     "others_zc"):
            getattr(self, name)[mask] = getattr(other, name)[mask]


def _smaller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic minimum of two code matrices."""
    rows = np.arange(len(a))
    first = (a != b).argmax(axis=1)
    return np.where((b[rows, first] < a[rows, first])[:, None], b, a)
