"""The Fig-2 decision flow.

Given an application profile (cache usages, task times) and a device
characterization (thresholds, zones, max speedups), recommend the
communication model and estimate the potential speedup of switching:

1. GPU cache usage above the device's zone-2 bound → the GPU is
   severely bottlenecked without its cache: **SC/UM**.
2. GPU cache usage between the threshold and the zone-2 bound (only
   I/O-coherent devices have this zone) → **ZC conditionally**: the
   eliminated copies and task overlap must outweigh the (bounded)
   kernel slowdown.
3. GPU cache usage below the threshold:
   a. CPU cache usage above its threshold → ZC only pays on devices
      whose coherence keeps the CPU caches on (**ZC** on Xavier-class,
      **SC/UM** otherwise);
   b. both usages low → **ZC**: at least equivalent performance and
      lower energy (no copy traffic).

If the application is cache-dependent and already on SC, the framework
suggests no change (paper §III-A).

:func:`decide` answers one profile with a full, explained
:class:`Recommendation`.  :func:`propose_block` answers the question the
streaming engines ask on every window — which model would this flow
move to? — for whole columns of window profiles at once, with the same
float operations; the two are pinned to each other by property tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelError, ReproError
from repro.model.device import DeviceCharacterization
from repro.model.speedup import SpeedupEstimate, sc_to_zc_speedup, zc_to_sc_speedup
from repro.profiling.counters import AppProfile, ProfileColumns
from repro.profiling.metrics import profile_cpu_cache_usage, profile_gpu_cache_usage

#: Cache usage is a percentage of a peak measured by MB1; a profile
#: reporting meaningfully more than 100 % is physically impossible and
#: indicates mis-reported counters.
_MAX_PLAUSIBLE_USAGE_PCT = 120.0


class RecommendedModel(enum.Enum):
    """What the framework suggests."""

    ZERO_COPY = "ZC"
    STANDARD_COPY_OR_UM = "SC/UM"
    ZERO_COPY_CONDITIONAL = "ZC (zone 2)"
    NO_CHANGE = "keep current"
    #: Alias for :attr:`NO_CHANGE` — the degraded-mode fallback name.
    KEEP_CURRENT = "keep current"


class Confidence(enum.Enum):
    """How much the framework trusts a recommendation.

    ``HIGH`` — clean inputs, full decision flow.
    ``MEDIUM`` — the flow completed but some input needed a retry or a
    non-fatal repair (see the recommendation's ``caveats``).
    ``LOW`` — degraded mode: inputs were missing or invalid and the
    framework fell back to the conservative ``KEEP_CURRENT``.
    """

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class Zone(enum.IntEnum):
    """GPU cache-usage zone (Fig. 3's three regions)."""

    BELOW_THRESHOLD = 1
    CONDITIONAL = 2
    BOTTLENECKED = 3


@dataclass(frozen=True)
class Recommendation:
    """Outcome of the decision flow for one application on one board.

    In degraded mode (``decide(..., strict=False)`` on bad inputs) the
    numeric fields may be NaN and ``zone`` ``None``; ``confidence`` is
    then :attr:`Confidence.LOW` and ``caveats`` lists the structured
    error codes that forced the fallback.
    """

    model: RecommendedModel
    zone: Optional[Zone]
    cpu_cache_usage_pct: float
    gpu_cache_usage_pct: float
    cpu_threshold_pct: float
    gpu_threshold_pct: float
    gpu_zone2_pct: float
    reason: str
    estimate: Optional[SpeedupEstimate] = None
    energy_motivated: bool = False
    confidence: Confidence = Confidence.HIGH
    caveats: Tuple[str, ...] = ()

    @property
    def suggests_switch(self) -> bool:
        """True when the recommendation differs from the current model."""
        return self.model is not RecommendedModel.NO_CHANGE

    @property
    def degraded(self) -> bool:
        """True when this is a degraded-mode fallback recommendation."""
        return self.confidence is Confidence.LOW

    @property
    def estimated_speedup_pct(self) -> Optional[float]:
        """Predicted "up to X %" speedup of following the advice."""
        return self.estimate.percent if self.estimate is not None else None


def keep_current(
    current_model: str,
    reason: str,
    caveats: Sequence[str] = (),
    device: Optional[DeviceCharacterization] = None,
) -> Recommendation:
    """The conservative degraded-mode fallback recommendation.

    When the framework cannot trust its inputs it recommends keeping
    the application's current communication model — switching on bad
    data risks a large regression, staying put risks only a missed
    improvement.
    """
    nan = float("nan")
    return Recommendation(
        model=RecommendedModel.KEEP_CURRENT,
        zone=None,
        cpu_cache_usage_pct=nan,
        gpu_cache_usage_pct=nan,
        cpu_threshold_pct=device.cpu_threshold_pct if device else nan,
        gpu_threshold_pct=device.gpu_threshold_pct if device else nan,
        gpu_zone2_pct=device.gpu_zone2_pct if device else nan,
        reason=(f"degraded mode: {reason} — keeping the current "
                f"{current_model.upper()} model"),
        confidence=Confidence.LOW,
        caveats=tuple(caveats),
    )


def decide(
    profile: AppProfile,
    device: DeviceCharacterization,
    strict: bool = True,
) -> Recommendation:
    """Run the Fig-2 decision flow.

    With ``strict=True`` (the default, today's behaviour) inconsistent
    inputs raise structured errors.  With ``strict=False`` any
    :class:`~repro.errors.ReproError` raised by the flow is absorbed
    into a conservative :func:`keep_current` recommendation whose
    ``caveats`` carry the error codes.
    """
    if strict:
        return _decide(profile, device)
    try:
        return _decide(profile, device)
    except ReproError as error:
        return keep_current(
            profile.model,
            f"decision flow failed ({error.code})",
            caveats=(f"{error.code}: {error.message}",),
            device=device,
        )


def _decide(
    profile: AppProfile,
    device: DeviceCharacterization,
) -> Recommendation:
    if profile.board_name != device.board_name:
        raise ModelError(
            f"profile is for board {profile.board_name!r} but the "
            f"characterization is for {device.board_name!r}",
            code="MODEL_BOARD_MISMATCH",
            details={"profile_board": profile.board_name,
                     "device_board": device.board_name},
        )
    current = profile.model.upper()
    cpu_usage = profile_cpu_cache_usage(profile)
    gpu_usage = profile_gpu_cache_usage(profile, device.gpu_peak_throughput)
    for side, usage in (("cpu", cpu_usage), ("gpu", gpu_usage)):
        if not math.isfinite(usage) or usage > _MAX_PLAUSIBLE_USAGE_PCT:
            raise ModelError(
                f"{side} cache usage {usage:.1f} % is implausible (peak "
                f"throughput is 100 %); the profile counters are "
                f"mis-reported",
                code="GUARD_CACHE_USAGE",
                details={"side": side, "usage_pct": usage,
                         "limit_pct": _MAX_PLAUSIBLE_USAGE_PCT},
            )
    zone = Zone(device.gpu_thresholds.zone_of(gpu_usage))

    common = dict(
        zone=zone,
        cpu_cache_usage_pct=cpu_usage,
        gpu_cache_usage_pct=gpu_usage,
        cpu_threshold_pct=device.cpu_threshold_pct,
        gpu_threshold_pct=device.gpu_threshold_pct,
        gpu_zone2_pct=device.gpu_zone2_pct,
    )

    gpu_dependent = zone is not Zone.BELOW_THRESHOLD
    cpu_dependent = cpu_usage > device.cpu_threshold_pct

    if zone is Zone.BOTTLENECKED or (gpu_dependent and zone is not Zone.CONDITIONAL):
        return _recommend_copy_models(profile, device, current, common,
                                      "GPU cache usage exceeds the device zones; "
                                      "zero-copy would bottleneck the kernel")
    if zone is Zone.CONDITIONAL:
        if current in ("SC", "UM"):
            estimate = _estimate_sc_to_zc(profile, device)
            return Recommendation(
                model=RecommendedModel.ZERO_COPY_CONDITIONAL,
                reason=(
                    "GPU cache usage falls in the device's second zone: "
                    "zero-copy may still win if copy elimination and task "
                    "overlap recover the bounded kernel slowdown"
                ),
                estimate=estimate,
                **common,
            )
        return Recommendation(
            model=RecommendedModel.NO_CHANGE,
            reason=(
                "already on zero-copy inside the conditional zone; the "
                "kernel slowdown is bounded and the copies stay eliminated"
            ),
            **common,
        )
    # GPU cache usage is low.
    if cpu_dependent:
        if device.io_coherent:
            return _recommend_zero_copy(profile, device, current, common,
                                        "CPU-cache-dependent, but the device's "
                                        "hardware I/O coherence keeps the CPU "
                                        "caches enabled under zero-copy")
        return _recommend_copy_models(profile, device, current, common,
                                      "CPU-cache-dependent and zero-copy "
                                      "disables the CPU caches on this device")
    return _recommend_zero_copy(
        profile, device, current, common,
        "both cache usages are low: zero-copy gives at least equivalent "
        "performance and saves the copy energy",
        energy_motivated=True,
    )


def _estimate_sc_to_zc(
    profile: AppProfile, device: DeviceCharacterization
) -> Optional[SpeedupEstimate]:
    if profile.total_runtime_s <= 0 or profile.kernel_runtime_s <= 0:
        return None
    if profile.copy_time_s >= profile.total_runtime_s:
        return None
    return sc_to_zc_speedup(
        sc_runtime_s=profile.total_runtime_s,
        copy_time_s=profile.copy_time_s,
        cpu_time_s=profile.cpu_time_s,
        gpu_time_s=profile.kernel_runtime_s,
        max_speedup=device.sc_zc_max_speedup,
    )


def _estimate_zc_to_sc(
    profile: AppProfile, device: DeviceCharacterization
) -> Optional[SpeedupEstimate]:
    if profile.total_runtime_s <= 0 or profile.kernel_runtime_s <= 0:
        return None
    return zc_to_sc_speedup(
        zc_runtime_s=profile.total_runtime_s,
        copy_time_s=profile.copy_time_s,
        cpu_time_s=profile.cpu_time_s,
        gpu_time_s=profile.kernel_runtime_s,
        max_speedup=device.zc_sc_max_speedup,
    )


def _recommend_copy_models(profile, device, current, common, reason):
    if current in ("SC", "UM"):
        # Cache-dependent and already on a copy model: no change, no
        # further potential speedup (paper §III-A).
        return Recommendation(
            model=RecommendedModel.NO_CHANGE,
            reason=reason + " — already on a copy-based model",
            **common,
        )
    return Recommendation(
        model=RecommendedModel.STANDARD_COPY_OR_UM,
        reason=reason,
        estimate=_estimate_zc_to_sc(profile, device),
        **common,
    )


def _recommend_zero_copy(profile, device, current, common, reason,
                         energy_motivated=False):
    if current == "ZC":
        return Recommendation(
            model=RecommendedModel.NO_CHANGE,
            reason=reason + " — already on zero-copy",
            energy_motivated=energy_motivated,
            **common,
        )
    return Recommendation(
        model=RecommendedModel.ZERO_COPY,
        reason=reason,
        estimate=_estimate_sc_to_zc(profile, device),
        energy_motivated=energy_motivated,
        **common,
    )


def proposed_model(recommendation: Recommendation, active: str) -> str:
    """Map a Fig-2 recommendation onto a concrete target model.

    ``NO_CHANGE``/``KEEP_CURRENT`` propose the active model;
    ``SC/UM`` proposes SC (the copy family); the conditional zone
    proposes ZC only when its speedup estimate is actually positive —
    a conditional recommendation with nothing to gain must not feed
    the hysteresis counter.
    """
    model = recommendation.model
    if model is RecommendedModel.ZERO_COPY:
        return "ZC"
    if model is RecommendedModel.ZERO_COPY_CONDITIONAL:
        estimate = recommendation.estimated_speedup_pct
        if estimate is not None and estimate > 0:
            return "ZC"
        return active
    if model is RecommendedModel.STANDARD_COPY_OR_UM:
        return "SC"
    return active


#: Communication models by integer code in :func:`propose_block`.  The
#: names are sorted, so comparing code tuples orders model states the
#: same way comparing name tuples does.
MODELS: Tuple[str, ...] = ("SC", "UM", "ZC")
SC, UM, ZC = range(len(MODELS))


def model_code(model: str) -> int:
    """The :data:`MODELS` code of a communication-model name."""
    try:
        return MODELS.index(model.upper())
    except ValueError:
        raise ModelError(
            f"unknown communication model {model!r}; expected one of "
            f"{', '.join(MODELS)}",
            code="MODEL_UNKNOWN",
            details={"model": model},
        ) from None


def cache_usages(columns: ProfileColumns, device: DeviceCharacterization
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Eqns 1-2 per row, in the float operation order of :func:`decide`."""
    with np.errstate(all="ignore"):
        cpu = 100.0 * columns.cpu_l1_miss_rate * (
            1.0 - columns.cpu_llc_miss_rate)
        gpu = 100.0 * columns.gpu_traffic_bps() / device.gpu_peak_throughput
    return cpu, gpu


def implausible_usage(columns: ProfileColumns,
                      device: DeviceCharacterization) -> np.ndarray:
    """Rows on which :func:`decide` raises ``GUARD_CACHE_USAGE``."""
    return _implausible(*cache_usages(columns, device))


def _implausible(cpu_usage: np.ndarray, gpu_usage: np.ndarray
                 ) -> np.ndarray:
    bad = np.zeros(cpu_usage.shape, dtype=bool)
    for usage in (cpu_usage, gpu_usage):
        bad |= ~np.isfinite(usage) | (usage > _MAX_PLAUSIBLE_USAGE_PCT)
    return bad


def propose_block(
    columns: ProfileColumns,
    current: Union[int, np.ndarray],
    device: DeviceCharacterization,
    factor: Union[float, np.ndarray] = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The Fig-2 flow's proposed model for every element at once.

    Columns of any shape work elementwise: element ``i`` answers
    ``proposed_model(decide(profile_i, device_i), current_i)`` where
    ``device_i`` is ``device`` with its GPU threshold, zone-2 bound and
    SC→ZC cap degraded by ``factor[i]``
    (:meth:`DeviceCharacterization.degraded_bounds`).  ``current`` holds
    :data:`MODELS` codes.  Elements whose usages ``decide`` rejects as
    implausible propose ``current``, as ``decide(strict=False)``'s
    ``keep_current`` fallback does.

    Returns ``(proposal codes, effective GPU threshold pct)``.
    """
    shape = columns.valid.shape
    current = np.broadcast_to(np.asarray(current, dtype=np.int8), shape)
    factor = np.broadcast_to(np.asarray(factor, dtype=np.float64), shape)
    cpu_usage, gpu_usage = cache_usages(columns, device)
    threshold, zone2_pct, cap = device.degraded_bounds(factor)
    with np.errstate(all="ignore"):
        zone1 = gpu_usage <= threshold
        if zone2_pct is None:
            zone2 = np.zeros(shape, dtype=bool)
        else:
            zone2 = ~zone1 & (gpu_usage <= zone2_pct)
        zone3 = ~zone1 & ~zone2
        # Eqn 3's sign, exactly as sc_to_zc_speedup and
        # Recommendation.estimated_speedup_pct compute it.
        total = columns.total_runtime_s
        copy_s = columns.copy_time_s
        kernel = columns.kernel_runtime_s
        estimable = (total > 0) & (kernel > 0) & ~(copy_s >= total)
        raw = total / ((total - copy_s) / (1.0 + columns.cpu_time_s / kernel))
        capped = np.where(cap < raw, cap, raw)
        gains = estimable & ((capped - 1.0) * 100.0 > 0)
    copy_model = (current == SC) | (current == UM)
    cpu_dependent = cpu_usage > device.cpu_threshold_pct
    # ZC takes precedence: a CPU-dependent app in zone 1 moves to ZC
    # on an I/O-coherent device and to the copy family otherwise.
    to_zc = ((zone1 & (~cpu_dependent | device.io_coherent)) |
             (zone2 & copy_model & gains))
    to_sc = (zone3 | (zone1 & cpu_dependent)) & ~copy_model
    plausible = ~_implausible(cpu_usage, gpu_usage)
    proposal = np.where(plausible & to_zc, ZC,
                        np.where(plausible & to_sc, SC, current))
    return proposal.astype(np.int8), threshold
