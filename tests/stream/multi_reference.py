"""Per-window reference engines for the streaming oracle tests.

These are the stream engines as they were before block evaluation:
every aligned emission builds each app's ``AppProfile``, runs a scalar
contention fixed point (one ``decide`` per app per round) or one
``decide`` call, and feeds the proposal to hysteresis.  They are slow
and obviously per-window; ``test_multi_oracle.py`` pins the production
engines to them.  The scalar window-to-profile reconstruction
(:func:`reference_profile`) and contended board
(:func:`reference_degraded`) are kept here too, so the oracle shares
none of the arithmetic under test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro import obs
from repro.errors import ReproError, StreamError
from repro.model.decision import decide, keep_current, proposed_model
from repro.profiling.counters import AppProfile
from repro.stream.engine import _Hysteresis
from repro.stream.sources import COUNTER_COLUMNS, CounterWindowSource
from repro.stream.window import SlidingWindow


def _ratio(num: int, den: int) -> float:
    """A counter rate: both counts as floats, then divided; 0 when
    nothing was counted."""
    return float(num) / float(den) if den else 0.0


def reference_profile(source, sums, model: str) -> AppProfile:
    """One window's ``AppProfile`` from its sums, one Python scalar at a
    time, for a counter or a trace source."""
    if isinstance(source, CounterWindowSource):
        s = {name: int(sums[i]) for i, name in enumerate(COUNTER_COLUMNS)}
        if s["gpu_accesses"] <= 0 or s["kernel_ns"] <= 0:
            raise StreamError(
                "window has no GPU activity (zero accesses or kernel "
                "time); cannot evaluate eqn 2",
                code="STREAM_EMPTY_WINDOW",
                details={"gpu_accesses": s["gpu_accesses"],
                         "kernel_ns": s["kernel_ns"]})
        return AppProfile(
            workload_name=source.workload_name,
            board_name=source.board_name,
            model=model,
            cpu_l1_miss_rate=_ratio(s["cpu_l1_miss"], s["cpu_l1_refs"]),
            cpu_llc_miss_rate=_ratio(s["cpu_llc_miss"], s["cpu_llc_refs"]),
            cpu_time_s=s["cpu_ns"] * 1e-9,
            gpu_l1_hit_rate=_ratio(s["gpu_l1_hits"], s["gpu_accesses"]),
            gpu_transactions=s["gpu_accesses"],
            gpu_transaction_size=s["gpu_bytes"] / s["gpu_accesses"],
            kernel_runtime_s=s["kernel_ns"] * 1e-9,
            copy_time_s=s["copy_ns"] * 1e-9,
            total_runtime_s=max(s["total_ns"], s["copy_ns"]) * 1e-9)
    accesses, total_bytes, l1_hits, kernel_ns = (
        int(sums[0]), int(sums[2]), int(sums[3]), int(sums[5]))
    if accesses <= 0 or kernel_ns <= 0:
        raise StreamError(
            "window has no accesses; cannot evaluate eqn 2",
            code="STREAM_EMPTY_WINDOW",
            details={"accesses": accesses, "kernel_ns": kernel_ns})
    cpu = source.cpu_side
    model = model.upper()
    kernel_s = kernel_ns * 1e-9
    copy_s = (total_bytes / cpu.copy_bytes_per_s
              if model in ("SC", "UM") else 0.0)
    cpu_s = cpu.cpu_time_ratio * kernel_s
    return AppProfile(
        workload_name=source.workload_name,
        board_name=source.board_name,
        model=model,
        cpu_l1_miss_rate=cpu.cpu_l1_miss_rate,
        cpu_llc_miss_rate=cpu.cpu_llc_miss_rate,
        cpu_time_s=cpu_s,
        gpu_l1_hit_rate=l1_hits / accesses,
        gpu_transactions=accesses,
        gpu_transaction_size=total_bytes / accesses,
        kernel_runtime_s=kernel_s,
        copy_time_s=copy_s,
        total_runtime_s=max(cpu_s, kernel_s) + copy_s)


def reference_degraded(device, factor: float):
    """The board one app sees when its bandwidth is scaled by
    ``factor``, scalar: below 1 it scales the ZC throughput, the GPU
    threshold and zone-2 bound and the SC→ZC cap's headroom above 1."""
    if factor >= 1.0:
        return device
    gpu = device.gpu_thresholds
    gpu = replace(
        gpu,
        threshold_pct=gpu.threshold_pct * factor,
        threshold_fraction=gpu.threshold_fraction * factor,
        zone2_pct=(gpu.zone2_pct * factor
                   if gpu.zone2_pct is not None else None),
        zone2_fraction=(gpu.zone2_fraction * factor
                        if gpu.zone2_fraction is not None else None))
    throughput = dict(device.gpu_cache_throughput)
    throughput["ZC"] = device.gpu_zc_throughput * factor
    sc_zc = device.sc_zc_max_speedup
    if sc_zc > 1.0:
        sc_zc = 1.0 + (sc_zc - 1.0) * factor
    return replace(device, gpu_cache_throughput=throughput,
                   gpu_thresholds=gpu, sc_zc_max_speedup=sc_zc)


def reference_effective_device(contention, device, others_dram_bps,
                               others_zc_bps):
    """The contended board under the others' DRAM and ZC demand."""
    cfg = contention.config
    f_dram = 1.0 / (1.0 + cfg.dram_weight * others_dram_bps /
                    device.gpu_peak_throughput)
    f_zc = 1.0 / (1.0 + cfg.zc_weight * others_zc_bps /
                  device.gpu_zc_throughput)
    return reference_degraded(device, f_dram * f_zc)


@dataclass(frozen=True)
class RefDecision:
    model: str
    proposed: str
    recommendation: object
    effective_gpu_threshold_pct: float


def reference_resolve(contention, apps, device, strict=True):
    """The scalar fixed point: ``(decisions, iterations, converged)``
    for a list of ``(profile, model)`` pairs."""
    state: Tuple[str, ...] = tuple(model for _, model in apps)
    seen = {state}
    decisions = None
    for iteration in range(1, contention.config.max_iterations + 1):
        decisions = _round(contention, apps, device, state, strict)
        next_state = tuple(d.proposed for d in decisions)
        if next_state == state:
            return decisions, iteration, True
        if next_state in seen:
            stable = min(next_state, state)
            return (_round(contention, apps, device, stable, strict),
                    iteration, False)
        seen.add(next_state)
        state = next_state
    return decisions, contention.config.max_iterations, False


def _round(contention, apps, device, state, strict):
    demands = [contention.demand_bps(profile, model)
               for (profile, _), model in zip(apps, state)]
    total_dram = sum(d for d, _ in demands)
    total_zc = sum(z for _, z in demands)
    decisions = []
    for i, ((profile, _), model) in enumerate(zip(apps, state)):
        own_dram, own_zc = demands[i]
        effective = reference_effective_device(
            contention, device, total_dram - own_dram, total_zc - own_zc)
        recommendation = decide(replace(profile, model=model), effective,
                                strict=strict)
        decisions.append(RefDecision(
            model=model,
            proposed=proposed_model(recommendation, model),
            recommendation=recommendation,
            effective_gpu_threshold_pct=effective.gpu_threshold_pct))
    return tuple(decisions)


@dataclass
class RefFlip:
    emission: int
    from_model: str
    to_model: str
    report: object


@dataclass
class RefApp:
    workload_name: str
    final_model: str
    decisions: int
    flips: List[RefFlip]
    effective_gpu_threshold_pct: float


@dataclass
class RefMultiResult:
    apps: List[RefApp]
    windows: int
    converged: bool
    max_fixed_point_iterations: int


def _emission_stream(source, config):
    windower = SlidingWindow(config.spec, len(source.columns),
                             incremental=config.incremental)
    for features in source.feature_chunks(config.chunk_size):
        emissions, sums = windower.push(features)
        for i in range(len(emissions)):
            yield int(emissions[i]), sums[i]


def reference_multi_run(framework, sources, device, config,
                        contention) -> RefMultiResult:
    """Lockstep per-window multi-app run (obs counters included)."""
    active = [source.initial_model for source in sources]
    hysteresis = [_Hysteresis(config.hysteresis) for _ in sources]
    flips: List[List[RefFlip]] = [[] for _ in sources]
    decisions = [0] * len(sources)
    last_threshold = [device.gpu_threshold_pct] * len(sources)
    windows = 0
    converged = True
    max_iterations = 0
    for aligned in zip(*(_emission_stream(s, config) for s in sources)):
        windows += 1
        obs.counter_inc("stream.windows", len(sources))
        apps = [(reference_profile(source, sums, active[i]), active[i])
                for i, (source, (_, sums)) in enumerate(zip(sources,
                                                            aligned))]
        result, iterations, ok = reference_resolve(
            contention, apps, device, strict=config.strict)
        converged = converged and ok
        max_iterations = max(max_iterations, iterations)
        for i, decision in enumerate(result):
            decisions[i] += 1
            last_threshold[i] = decision.effective_gpu_threshold_pct
            committed = hysteresis[i].observe(decision.proposed, active[i])
            if committed is not None:
                emission, sums = aligned[i]
                profile = reference_profile(sources[i], sums, active[i])
                report = framework.retune(profile, device=device,
                                          strict=config.strict)
                obs.counter_inc("stream.flips")
                flips[i].append(RefFlip(emission, active[i], committed,
                                        report))
                active[i] = committed
    obs.counter_inc("stream.decisions", sum(decisions))
    return RefMultiResult(
        apps=[RefApp(source.workload_name, active[i], decisions[i],
                     flips[i], last_threshold[i])
              for i, source in enumerate(sources)],
        windows=windows,
        converged=converged,
        max_fixed_point_iterations=max_iterations,
    )


@dataclass
class RefSingleResult:
    final_model: str
    windows: int
    decisions: int
    flips: List[RefFlip]
    last_recommendation: Optional[object]


def reference_single_run(framework, source, device,
                         config) -> RefSingleResult:
    """One ``to_profile`` + ``decide`` per emission (no drift stats)."""
    hysteresis = _Hysteresis(config.hysteresis)
    active = source.initial_model
    flips: List[RefFlip] = []
    decisions = 0
    last = None

    def decide_window(sums, model):
        try:
            profile = reference_profile(source, sums, model)
            return decide(profile, device, strict=config.strict)
        except ReproError as error:
            if config.strict:
                raise
            return keep_current(
                model, f"stream window failed ({error.code})",
                caveats=(f"{error.code}: {error.message}",),
                device=device)

    for emission, sums in _emission_stream(source, config):
        decisions += 1
        last = decide_window(sums, active)
        committed = hysteresis.observe(proposed_model(last, active), active)
        if committed is not None:
            report = framework.retune(reference_profile(source, sums, active),
                                      device=device, strict=config.strict)
            flips.append(RefFlip(emission, active, committed, report))
            active = committed
    return RefSingleResult(active, decisions, decisions, flips, last)
