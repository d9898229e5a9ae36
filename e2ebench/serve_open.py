"""``serve-open``: seeded open-loop Poisson traffic into a ``TuneServer``.

The characterization store is warm (each board is characterized in
set-up), so requests pay profiling, the decision flow and queueing.
Traffic asks the six Tables II-V questions; one request in four ships
a pre-measured profile and takes the ``retune`` path.  Each request is
timed from when it was due, so a stall also delays the requests behind
it, and the generator's own lateness is reported beside the latency.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.cli import _get_pipeline
from repro.model.framework import Framework
from repro.serve import TuneRequest, TuneServer
from repro.soc.board import get_board

from e2ebench.common import (
    BOARDS,
    CELLS,
    Context,
    Oracle,
    median,
    metric,
    peak_rss_mb,
    tail,
    timed_setup,
)
from e2ebench.inputs import arrival_offsets, request_stream

#: The fixed offered rates (requests/s), both below the knee, and the
#: share of the run each gets; the capacity search gets the rest.
RATES = {5.0: 0.2, 10.0: 0.6}
#: Latency limit on the tail for a rate to count as sustained.
TAIL_LIMIT_S = 0.5
#: The generator fell behind its schedule when more than ten requests
#: (its lateness tail, given twenty or more) went out later than this.
LATE_LIMIT_S = 0.025
#: The capacity search bracket, as multiples of the service rate
#: measured at the fixed rates.  Batching and the second dispatch worker
#: let the server sustain more than that rate, hence the top of 2.2.
BRACKET = (0.6, 2.2)
#: Rounds a run is split into.  Each offers every fixed rate for its
#: share and then makes one capacity probe, so every figure samples the
#: whole run and not one stretch of a host whose speed drifts.
ROUNDS = 5
#: Host-speed probes after each round, while no request is in flight.
ROUND_PROBES = 10

Key = Tuple[str, str, bool]  # (app, board, carries a profile)


@dataclass
class State:
    framework: object
    boards: Dict[str, object]
    profiles: Dict[Tuple[str, str], object]
    oracle: Oracle
    #: Serial ``Framework.tune``/``retune`` answer per question.
    refs: Dict[Key, object] = field(default_factory=dict)


@dataclass
class Phase:
    """One stretch of offered load and what came back."""
    rate: float
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    pending: List[int] = field(default_factory=list)
    answers: List[object] = field(default_factory=list)
    shed: int = 0
    wrong: int = 0
    over_limit: int = 0
    stopped_early: bool = False

    def hopeless(self) -> bool:
        """Already certain to miss the limit (more than ten samples are
        beyond it, or a request was refused or wrong)."""
        return self.shed > 0 or self.wrong > 0 or self.over_limit > 10

    def verdict(self) -> Tuple[bool, str]:
        if self.stopped_early or self.hopeless():
            return False, (f"{self.shed} shed, {self.wrong} wrong, "
                           f"{self.over_limit} over {TAIL_LIMIT_S}s")
        latency, _, _ = tail(self.latencies)
        if latency > TAIL_LIMIT_S:
            return False, f"tail {latency * 1e3:.0f} ms"
        if self.generator_behind():
            return False, "generator behind"
        if _backlog_grows(self.pending):
            return False, "backlog grows"
        return True, f"tail {latency * 1e3:.0f} ms"

    def generator_behind(self) -> bool:
        return sum(late > LATE_LIMIT_S for late in self.lateness) > 10


def _backlog_grows(pending: List[int]) -> bool:
    """Whether the in-flight count at arrivals climbs: its last-quarter
    mean exceeds the first quarter's by over 15 % of the arrivals plus two."""
    quarter = len(pending) // 4
    if quarter < 2:
        return False
    first = sum(pending[:quarter]) / quarter
    last = sum(pending[-quarter:]) / quarter
    return last > first + 0.15 * len(pending) + 2.0


def _service_rate(phase: Phase) -> float:
    """Requests answered per second of batch service time."""
    busy = sum(a.service_s / a.batch_size for a in phase.answers)
    return len(phase.answers) / busy


def setup(ctx: Context, repeats: int) -> Tuple[float, State]:
    def once() -> State:
        framework = Framework(cache_dir=str(ctx.fresh_dir("store")))
        boards = {name: get_board(name) for name in BOARDS}
        for board in boards.values():
            framework.characterize(board)
        profiles = {
            (app, board): framework.profile(
                _get_pipeline(app).workload(board_name=board),
                boards[board], model="SC")
            for app, board in CELLS
        }
        return State(framework, boards, profiles, Oracle())

    setup_s, state = timed_setup(ctx, once, repeats)
    # The serial answers every served answer must equal.
    for app, board in CELLS:
        tuned = state.framework.tune(
            _get_pipeline(app).workload(board_name=board),
            state.boards[board], strict=False)
        retuned = state.framework.retune(
            state.profiles[(app, board)], board=state.boards[board],
            strict=False)
        for carries, report in ((False, tuned), (True, retuned)):
            state.refs[(app, board, carries)] = report
            ctx.tally.record(state.oracle.check_report(app, board, report))
    return setup_s, state


def _request(state: State, key: Key):
    app, board, carries = key
    if carries:
        return TuneRequest(board=board, profile=state.profiles[(app, board)])
    return TuneRequest(board=board, app=app)


async def _offer(ctx: Context, server, state: State, label: str,
                 rate: float, duration: float, probe: bool = False,
                 keep_answers: bool = False,
                 requests: Optional[Iterator[Key]] = None) -> Phase:
    """Offer ``rate`` requests/s for ``duration`` seconds and wait for
    every answer.  Questions come from ``requests`` (default: a fresh
    stream for ``label``).  In a capacity ``probe`` a refused (shed)
    request fails the probe but is not a failed operation, and the probe
    stops offering load once it cannot pass.  ``keep_answers`` keeps
    every answer for the per-layer read-out."""
    offsets = arrival_offsets(ctx.seed, label, rate, duration)
    if requests is None:
        requests = request_stream(ctx.seed, label)
    loop = asyncio.get_running_loop()
    phase = Phase(rate)

    async def one(due: float, key: Key) -> None:
        answer = await server.submit(_request(state, key))
        latency = loop.time() - due
        phase.latencies.append(latency)
        if keep_answers:
            phase.answers.append(answer)
        if latency > TAIL_LIMIT_S:
            phase.over_limit += 1
        if answer.shed:
            phase.shed += 1
            if probe:
                ctx.tally.record([])
                return
        problems = []
        if answer.status != "ok":
            problems.append(f"{key}: {answer.status} {answer.error}")
        elif answer.report != state.refs[key]:
            problems.append(f"{key}: served answer differs from the "
                            f"serial one")
        if problems:
            phase.wrong += 1
        ctx.tally.record(problems)

    tasks = []
    start = loop.time() + 0.01
    for offset, key in zip(offsets, requests):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if probe and phase.hopeless():
            phase.stopped_early = True
            break
        phase.lateness.append(loop.time() - due)
        phase.pending.append(server.pending)
        tasks.append(loop.create_task(one(due, key)))
    await asyncio.gather(*tasks)
    obs.clear()  # the span buffer must not grow from phase to phase
    return phase


class _Bisection:
    """Bisection over offered rate for the highest sustained one.

    The bracket is set around the service rate measured at the fixed
    rates, so the probes land near the knee.
    """
    def __init__(self, service_rate: float) -> None:
        self.low = BRACKET[0] * service_rate
        self.high = BRACKET[1] * service_rate
        self.confirmed = False

    def next_rate(self) -> float:
        return (self.low + self.high) / 2

    def record(self, rate: float, sustained: bool) -> None:
        if sustained:
            self.low, self.confirmed = rate, True
        else:
            self.high = rate


async def _probe(ctx: Context, server, state: State, label: str,
                 rate: float, seconds: float) -> bool:
    phase = await _offer(ctx, server, state, label, rate, seconds,
                         probe=True)
    ok, why = phase.verdict()
    ctx.say(f"  capacity probe {rate:.2f} rps: "
            f"{'sustained' if ok else 'not sustained'} ({why})")
    return ok


def _pooled(segments: List[Phase]) -> Phase:
    pooled = Phase(segments[0].rate)
    for segment in segments:
        pooled.latencies += segment.latencies
        pooled.lateness += segment.lateness
        pooled.answers += segment.answers
    return pooled


def _report_phase(ctx: Context, name: str, phase: Phase) -> Tuple[
        float, float]:
    p50, tail_ms = ctx.report_latency(name, phase.latencies)
    late, pct, n = tail(phase.lateness)
    ctx.say(f"  {name}_generator_late_p50_ms = "
            f"{median(phase.lateness) * 1e3:.3f} ms, tail "
            f"{late * 1e3:.3f} ms (p{pct:.1f} of n={n})")
    if phase.generator_behind():
        ctx.valid = False
        ctx.say(f"  INVALID: the generator fell behind at {phase.rate} rps "
                f"(more than ten requests over {LATE_LIMIT_S * 1e3:.0f} ms "
                f"late)")
    return p50, tail_ms


def run(ctx: Context, state: State) -> Dict[str, dict]:
    """Fixed rates and capacity search, interleaved over ``ROUNDS``
    rounds so each figure samples the whole run."""
    round_s = ctx.seconds / ROUNDS
    first = len(ctx.probes)
    probe_s = round_s * (1.0 - sum(RATES.values()))

    async def main():
        async with TuneServer(state.framework) as server:
            segments: Dict[float, List[Phase]] = {rate: [] for rate in RATES}
            # One question stream per rate across all rounds keeps each
            # rate's pooled mix balanced.
            streams = {rate: request_stream(ctx.seed, f"r{rate:g}")
                       for rate in RATES}
            search = None
            for index in range(ROUNDS):
                for rate, share in RATES.items():
                    segments[rate].append(await _offer(
                        ctx, server, state, f"r{rate:g}:{index}", rate,
                        round_s * share, keep_answers=True,
                        requests=streams[rate]))
                if search is None:
                    search = _Bisection(
                        _service_rate(segments[max(RATES)][0]))
                rate = search.next_rate()
                search.record(rate, await _probe(
                    ctx, server, state, f"capacity:{index}", rate, probe_s))
                ctx.probe(ROUND_PROBES)
            # The highest fixed rate every segment of which was sustained.
            floor = max([rate for rate, parts in segments.items()
                         if all(part.verdict()[0] for part in parts)],
                        default=0.0)
            capacity = search.low if search.confirmed else 0.0
            if not search.confirmed and await _probe(
                    ctx, server, state, "capacity:last", search.low,
                    probe_s):
                capacity = search.low
            return segments, max(capacity, floor)

    segments, capacity = asyncio.run(main())
    results = {}
    for rate, parts in segments.items():
        phase = _pooled(parts)
        ctx.say(f"  service rate at {rate:g} rps: "
                f"{_service_rate(phase):.2f} answers per busy second")
        results[rate] = _report_phase(ctx, f"serve_r{rate:g}", phase)
    ctx.say(f"  serve_capacity_rps = {capacity:.3f} 1/s (tail <= "
            f"{TAIL_LIMIT_S * 1e3:.0f} ms, nothing shed or failed, no "
            f"growing backlog)")
    p50, tail_ms = results[10.0]
    # Open-loop requests overlap, so the whole run shares one scale.
    scale = ctx.speed_scale(first)
    ctx.say(f"  host-speed scale {scale:.4f}: serve_r10_p50_ms_scaled = "
            f"{p50 * scale:.3f} ms, serve_r10_tail_ms_scaled = "
            f"{tail_ms * scale:.3f} ms, serve_capacity_rps_scaled = "
            f"{capacity / scale:.3f} 1/s")
    return {
        "p50_ms": metric(p50 * scale, "ms"),
        "tail_ms": metric(tail_ms * scale, "ms"),
        "throughput_per_s": metric(capacity / scale, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def layers(ctx: Context, state: State, budget: float,
           native: bool) -> Dict[str, dict]:
    """Queue wait, service time, batch size and coalescing at 10 rps,
    read from each answer and from the server's counters.  Natively an
    untraced stretch at the same rate runs first, for the tracing
    overhead."""
    async def main():
        async with TuneServer(state.framework) as server:
            plain = None
            if native:
                plain = await _offer(ctx, server, state, "layers-plain",
                                     10.0, budget / 2)
            before = server.stats.as_dict()
            traced = await _offer(ctx, server, state, "layers", 10.0,
                                  budget / (2 if native else 1),
                                  keep_answers=True)
            return plain, traced, before, server.stats.as_dict()

    plain, traced, before, after = asyncio.run(main())
    answers = traced.answers
    metrics = {
        "serve.queue_wait_ms": metric(
            median([a.wait_s for a in answers]) * 1e3, "ms"),
        "serve.service_ms": metric(
            median([a.service_s for a in answers]) * 1e3, "ms"),
        "serve.batch_size_mean": metric(
            sum(a.batch_size for a in answers) / len(answers), "count"),
        "serve.coalesced_share": metric(
            (after["coalesced"] - before["coalesced"])
            / (after["answered"] - before["answered"]), "ratio"),
    }
    if native:
        metrics["trace.overhead_pct"] = metric(
            (median(traced.latencies) / median(plain.latencies) - 1.0)
            * 100.0, "%")
    return metrics
