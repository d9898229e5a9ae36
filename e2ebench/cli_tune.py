"""``cli-tune``: one fresh ``python -m repro tune APP BOARD`` per operation.

Every operation is a new interpreter with an empty ``--cache-dir``, so
interpreter start-up and the ``repro.cli`` import graph are paid each
time, as a user running the command pays them.  Closed loop, one client.
"""

from __future__ import annotations

import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from e2ebench.common import (
    PYTHON,
    ROOT,
    Context,
    Oracle,
    median,
    metric,
    peak_rss_mb,
    python_env,
    timed_setup,
)
from e2ebench.inputs import cell_cycle

#: Child-side timing of a fresh ``import repro.cli``.
IMPORT_SNIPPET = ("import time; start = time.perf_counter(); "
                  "import repro.cli; print(time.perf_counter() - start)")


@dataclass
class State:
    env: Dict[str, str]
    cells: Iterator[Tuple[str, str]]
    oracle: Oracle


def _child(state: State, argv: Sequence[str]):
    start = time.perf_counter()
    proc = subprocess.run([PYTHON, *argv], env=state.env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc


def cli_tune(ctx: Context, state: State, app: str, board: str,
             flags: Sequence[str] = ()):
    """One ``repro tune`` process; returns (seconds, problems)."""
    cache = ctx.fresh_dir("cli-cache")
    elapsed, proc = _child(state, [*flags, "-m", "repro", "tune", app,
                                   board, "--cache-dir", str(cache)])
    shutil.rmtree(cache)
    if proc.returncode != 0:
        return elapsed, [f"{app}/{board}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-200:]}"]
    return elapsed, state.oracle.check_cli(app, board, proc.stdout)


def setup(ctx: Context, repeats: int) -> Tuple[float, State]:
    def once() -> State:
        state = State(env=python_env(ctx.work), cells=cell_cycle(ctx.seed),
                      oracle=Oracle())
        # Warm-up: a first run in a fresh checkout also compiles the
        # package's bytecode, which no later run pays.
        cli_tune(ctx, state, *next(state.cells))
        return state

    return timed_setup(ctx, once, repeats)


def run(ctx: Context, state: State) -> Dict[str, dict]:
    latencies: List[float] = []
    first = len(ctx.probes)
    end = time.perf_counter() + ctx.seconds
    while not latencies or time.perf_counter() < end:
        app, board = next(state.cells)
        elapsed, problems = cli_tune(ctx, state, app, board)
        ctx.tally.record(problems)
        latencies.append(elapsed)
        ctx.probe()
    p50, tail_ms, total = ctx.report_scaled("cli", latencies, first)
    rate = len(latencies) / total
    ctx.say(f"  cli_per_s_scaled = {rate:.3f} 1/s (closed loop, 1 client)")
    return {
        "p50_ms": metric(p50, "ms"),
        "tail_ms": metric(tail_ms, "ms"),
        "throughput_per_s": metric(rate, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(children=True), "MiB"),
    }


def layers(ctx: Context, state: State, budget: float,
           native: bool) -> Dict[str, dict]:
    """Interpreter start-up and the ``repro.cli`` import, each in a
    fresh process.  Natively also the tune command plain and under
    ``-X importtime`` (the import tracer), for the tracing overhead."""
    interpreter: List[float] = []
    imports: List[float] = []
    plain: List[float] = []
    traced: List[float] = []
    end = time.perf_counter() + budget
    while len(interpreter) < 2 or time.perf_counter() < end:
        elapsed, proc = _child(state, ["-c", "pass"])
        ctx.tally.record([] if proc.returncode == 0
                         else [f"python -c pass: exit {proc.returncode}"])
        interpreter.append(elapsed)
        _, proc = _child(state, ["-c", IMPORT_SNIPPET])
        ok = ctx.tally.record([] if proc.returncode == 0 else [
            f"import repro.cli: exit {proc.returncode}"])
        if ok:
            imports.append(float(proc.stdout.strip()))
        if native:
            app, board = next(state.cells)
            for flags, sink in (((), plain), (("-X", "importtime"), traced)):
                elapsed, problems = cli_tune(ctx, state, app, board, flags)
                ctx.tally.record(problems)
                sink.append(elapsed)
    metrics = {
        "cli.interpreter_ms": metric(median(interpreter) * 1e3, "ms"),
        "cli.import_ms": metric(median(imports) * 1e3, "ms"),
    }
    if native:
        metrics["trace.overhead_pct"] = metric(
            (median(traced) / median(plain) - 1.0) * 100.0, "%")
    return metrics
