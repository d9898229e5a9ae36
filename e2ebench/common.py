"""Shared pieces of the benchmark: statistics, the correctness oracle,
host fingerprint, failure tally and the per-run context."""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

APPS = ("shwfs", "orbslam")
BOARDS = ("nano", "tx2", "xavier")
#: The six (app, board) questions of the paper's Tables II-V.
CELLS: Tuple[Tuple[str, str], ...] = tuple(
    (app, board) for app in APPS for board in BOARDS)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: The host-speed probe, which uses no code of the program: a pure-Python
#: walk of a 256-entry table, PROBE_ROUNDS times over PROBE_STEPS steps,
#: then PROBE_SORTS sorts of a copy of PROBE_FLOATS float64.  Its data
#: (about 550 KiB) stays in cache during one probe and it allocates
#: nothing, so what the program did before it barely changes its time.
PROBE_ROUNDS = 112
PROBE_STEPS = 4096
PROBE_SORTS = 6
PROBE_FLOATS = 1 << 15
#: End-to-end times are scaled to a host on which the probe takes 10 ms
#: (about its time on a 2-vCPU Xeon VM).
REFERENCE_PROBE_S = 0.010
#: Probes whose median scales one operation of a closed loop: the probe
#: taken right after it and the two on either side of that one.
NEIGHBOURS = 5


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With fewer than 22
    samples that percentile would not lie above the median, so the
    maximum is returned instead, with its percentile reported as 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 22:
        return float(ordered[-1]), 100.0, n
    k = n - 10  # ordered[k - 1] has exactly ten samples above it
    return float(ordered[k - 1]), 100.0 * k / n, n


@functools.lru_cache(maxsize=None)
def _probe_data():
    import numpy as np

    rng = np.random.default_rng(0)
    # Only ints below 256, which Python caches: the walk allocates none.
    steps = rng.integers(0, 256, PROBE_STEPS).tolist()
    table = rng.permutation(256).tolist()
    floats = rng.random(PROBE_FLOATS)
    return steps, table, floats, np.empty_like(floats)


def probe_seconds() -> float:
    """Seconds the host-speed probe takes right now."""
    import numpy as np

    steps, table, floats, buffer = _probe_data()
    start = time.perf_counter()
    state = 0
    for _ in range(PROBE_ROUNDS):
        for step in steps:
            state = table[state ^ step]
    for _ in range(PROBE_SORTS):
        np.copyto(buffer, floats)
        buffer.sort()
    return time.perf_counter() - start


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (of this process or its largest
    finished child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Thread-count variables of the BLAS/OpenMP runtimes numpy may use.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def host_fingerprint() -> Dict[str, Any]:
    """What absolute numbers depend on; compare only equal fingerprints."""
    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Oracle:
    """Recorded Tables II-V answers and bit-exact simulated timings."""

    def __init__(self, path: pathlib.Path = BENCH_DIR / "oracle.json"):
        self.cells = json.loads(path.read_text())["cells"]

    def expected(self, app: str, board: str) -> Dict[str, Any]:
        return self.cells[f"{app}/{board}"]

    def check_report(self, app: str, board: str, report) -> List[str]:
        """Mismatches of one :class:`TuningReport` against the record."""
        want = self.expected(app, board)
        rec = report.recommendation
        got = {
            "model": rec.model.value,
            "zone": int(rec.zone) if rec.zone is not None else None,
            "kernel_time_s": report.kernel_time_s,
            "copy_time_s": report.copy_time_s,
        }
        return [f"{app}/{board} {key}: got {got[key]!r}, want {want[key]!r}"
                for key in got if got[key] != want[key]]

    def check_cli(self, app: str, board: str, stdout: str) -> List[str]:
        """Mismatches of one ``repro tune`` table against the record."""
        rows = {}
        for line in stdout.splitlines():
            name, sep, value = line.partition("|")
            if sep:
                rows[name.strip()] = value.strip()
        want = self.expected(app, board)
        expected = {
            "recommendation": want["model"],
            "zone": str(want["zone"]),
            "kernel time (us)": want["cli_kernel_us"],
            "copy time (us)": want["cli_copy_us"],
        }
        return [f"{app}/{board} cli {key}: got {rows.get(key)!r}, "
                f"want {value!r}"
                for key, value in expected.items() if rows.get(key) != value]


@dataclass
class Tally:
    """Attempted and failed operations; keeps the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.extend(problems[:2])
        return not problems


@dataclass
class Context:
    """Everything one benchmark run shares between its phases."""

    seed: int
    seconds: float
    work: pathlib.Path
    tally: Tally = field(default_factory=Tally)
    lines: List[str] = field(default_factory=list)
    #: False when the run's load generator fell behind its schedule.
    valid: bool = True
    #: Host-speed probe times, taken around set-up and between operations.
    probes: List[float] = field(default_factory=list)
    _dirs: int = 0

    def fresh_dir(self, prefix: str) -> pathlib.Path:
        """A new empty directory inside the run's work area."""
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs:05d}"
        path.mkdir(parents=True)
        return path

    def say(self, text: str) -> None:
        self.lines.append(text)

    def probe(self, count: int = 1) -> None:
        """Time the host-speed probe ``count`` times."""
        self.probes.extend(probe_seconds() for _ in range(count))

    def speed_scale(self, first: int = 0) -> float:
        """The factor that takes times measured since probe ``first`` to
        the reference host: the reference probe time over the median
        probe time from there on."""
        return REFERENCE_PROBE_S / median(self.probes[first:])

    def scaled(self, values_s: Sequence[float], first: int) -> List[float]:
        """Operation times scaled to the reference host, one by one.

        ``values_s[i]`` was measured right before probe ``first + i``;
        it is scaled by the reference probe time over the median of the
        :data:`NEIGHBOURS` probes around that one, so a burst of host
        slowness scales the operations it slowed.
        """
        probes = self.probes[first:first + len(values_s)]
        half = NEIGHBOURS // 2
        return [value * REFERENCE_PROBE_S
                / median(probes[max(0, i - half):i + half + 1])
                for i, value in enumerate(values_s)]

    def report_scaled(self, name: str, values_s: Sequence[float],
                      first: int) -> Tuple[float, float, float]:
        """Print raw and scaled p50 and tail of closed-loop operation
        times (see :meth:`scaled`); returns the scaled p50 and tail in
        ms and the scaled total in seconds."""
        self.report_latency(name, values_s)
        scaled = self.scaled(values_s, first)
        p50, tail_ms = self.report_latency(f"{name}_scaled", scaled)
        return p50, tail_ms, sum(scaled)

    def report_latency(self, name: str, values_s: Sequence[float]) -> Tuple[
            float, float]:
        """Print p50 and tail of a latency list; returns both in ms."""
        p50 = median(values_s) * 1e3
        value, pct, n = tail(values_s)
        self.say(f"  {name}_p50_ms = {p50:.3f} ms (n={n})")
        self.say(f"  {name}_tail_ms = {value * 1e3:.3f} ms "
                 f"(p{pct:.1f} of n={n})")
        return p50, value * 1e3


def timed_setup(ctx: Context, setup: Callable[[], Any],
                repeats: int = SETUP_REPEATS) -> Tuple[float, Any]:
    """Run ``setup`` ``repeats`` times, each followed by a host-speed
    probe; (median of the scaled seconds, last state)."""
    times = []
    state = None
    first = len(ctx.probes)
    for _ in range(repeats):
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
        ctx.probe()
    return median(ctx.scaled(times, first)), state


def python_env(work: pathlib.Path) -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources on
    the path, temporary files inside the run's work area, and the
    package's observability at its default."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work)
    return env


PYTHON = sys.executable
