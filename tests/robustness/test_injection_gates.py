"""Layering pin: only code that computes around a fault seam asks
whether a fault injector is active.

The injector patches real simulation seams (copies, flushes, profiler
counters, characterization stages).  Pure computations reach none of
them, so they keep their fast paths under an active plan; the modules
below are the only ones whose fast path could hide a fault:

- ``perf/batch.py`` — the closed-form sweeps skip the patched SoC seams;
- ``microbench/suite.py`` — the persistent store holds results computed
  outside the plan, and worker processes escape the patches;
- ``explore/surrogate.py`` — predictions describe the healthy system;
- ``robustness/inject.py`` — the definition itself.
"""

import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

ALLOWED = {
    "perf/batch.py",
    "microbench/suite.py",
    "explore/surrogate.py",
    "robustness/inject.py",
}


def _modules_mentioning(needle):
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if needle in path.read_text(encoding="utf-8")
    }


def test_injection_gates_live_only_at_fault_seams():
    assert _modules_mentioning("injection_active") == ALLOWED


def test_no_lazy_injection_wrapper_remains():
    assert _modules_mentioning("def _injection_active") == set()
