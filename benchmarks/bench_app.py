"""App-layer fast paths — the PR-4 vectorized kernels vs their scalar
references.

Not a paper artefact: records the wall-clock wins summarized in
``BENCH_app.json`` (descriptor matching, SHWFS centroiding, tiled
overlap timing, trace decoding, the MB3/what-if sweeps) so regressions
show up next to the reproduction tables.  The same probes back
``repro bench --check``, which gates on the committed numbers.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.tables import Table
from repro.perf.regress import APP_PATHS

#: Conservative speedup floors per path (the strict CSV decode is a
#: modest win).
FLOORS = {
    "tiling": 10.0,
    "matching": 10.0,
    "centroids": 10.0,
    "trace_csv": 1.2,
    "mb3_balance_sweep": 2.0,
    "whatif_sweep": 1.5,
}


@pytest.mark.parametrize("name", sorted(APP_PATHS))
def test_app_path_speedup(benchmark, archive, name):
    probe, workload = APP_PATHS[name]
    t_slow, t_fast = run_once(benchmark, probe)

    table = Table(
        f"App fast path [{name}] — {workload}",
        ["engine", "time (ms)", "speedup"],
    )
    table.add_row("scalar reference", f"{t_slow * 1e3:.2f}", "1.0x")
    table.add_row("vectorized", f"{t_fast * 1e3:.3f}",
                  f"{t_slow / t_fast:.1f}x")
    archive(f"app_path_{name}.txt", table.render())

    floor = FLOORS.get(name)
    if floor is not None:
        assert t_slow / t_fast >= floor


def test_ten_x_acceptance_bar(archive):
    """>= 10x on at least 3 of the vectorized app paths."""
    speedups = {}
    for name, (probe, _workload) in APP_PATHS.items():
        t_slow, t_fast = probe()
        speedups[name] = t_slow / t_fast

    table = Table("App fast-path scoreboard", ["path", "speedup", ">= 10x"])
    for name, speedup in sorted(speedups.items()):
        table.add_row(name, f"{speedup:.1f}x",
                      "yes" if speedup >= 10.0 else "no")
    archive("app_path_scoreboard.txt", table.render())

    assert sum(s >= 10.0 for s in speedups.values()) >= 3
