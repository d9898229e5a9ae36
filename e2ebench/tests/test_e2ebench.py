"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest e2ebench/tests``.
They check that inputs are a pure function of the seed, that a run
prints exactly the metrics ``BENCHMARK.json`` declares, and that a
tiny run of every workload ends with no failed operation.
"""

import itertools
import json
import pathlib
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from e2ebench import inputs  # noqa: E402
from e2ebench.common import CELLS, Context, median, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runnable by name but not gated in ``BENCHMARK.json``.
UNGATED = ["cli-tune", "serve-open"]


def test_trace_csv_is_a_function_of_the_seed(tmp_path):
    first = inputs.write_trace_csv(3, tmp_path / "a.csv", rows=5000)
    again = inputs.write_trace_csv(3, tmp_path / "b.csv", rows=5000)
    other = inputs.write_trace_csv(4, tmp_path / "c.csv", rows=5000)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    assert len(first.read_text().splitlines()) == 5001  # header + rows


def test_arrival_schedule_is_a_function_of_the_seed():
    schedule = inputs.arrival_offsets(3, "r10", 10.0, 30.0)
    assert schedule == inputs.arrival_offsets(3, "r10", 10.0, 30.0)
    assert schedule != inputs.arrival_offsets(4, "r10", 10.0, 30.0)
    assert schedule == sorted(schedule) and 0 <= schedule[0]
    assert schedule[-1] < 30.0 and len(schedule) == 300


def test_request_stream_is_a_function_of_the_seed_and_balanced():
    block = len(CELLS) * inputs.PROFILE_EVERY

    def take(seed):
        return list(itertools.islice(inputs.request_stream(seed, "r10"),
                                     3 * block))

    assert take(3) == take(3)
    assert take(3) != take(4)
    mix = take(3)
    for start in range(0, len(mix), block):
        chunk = mix[start:start + block]
        assert Counter((app, board) for app, board, _ in chunk) == \
            Counter({cell: inputs.PROFILE_EVERY for cell in CELLS})
        assert {(app, board) for app, board, carries in chunk
                if carries} == set(CELLS)


def test_tune_order_is_a_function_of_the_seed():
    def take(seed):
        return list(itertools.islice(inputs.cell_cycle(seed), 18))

    assert take(3) == take(3)
    assert take(3) != take(4)
    assert Counter(take(3)) == Counter({cell: 3 for cell in CELLS})


def test_tail_has_ten_samples_beyond_it_and_never_undercuts_the_median():
    values = [float(v) for v in range(100)]
    assert tail(values) == (89.0, 90.0, 100)
    for n in range(1, 40):
        values = [float((7 * i) % n) for i in range(n)]
        assert tail(values)[0] >= median(values)


def test_each_operation_is_scaled_by_the_probes_around_it(tmp_path):
    ctx = Context(seed=1, seconds=1.0, work=tmp_path)
    # Two set-up probes, then one probe after each of ten operations:
    # the host runs at half the reference speed, then at twice it.
    ctx.probes = [0.010] * 2 + [0.020] * 5 + [0.005] * 5
    scaled = ctx.scaled([1.0] * 10, first=2)
    assert scaled[:3] == [0.5] * 3
    assert scaled[-3:] == [2.0] * 3
    assert ctx.speed_scale(2) == pytest.approx(0.010 / 0.0125)


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_tiny_run_prints_declared_metrics_and_fails_nothing(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True, proc.stdout
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench")
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
