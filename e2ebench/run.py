"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload tune-cold --seed 1 --seconds 20 \\
        --trace 0

Human-readable lines (host fingerprint, each metric under its
workload-specific name, failures) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, with times and rates scaled by the run's host-speed
probe to a reference host; ``--trace 1`` reports its per-layer metrics,
unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Share of a traced run's time spent on the workload's own layers; the
#: other workloads' layers split the rest so every metric is reported.
NATIVE_SHARE = 0.64


def _workloads():
    from e2ebench import cli_tune, serve_open, stream_contended, tune_cold

    return {
        "tune-cold": tune_cold,
        "cli-tune": cli_tune,
        "serve-open": serve_open,
        "stream-contended": stream_contended,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tune-cold", "cli-tune", "serve-open",
                                 "stream-contended"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _expected_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args, work: pathlib.Path):
    """Set up, measure and check one workload; returns the context and
    the metrics in ``BENCHMARK.json`` order."""
    from e2ebench.common import REFERENCE_PROBE_S, SETUP_REPEATS, Context, \
        host_fingerprint, metric, probe_seconds

    workloads = _workloads()
    module = workloads[args.workload]
    ctx = Context(seed=args.seed, seconds=args.seconds, work=work)
    ctx.say(f"workload {args.workload} seed {args.seed} seconds "
            f"{args.seconds:g} trace {args.trace}")
    ctx.say("host " + json.dumps(host_fingerprint(), sort_keys=True))
    probe_seconds()  # first touch of the probe's data, not counted
    setup_s, state = module.setup(ctx, 1 if args.trace else SETUP_REPEATS)
    if args.trace:
        metrics = {}
        others = [m for name, m in workloads.items()
                  if name != args.workload]
        share = (1.0 - NATIVE_SHARE) / len(others)
        for other in others:
            _, other_state = other.setup(ctx, 1)
            metrics.update(other.layers(ctx, other_state,
                                        args.seconds * share, native=False))
        metrics.update(module.layers(ctx, state,
                                     args.seconds * NATIVE_SHARE,
                                     native=True))
        for name, value in sorted(metrics.items()):
            ctx.say(f"  {name} = {value['value']:.6g} {value['unit']}")
    else:
        measured_from = len(ctx.probes)
        # The host's speed drifts by tens of percent over minutes, so
        # set-up and every operation are followed by a probe, and their
        # times are scaled to a host on which the probe takes the
        # reference time: runs made at different speeds compare.
        metrics = module.run(ctx, state)
        metrics["setup_s"] = metric(setup_s, "s")
        ctx.say(f"  setup_s_scaled = {setup_s:.4f} s (median of "
                f"{SETUP_REPEATS})")
        ctx.say(f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MiB")
        ref_ms = REFERENCE_PROBE_S * 1e3
        ctx.say(f"  host probe median {ref_ms / ctx.speed_scale():.3f} ms "
                f"over the run, "
                f"{ref_ms / ctx.speed_scale(measured_from):.3f} ms while "
                f"measuring (n={len(ctx.probes)}); times scaled to a "
                f"{ref_ms:g} ms probe:")
        for name, value in metrics.items():
            ctx.say(f"  {name} = {value['value']:.6g} {value['unit']}")
    expected = _expected_metrics(bool(args.trace))
    got = sorted((name, m["unit"]) for name, m in metrics.items())
    if got != sorted(expected):
        raise RuntimeError(f"metrics {got} do not match BENCHMARK.json "
                           f"{sorted(expected)}")
    return ctx, {name: metrics[name] for name, _ in expected}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_OBS", None)  # observability at its default
    sys.path[:0] = [str(SRC), str(ROOT)]
    scratch = ROOT / ".e2ebench_work"
    work = scratch / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    try:
        ctx, metrics = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    tally = ctx.tally
    for line in ctx.lines:
        print(line)
    print(f"  attempted {tally.attempted}, failed {tally.failed}"
          + ("" if ctx.valid else ", run INVALID"))
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0 and ctx.valid,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
