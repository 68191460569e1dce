"""Shared state for the benchmark suite.

The Table II / Figure 3 pair (and Table IV / Figure 4) are two views of the
same multi-trial experiment; this module caches the comparison so the data
is produced once per pytest session.  Scales are the smoke defaults unless
``REPRO_FULL=1``.

It also holds the one report schema and floor check behind the seven perf
guards (``bench_{chaos,corners,fleet,pipeline,service_dispatch,
spice_hotpath,warmstart}.py``): :func:`guard_main` parses ``--out`` /
``--check``, :func:`write_bench` writes the report and :func:`check_bench`
decides pass or fail against the committed ``BENCH_*.json`` baseline.
The experiment imports are deferred into the functions that need them, so
a guard does not pay for importing ``repro.experiments``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path


def bench_scale():
    """Benchmark-suite scale: tiny by default, paper-scale with REPRO_FULL=1."""
    from repro.experiments import ExperimentScale
    if os.environ.get("REPRO_FULL") == "1":
        return ExperimentScale(n_trials=10, budget=500, de_budget=10_000,
                               industrial_budget=200, sa_budget=1200)
    return ExperimentScale(n_trials=2, budget=50, de_budget=150,
                           industrial_budget=60, sa_budget=150)


def bench_workers() -> int:
    """Trial-level parallelism knob: ``REPRO_WORKERS=N`` (default serial).

    Results are worker-count independent (per-trial seeding); only
    wall-clock changes, so set it to the machine's core count for the
    paper-scale ``REPRO_FULL=1`` runs.
    """
    return max(1, int(os.environ.get("REPRO_WORKERS", "1")))


def bench_pipeline() -> int:
    """Per-trial ask/tell pipelining knob: ``REPRO_PIPELINE=D`` (default 1).

    Unlike ``REPRO_WORKERS`` this *may* change trajectories — pipelined
    proposals condition on a slightly stale archive — so it stays at 1 (the
    paper protocol) unless a throughput run explicitly opts in.
    """
    return max(1, int(os.environ.get("REPRO_PIPELINE", "1")))


@functools.lru_cache(maxsize=1)
def folded_cascode_comparison():
    from repro.circuits import FoldedCascodeOTA
    from repro.experiments import run_building_block_comparison
    return run_building_block_comparison(FoldedCascodeOTA, scale=bench_scale(),
                                         workers=bench_workers(),
                                         pipeline_depth=bench_pipeline())


@functools.lru_cache(maxsize=1)
def latch_comparison():
    from repro.circuits import StrongArmLatch
    from repro.experiments import ExperimentScale, run_building_block_comparison
    scale = bench_scale()
    if os.environ.get("REPRO_FULL") != "1":
        # The latch simulates ~3x slower; trim the smoke run further.
        scale = ExperimentScale(n_trials=1, budget=40, de_budget=100,
                                industrial_budget=scale.industrial_budget,
                                sa_budget=scale.sa_budget)
    return run_building_block_comparison(StrongArmLatch, scale=scale,
                                         workers=bench_workers(),
                                         pipeline_depth=bench_pipeline())


# ----------------------------------------------------------------------
# perf guards: one report schema, one floor check
# ----------------------------------------------------------------------
def write_bench(path, *, config: dict, results: dict, speedup: dict,
                invariants: dict | None = None) -> dict:
    """Write one guard report to ``path`` and return it.

    ``speedup`` holds the guarded same-host ratios (machine-portable, unlike
    the absolute timings in ``results``); ``invariants`` holds the
    correctness booleans a passing run must keep true.
    """
    report = {
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(), "cpus": os.cpu_count()},
        "config": config,
        "results": results,
        "speedup": speedup,
        "invariants": invariants or {},
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_bench(report: dict, baseline: dict, floors: Mapping[str, float],
                invariants: Iterable[str] = ()) -> int:
    """Exit status of a guard run: 0 when every ratio named in ``floors``
    keeps at least ``floor x`` its committed baseline value and every named
    invariant is true, else 1.  A metric or invariant missing from the
    report or the baseline fails as well.
    """
    failures = []
    for name, floor in floors.items():
        got = report.get("speedup", {}).get(name)
        base = baseline.get("speedup", {}).get(name)
        if got is None or base is None:
            side = "report" if got is None else "baseline"
            failures.append(f"{name} missing from the {side}")
            continue
        bound = floor * base
        status = "ok" if got >= bound else "REGRESSION"
        print(f"  check {name}: {got:.2f}x vs floor {bound:.2f}x "
              f"({floor:g} x baseline {base:.2f}x) -> {status}")
        if got < bound:
            failures.append(f"{name} {got:.2f}x below floor {bound:.2f}x")
    for name in invariants:
        for side, doc in (("report", report), ("baseline", baseline)):
            value = doc.get("invariants", {}).get(name)
            if value is None:
                failures.append(f"invariant {name} missing from the {side}")
            elif not value:
                failures.append(f"invariant {name} is false in the {side}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("all guarded ratios and invariants within the baseline envelope")
    return 0


def guard_main(parser: argparse.ArgumentParser, default_out: str,
               measure: Callable[[argparse.Namespace], dict],
               floors: Mapping[str, float], invariants: Iterable[str] = (),
               argv=None) -> int:
    """Run one perf guard: ``measure(args)`` returns the ``config``,
    ``results``, ``speedup`` and ``invariants`` of a run, which is written
    to ``--out``; with ``--check BASELINE.json`` the run must also pass
    :func:`check_bench` against that baseline.

    The baseline is read before the run, and ``--out`` may not name the
    baseline: a check that overwrote its own baseline would pass against
    itself.
    """
    floor_text = ", ".join(f"{name} {floor:g}" for name, floor in floors.items())
    parser.add_argument("--out", default=default_out,
                        help=f"where to write the report (default {default_out})")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail if a guarded ratio drops below its floor "
                             f"times the baseline value (floors: {floor_text})")
    args = parser.parse_args(argv)
    baseline = None
    if args.check:
        if Path(args.out).resolve() == Path(args.check).resolve():
            parser.error(f"--out {args.out} would overwrite the --check "
                         "baseline; pass --out elsewhere")
        baseline = json.loads(Path(args.check).read_text())
    report = write_bench(args.out, **measure(args))
    print(f"wrote {args.out}")
    if baseline is None:
        return 0
    return check_bench(report, baseline, floors, invariants)
