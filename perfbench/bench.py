"""Runs one workload and reports its metrics.

``--trace 0`` runs a fixed number of untraced studies and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced study on the same study seed, reports the per-layer metrics of the
traced study and the tracing overhead, checks the two histories are
bit-identical, and writes the spans as trace-event JSON plus a per-layer
self-time table.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from .gate import check_identical, check_resimulated, check_study
from .layers import instrument, layer_metrics
from .refclock import RefClock
from .tracing import Tracer, chrome_trace, layer_table
from .workloads import STUDIES, WORKLOADS, run_study, study_seed

__all__ = ["measure", "host_info", "end_to_end", "declared"]

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: told rows re-simulated in-process on the remote workload
RESIM_ROWS = 3
#: fresh-interpreter import timings per run (median goes into setup_s)
IMPORT_SAMPLES = 3
#: per-layer metrics that compare a traced study with its untraced twin
PAIR_METRICS = ("trace.overhead_frac", "study.raw_wall_s")
#: in-study over idle probe duration above which a run warns that the
#: program may load the host between steps (see README, reference seconds)
PROBE_DRIFT_WARN = 1.2
_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import repro.core, repro.circuits, repro.scenarios; "
                 "print(time.perf_counter() - t)")


def host_info(workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def _import_seconds() -> float:
    """Fresh-interpreter import time of the package, in reference seconds."""
    clock = RefClock()
    before = clock.probe()
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60)
    return clock.scale(float(out.stdout.strip().splitlines()[-1]), before,
                       clock.probe())


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _resim_picks(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(RESIM_ROWS, n), replace=False).tolist())


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``kind`` ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(records, import_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of a run's untraced studies, one per study seed.

    Times are reference seconds (see :mod:`refclock`).  ``wall_s`` and
    ``sims_per_s`` are medians over studies; ask latencies pool every
    model-based ask of the run.  ``best_fom`` is the mean final best FoM
    of the studies, whose seeds are fixed by the workload seed, so it is
    deterministic for a given code and seed.
    """
    asks = [step.ref_s for r in records for step in r.steps
            if step.kind == "model_ask"]
    return {
        "setup_s": statistics.median(import_s)
        + statistics.median(r.setup_s for r in records),
        "wall_s": statistics.median(r.wall_s for r in records),
        "sims_per_s": statistics.median(r.counters["n_sim_calls"] / r.wall_s
                                        for r in records),
        "ask_p50_s": statistics.median(asks),
        "ask_p90_s": _p90(asks),
        "best_fom": statistics.fmean(r.best_fom for r in records),
        "peak_rss_mb": peak_rss_mb,
    }


def _probe_lines(studies) -> list[str]:
    """Probe durations inside Study.run next to the idle reference taken
    before set-up, with a warning when the former are markedly slower."""
    drift = statistics.median(r.probe_s / r.idle_probe_s for r in studies)
    lines = ["probe ms in Study.run " + " ".join(
        f"{1e3 * r.probe_s:.3f}" for r in studies) + "; idle before set-up "
        + " ".join(f"{1e3 * r.idle_probe_s:.3f}" for r in studies)
        + f"; median ratio {drift:.3f}"]
    if drift > PROBE_DRIFT_WARN:
        warning = (f"warning: probes in Study.run ran {drift:.2f}x as long as "
                   f"idle probes before set-up; load left running between "
                   f"steps slows the probe too, so reference seconds "
                   f"understate the program's time")
        print(warning, file=sys.stderr)
        lines.append(warning)
    return lines


def _traced_study(wl, seed, workers, run_id):
    tracer = Tracer(run_id)
    instrument(tracer)
    try:
        return run_study(wl, seed, workers, tracer), tracer
    finally:
        tracer.close()


def measure(workload: str, seed: int, trace: bool, workers: int,
            out_dir: Path) -> tuple[dict, list[str], list[str]]:
    """Run ``workload``; returns (result object, gate failures, info lines)."""
    wl = WORKLOADS[workload]
    n_workers = workers if wl.backend != "serial" else 0
    failures: list[str] = []
    host = host_info(n_workers)
    info = [f"host {json.dumps(host)}"]

    if not trace:
        import_s = [_import_seconds() for _ in range(IMPORT_SAMPLES)]
        studies = [run_study(wl, study_seed(seed, i), n_workers)
                   for i in range(STUDIES)]
        values = end_to_end(studies, import_s, _peak_rss_mb(n_workers))
        units = declared("end_to_end")
        n_asks = sum(step.kind == "model_ask" for r in studies for step in r.steps)
        info.append(f"studies {len(studies)}; model asks {n_asks}, "
                    f"{n_asks - int(0.9 * n_asks)} beyond p90")
        info.append("raw wall-clock s " + " ".join(
            f"{r.raw_wall_s:.3f}" for r in studies))
    else:
        study = study_seed(seed, 0)
        base = run_study(wl, study, n_workers)
        traced, tracer = _traced_study(wl, study, n_workers, 0)
        studies = [base, traced]
        failures += check_identical(base, traced)
        values = layer_metrics(traced, tracer)
        values["trace.overhead_frac"] = traced.wall_s / base.wall_s - 1.0
        values["study.raw_wall_s"] = base.raw_wall_s
        units = declared("per_layer")
        info += _write_trace(out_dir, workload, seed, base, traced, tracer, host)
    info += _probe_lines(studies)

    for record in studies:
        failures += check_study(record, wl.budget)
    if wl.backend != "serial":
        first = studies[0]
        failures += check_resimulated(first, _resim_picks(first.seed, first.n_evals))

    result = {
        "correct": not failures,
        "attempted": sum(r.n_evals for r in studies),
        "failed": sum(r.penalty_rows for r in studies),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, failures, info


def _write_trace(out_dir: Path, workload: str, seed: int, base, traced,
                 tracer, host) -> list[str]:
    """Write the trace-event JSON and self-time table; returns the table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload}-seed{seed}"
    meta = {"workload": workload, "seed": seed, "host": host}
    Path(f"{stem}.trace.json").write_text(json.dumps(chrome_trace([tracer], meta)))
    wall = traced.window[1] - traced.window[0]
    hp = traced.hotpath
    phases = hp["assemble_s"] + hp["solve_s"] + hp["ac_build_s"] + hp["ac_solve_s"]
    lines = [f"study seed {traced.seed}: traced Study.run {wall:.3f} s "
             f"(probes included), untraced {base.raw_wall_s:.3f} s "
             f"(probes excluded)",
             f"  {'layer':<26} {'self_s':>9} {'of wall':>8} {'spans':>7}"]
    for layer, self_s, calls in layer_table(tracer, ("problems", "spice", phases)):
        lines.append(f"  {layer:<26} {self_s:9.3f} {self_s / wall:8.1%} {calls:7d}")
    Path(f"{stem}.layers.txt").write_text("\n".join(lines) + "\n")
    return lines + [f"trace written to {out_dir.name}/{stem.name}.trace.json"]
