"""The benchmark's workloads and the code that runs one study of each.

Every workload is a closed loop: one :class:`repro.core.Study` with the
default ``pipeline_depth=1``, so each ask waits for the previous tell.  A
run of the benchmark runs the workload's study on study seeds derived
from the ``--seed`` argument; each study builds its own problem, engine
and workers, so every study pays the set-up a user pays.  Set-up and every
ask, evaluation batch and tell are timed with a :class:`RefClock`.
"""

from __future__ import annotations

import statistics
import subprocess
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from repro.circuits import FoldedCascodeOTA
from repro.core import DNNOpt, EvalEngine, Study
from repro.core import service
from repro.scenarios import CornerProblem, ScenarioSet

from .refclock import RefClock

__all__ = ["STUDIES", "Workload", "WORKLOADS", "Step", "StudyRecord", "run_study", "study_seed"]

#: untraced studies in every ``--trace 0`` run
STUDIES = 5
#: probes taken before set-up, while no program thread or worker exists
IDLE_PROBES = 10
#: per-design reply deadline for remote chunks: a hung worker becomes a
#: loud ServiceError instead of a stalled run (sims here take < 1 s)
CHUNK_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    make_problem: Callable
    backend: str            # "serial" or "remote"
    budget: int
    batch_size: int
    n_init: int = 20


def _fc_corners():
    return CornerProblem(FoldedCascodeOTA().problem(), ScenarioSet.typical(),
                         gate_margin=0.5, gate_warmup=8)


WORKLOADS = {wl.name: wl for wl in (
    Workload("fc_paper_serial", lambda: FoldedCascodeOTA().problem(), "serial",
             budget=44, batch_size=1),
    Workload("fc_corners_remote", _fc_corners, "remote",
             budget=40, batch_size=8, n_init=16),
)}


def study_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th study of a run with workload seed ``seed``."""
    return int(seed) * 1000 + int(index)


class Step(NamedTuple):
    kind: str       # "ask", "model_ask" (an ask that trained models), "eval", "tell"
    raw_s: float    # wall-clock seconds
    ref_s: float    # reference seconds (see RefClock)


@dataclass
class StudyRecord:
    """What one study produced, for metrics and the correctness gate."""

    seed: int
    setup_s: float             # reference seconds (see RefClock)
    wall_s: float              # reference seconds
    raw_wall_s: float          # Study.run wall-clock, probes taken out
    window: tuple[float, float]
    steps: list[Step]
    probe_s: float             # median probe duration inside Study.run
    idle_probe_s: float        # median probe duration before set-up
    X: np.ndarray
    F: np.ndarray
    n_evals: int
    best_fom: float
    penalty_rows: int
    counters: dict
    hotpath: dict
    scenarios: dict
    problem: object


def _spawn_workers(n: int):
    procs, hosts = [], []
    try:
        for _ in range(n):
            proc, host = service.spawn_local_worker()
            procs.append(proc)
            hosts.append(host)
    except BaseException:
        _stop_workers(procs)
        raise
    return procs, hosts


def _stop_workers(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def _make_engine(backend: str, hosts) -> EvalEngine:
    if backend == "remote":
        # No silent failover: a dead, hung or refusing worker aborts the
        # chunk (max_chunk_requeues=0) and the study raises ServiceError.
        dispatcher = service.RemoteDispatcher(
            hosts, max_chunk_requeues=0, chunk_timeout=CHUNK_TIMEOUT_S)
        return EvalEngine(dispatcher=dispatcher)
    return EvalEngine()


def run_study(wl: Workload, seed: int, workers: int, tracer=None) -> StudyRecord:
    """Set up and run one study; raises if any evaluation or worker fails.

    ``setup_s`` covers problem construction, worker spawn and engine
    construction.  ``wall_s`` is the sum of the steps' reference seconds
    plus the study loop's remaining time, scaled by the study's median
    probe.
    """
    clock = RefClock()
    if tracer is not None:
        tracer.wrap(clock, "probe", "refclock.probe")
    idle = statistics.median(clock.probe() for _ in range(IDLE_PROBES))
    before = clock.probes[-1]
    t0 = perf_counter()
    problem = wl.make_problem()
    procs, hosts = _spawn_workers(workers) if wl.backend == "remote" else ([], [])
    try:
        with _make_engine(wl.backend, hosts) as engine:
            setup_s = clock.scale(perf_counter() - t0, before, clock.probe())
            opt = DNNOpt(problem, wl.budget, seed=seed, n_init=wl.n_init,
                         batch_size=wl.batch_size)
            steps: list[Step] = []

            def timed(call, kind):
                def step(*args):
                    modeling = opt.history.modeling_time
                    result, raw_s, ref_s = clock.time(call, *args)
                    label = ("model_ask" if kind == "ask"
                             and opt.history.modeling_time > modeling else kind)
                    steps.append(Step(label, raw_s, ref_s))
                    return result
                return step

            # Instance attributes shadow the methods the Study loop calls.
            opt.ask = timed(opt.ask, "ask")
            opt.tell = timed(opt.tell, "tell")
            engine.evaluate_batch = timed(engine.evaluate_batch, "eval")
            study = Study(opt, engine=engine)
            probed, first_probe = clock.probe_s, len(clock.probes)
            start = perf_counter()
            history = study.run()
            end = perf_counter()
            raw_wall = end - start - (clock.probe_s - probed)
            counters = engine.counters_snapshot()
            hotpath = engine.hotpath_report()
        dead = [p.returncode for p in procs if p.poll() is not None]
        if dead:
            raise RuntimeError(f"remote worker exited during the study "
                               f"(exit codes {dead})")
    finally:
        _stop_workers(procs)
    if tracer is not None:
        tracer.window = (start, end)
    # Probes inside Study.run sit between steps; what is left beyond the
    # steps is the study loop's own time.
    loop_raw = raw_wall - sum(step.raw_s for step in steps)
    wall_s = (sum(step.ref_s for step in steps)
              + max(0.0, loop_raw) * clock.median_factor())
    F = history.F
    penalty = int(np.all(F == problem.failure_vector(), axis=1).sum())
    stats = history.summary().get("scenarios", {})
    return StudyRecord(seed=seed, setup_s=setup_s, wall_s=wall_s,
                       raw_wall_s=raw_wall, window=(start, end), steps=steps,
                       probe_s=statistics.median(clock.probes[first_probe:]),
                       idle_probe_s=idle,
                       X=history.X, F=F, n_evals=history.n_evals,
                       best_fom=history.best_fom, penalty_rows=penalty,
                       counters=counters, hotpath=hotpath, scenarios=stats,
                       problem=problem)
