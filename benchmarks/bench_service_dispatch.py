"""Dispatch benchmark for the evaluation-service backends.

Times one large de-duplicated batch (the engine's post-cache hot path)
through ``serial``, ``thread`` and ``remote`` (2 locally-spawned worker
server processes) on a latency-modeled problem: each evaluation
sleeps ``--latency`` ms before computing, the external-simulator model
(license queue, subprocess SPICE, simulation farm RPC) where dispatch
overlap — not CPU count — sets the speedup.  That makes the measured
*ratios* portable across hosts, unlike CPU-bound throughput.  A
dispatcher that stops overlapping the waits (lost work stealing,
serialized chunks) drags them down.  Re-record the committed baseline, or
check a run against it (see README "Perf guards"):

    PYTHONPATH=src python benchmarks/bench_service_dispatch.py --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service_dispatch.py --quick \
        --check BENCH_service.json --out /tmp/bench_service.json
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from repro.core import EvalEngine
from repro.core.service import local_workers
from repro.problems import LatencyProblem, Sphere

from _shared import guard_main

#: fraction of each committed ratio a measured ratio must retain.
FLOORS = {"thread_vs_serial": 0.6, "remote_vs_serial": 0.6}
INVARIANTS = ("identical",)


def time_backend(make_engine, problem, batches: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Best-of-reps seconds for one full batch dispatch.

    Every rep gets a fresh engine *and* a fresh design batch, so no rep is
    ever answered from a cache — neither the coordinator's nor a persistent
    remote worker's — and the backends stay comparable.
    """
    best, rows = float("inf"), []
    for X in batches:
        with make_engine() as engine:
            t0 = perf_counter()
            rows.append(engine.evaluate_batch(problem, X))
            best = min(best, perf_counter() - t0)
    return best, np.vstack(rows)


def run(args) -> dict:
    if args.quick:
        args.batch, args.latency, args.reps = 32, 10.0, 1
    print(f"service dispatch: batch {args.batch} x {args.latency:g} ms latency, "
          f"{args.workers} pool workers, {args.shards} shards")
    problem = LatencyProblem(Sphere(6), args.latency / 1e3)
    batches = [problem.space.sample(np.random.default_rng(rep), args.batch)
               for rep in range(args.reps)]

    with local_workers(args.shards) as (_, hosts):
        backends = {
            "serial": lambda: EvalEngine("serial"),
            "thread": lambda: EvalEngine("thread", workers=args.workers),
            "remote": lambda: EvalEngine("remote", hosts=hosts),
        }
        results: dict[str, float] = {}
        reference = None
        identical = True
        for name, make_engine in backends.items():
            seconds, rows = time_backend(make_engine, problem, batches)
            results[f"{name}_s"] = round(seconds, 4)
            if reference is None:
                reference = rows
            else:
                identical = identical and np.array_equal(reference, rows)
            print(f"  {name:>7}: {seconds:7.3f} s  "
                  f"({args.batch / seconds:8.1f} designs/s)")

    speedup = {
        "remote_vs_serial": round(results["serial_s"] / results["remote_s"], 3),
        "thread_vs_serial": round(results["serial_s"] / results["thread_s"], 3),
    }
    print(f"  rows identical across backends: {identical}")
    for name, ratio in speedup.items():
        print(f"  {name}: {ratio:.2f}x")
    return {
        "config": {"batch": args.batch, "latency_ms": args.latency,
                   "workers": args.workers, "shards": args.shards,
                   "reps": args.reps, "quick": args.quick},
        "results": results,
        "speedup": speedup,
        "invariants": {"identical": identical},
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=64,
                        help="designs per dispatched batch")
    parser.add_argument("--latency", type=float, default=20.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--workers", type=int, default=8,
                        help="thread pool size")
    parser.add_argument("--shards", type=int, default=2,
                        help="local worker server processes for remote")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per backend (best rep is kept)")
    parser.add_argument("--quick", action="store_true",
                        help="small batch for CI smoke")
    sys.exit(guard_main(parser, "BENCH_service.json", run, FLOORS, INVARIANTS))
