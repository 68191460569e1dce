"""Multi-tenant fleet benchmark: aggregate throughput under fair sharing.

Times a latency-modeled batch (each evaluation sleeps ``--latency`` ms —
the external-simulator model where dispatch overlap, not CPU count, sets
throughput) through one :class:`~repro.core.fleet.FleetCoordinator` over
2 locally-spawned worker processes, twice:

* **single tenant** — one Study-sized batch from one engine, the PR-5
  fixed-fleet setup;
* **two tenants** — the same total number of designs split across two
  concurrent engines, scheduled by the weighted deficit round-robin.

The figure of merit is ``two_tenant_vs_single``: aggregate two-tenant
sims/sec over single-tenant sims/sec.  Fair chunk interleaving costs only
scheduling overhead, so the ratio should stay near 1.0 — a scheduler that
serializes tenants (or thrashes the connections) drags it down.

Re-record the committed baseline, or check a run against it (see README
"Perf guards"):

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_fleet.json
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick \
        --check BENCH_fleet.json --out /tmp/bench_fleet.json
"""

from __future__ import annotations

import argparse
import sys
import threading
from time import perf_counter

import numpy as np

from repro.core.fleet import FleetCoordinator
from repro.core.service import local_workers
from repro.problems import LatencyProblem, Sphere

from _shared import guard_main

#: fraction of each committed ratio a measured ratio must retain.
FLOORS = {"two_tenant_vs_single": 0.6}


def time_single_tenant(fleet, problem, X) -> float:
    """Wall seconds for one tenant evaluating the whole batch."""
    engine = fleet.engine("bench-single")
    try:
        t0 = perf_counter()
        engine.evaluate_batch(problem, X)
        return perf_counter() - t0
    finally:
        engine.close()


def time_two_tenants(fleet, problem, X_a, X_b) -> float:
    """Wall seconds for two concurrent tenants sharing the fleet."""
    engine_a = fleet.engine("bench-a")
    engine_b = fleet.engine("bench-b")
    barrier = threading.Barrier(3)

    def tenant(engine, X):
        barrier.wait()
        engine.evaluate_batch(problem, X)

    threads = [threading.Thread(target=tenant, args=(engine_a, X_a)),
               threading.Thread(target=tenant, args=(engine_b, X_b))]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - t0
    engine_a.close()
    engine_b.close()
    return elapsed


def run(args) -> dict:
    if args.quick:
        args.batch, args.latency = 32, 10.0
    print(f"fleet: batch {args.batch} x {args.latency:g} ms latency, "
          f"{args.shards} workers, 1 vs 2 tenants")
    problem = LatencyProblem(Sphere(6), args.latency / 1e3)
    rng = np.random.default_rng(0)
    # Distinct designs per phase: the worker processes persist across the
    # phases, so reuse would be answered from their caches for free.
    X_single = problem.space.sample(rng, args.batch)
    X_a = problem.space.sample(rng, args.batch // 2)
    X_b = problem.space.sample(rng, args.batch - args.batch // 2)

    with local_workers(args.shards) as (_, hosts), \
            FleetCoordinator(hosts=hosts) as fleet:
        single_s = time_single_tenant(fleet, problem, X_single)
        two_s = time_two_tenants(fleet, problem, X_a, X_b)
        requeues = fleet.stats()["requeues"]

    single_rate = args.batch / single_s
    two_rate = args.batch / two_s
    ratio = round(two_rate / single_rate, 3)
    print(f"  single tenant: {single_s:7.3f} s  ({single_rate:8.1f} sims/s)")
    print(f"  two tenants:   {two_s:7.3f} s  ({two_rate:8.1f} sims/s aggregate)")
    print(f"  two_tenant_vs_single: {ratio:.2f}x  (requeues: {requeues})")
    return {
        "config": {"batch": args.batch, "latency_ms": args.latency,
                   "shards": args.shards, "quick": args.quick},
        "results": {"single_tenant_s": round(single_s, 4),
                    "two_tenant_s": round(two_s, 4),
                    "single_sims_per_sec": round(single_rate, 2),
                    "two_tenant_sims_per_sec": round(two_rate, 2),
                    "requeues": requeues},
        "speedup": {"two_tenant_vs_single": ratio},
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=64,
                        help="total designs per phase")
    parser.add_argument("--latency", type=float, default=20.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--shards", type=int, default=2,
                        help="local worker server processes")
    parser.add_argument("--quick", action="store_true",
                        help="small batch for CI smoke")
    sys.exit(guard_main(parser, "BENCH_fleet.json", run, FLOORS))
