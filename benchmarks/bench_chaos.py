"""Hedged re-dispatch benchmark: tail latency under an injected straggler.

Runs the same fleet workload twice against 2 in-process workers, one of
them behind a :class:`~repro.core.chaos.ChaosProxy` that delays every
second eval reply (the deterministic straggler model — a shard whose
simulator intermittently stalls), and compares chunk-completion tail
latency:

* **no hedging** — a straggling chunk is simply waited out; its delay
  lands in the tail of the latency distribution;
* **hedging** (``hedge_factor``) — a chunk in flight past the straggler
  threshold is speculatively re-dispatched to the healthy host; the first
  reply wins and the delayed duplicate is discarded.

The figure of merit is ``no_hedge_vs_hedged_p99``: p99 chunk latency
without hedging over p99 with hedging.  Hedging should cut the tail by
roughly ``delay / (threshold + eval)``; a broken hedge path (never fires,
fires on the same host, loses the first-reply race) drags the ratio
towards 1.0.

Re-record the committed baseline, or check a run against it (see README
"Perf guards"):

    PYTHONPATH=src python benchmarks/bench_chaos.py --out BENCH_chaos.json
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick \
        --check BENCH_chaos.json --out /tmp/bench_chaos.json
"""

from __future__ import annotations

import argparse
import sys
import threading
from time import perf_counter

import numpy as np

from repro.core.chaos import ChaosProxy, FaultPlan, FaultSpec
from repro.core.fleet import FleetCoordinator
from repro.core.service import EvalWorkerServer
from repro.problems import LatencyProblem, Sphere

from _shared import guard_main

#: fraction of each committed ratio a measured ratio must retain.
FLOORS = {"no_hedge_vs_hedged_p99": 0.5}


def run_phase(worker_address, healthy_address, problem, rounds, *,
              args, hedge: bool) -> dict:
    """One measured phase: fresh straggler proxy, fresh coordinator.

    Every reply through the proxy is delayed (the faulted shard *is* the
    straggler), and each round is followed by a settle sleep slightly
    longer than the delay so the stale replies drain and the straggler's
    slots are free again — every measured round then exposes the tail to
    the straggler instead of accidentally bypassing a host whose slots are
    still blocked on the previous round's delays.
    """
    from time import sleep
    plan = FaultPlan([FaultSpec("delay", every=1, delay_s=args.delay)])
    kwargs = dict(hosts=None, poll_interval=0.05)
    if hedge:
        kwargs.update(hedge_factor=args.hedge_factor,
                      hedge_min_s=args.hedge_min_s)
    settle = args.delay + 0.2
    with ChaosProxy(worker_address, plan) as proxy:
        kwargs["hosts"] = [proxy.address, healthy_address]
        with FleetCoordinator(**kwargs) as fleet:
            engine = fleet.engine("bench")
            n_skip = 0
            t0 = perf_counter()
            for i, X in enumerate(rounds):
                if i == args.warmup:
                    n_skip = len(fleet.chunk_latencies())
                engine.evaluate_batch(problem, X)
                sleep(settle)
            wall = perf_counter() - t0
            latencies = fleet.chunk_latencies()[n_skip:]
            stats = fleet.stats()
            engine.close()
    return {
        "wall_s": round(wall, 4),
        "chunks": len(latencies),
        "p50_s": round(float(np.percentile(latencies, 50)), 4),
        "p99_s": round(float(np.percentile(latencies, 99)), 4),
        "hedges": stats["hedges"],
        "hedge_discards": stats["hedge_discards"],
        "requeues": stats["requeues"],
        "delays_fired": plan.fired.get("delay", 0),
    }


def run(args) -> dict:
    if args.quick:
        args.batch, args.rounds, args.warmup = 6, 5, 2
        args.latency, args.delay = 5.0, 0.6
    print(f"chaos: {args.rounds} x {args.batch} designs, "
          f"{args.latency:g} ms evals, straggler delay {args.delay:g} s "
          f"on every faulted-host reply, hedging off vs on")
    problem = LatencyProblem(Sphere(6), args.latency / 1e3)
    rng = np.random.default_rng(0)
    # Distinct designs per phase/round: the workers persist across phases,
    # so any reuse would be answered from their caches for free.
    phases = [[problem.space.sample(rng, args.batch)
               for _ in range(args.rounds)] for _ in range(2)]

    servers, threads = [], []
    for _ in range(2):
        server = EvalWorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    try:
        plain = run_phase(servers[0].address, servers[1].address, problem,
                          phases[0], args=args, hedge=False)
        hedged = run_phase(servers[0].address, servers[1].address, problem,
                           phases[1], args=args, hedge=True)
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5)

    ratio = round(plain["p99_s"] / hedged["p99_s"], 3)
    print(f"  no hedging: p99 {plain['p99_s']:6.3f} s  "
          f"(p50 {plain['p50_s']:6.3f} s, {plain['chunks']} chunks)")
    print(f"  hedging:    p99 {hedged['p99_s']:6.3f} s  "
          f"(p50 {hedged['p50_s']:6.3f} s, {hedged['hedges']} hedges, "
          f"{hedged['hedge_discards']} discards)")
    print(f"  no_hedge_vs_hedged_p99: {ratio:.2f}x")
    return {
        "config": {"batch": args.batch, "rounds": args.rounds,
                   "warmup": args.warmup, "latency_ms": args.latency,
                   "delay_s": args.delay, "hedge_factor": args.hedge_factor,
                   "hedge_min_s": args.hedge_min_s, "quick": args.quick},
        "results": {"no_hedge": plain, "hedged": hedged},
        "speedup": {"no_hedge_vs_hedged_p99": ratio},
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=8,
                        help="designs per round (small: stragglers must be "
                             "hedgeable, not buried in a saturated queue)")
    parser.add_argument("--rounds", type=int, default=8,
                        help="sequential batches per phase")
    parser.add_argument("--warmup", type=int, default=3,
                        help="rounds excluded from the latency window "
                             "(hedging arms on observed latencies)")
    parser.add_argument("--latency", type=float, default=10.0,
                        help="modeled per-evaluation latency in ms")
    parser.add_argument("--delay", type=float, default=0.8,
                        help="injected straggler delay per faulted reply (s)")
    parser.add_argument("--hedge-factor", type=float, default=2.0)
    parser.add_argument("--hedge-min-s", type=float, default=0.1)
    parser.add_argument("--quick", action="store_true",
                        help="smaller rounds for CI smoke")
    sys.exit(guard_main(parser, "BENCH_chaos.json", run, FLOORS))
