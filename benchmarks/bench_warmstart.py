"""Warm-start transfer + persistent-cache benchmark.

Measures the two things PR 5 bought:

* **evals-to-donor-best, cold vs warm** (guarded) — a donor DNN-Opt run
  leaves its archive; a warm-started DNN-Opt (same problem, new seed)
  must re-find a design at least as good as the donor's best in
  measurably fewer *fresh* simulations than a cold run with the same
  seed.  The warm run tells the donor archive before its first ask, so
  its critic/actor start pre-trained on the donor data and its LHS block
  disappears.  Counts are fully seeded (no wall clock), so the ratio is
  deterministic on a given numpy/BLAS stack.
* **disk-cache hit-rate on rerun** (guarded, boolean) — the same study
  rerun against the same ``cache_dir`` with a fresh engine must answer
  every design from disk (zero simulations) with a bit-identical history.

A check also fails when the warm run stops beating the cold run outright,
or when the disk-cache rerun stops being free.  Re-record the committed
baseline, or check a run against it (see README "Perf guards"):

    PYTHONPATH=src python benchmarks/bench_warmstart.py --out BENCH_warmstart.json
    PYTHONPATH=src python benchmarks/bench_warmstart.py \
        --check BENCH_warmstart.json --out /tmp/bench_warmstart.json
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

import numpy as np

from repro.baselines import RandomSearch
from repro.core import DNNOpt, EvalEngine, Study, WarmStart
from repro.problems import ConstrainedSphere

from _shared import guard_main

#: fraction of each committed ratio a measured ratio must retain.  The
#: eval counts are seeded, but actor/critic training crosses BLAS, so tiny
#: float differences can shift a proposal — keep the floor generous.
FLOORS = {"cold_vs_warm_evals": 0.4}
INVARIANTS = ("warm_reaches_donor_best", "warm_not_worse_than_cold",
              "disk_rerun_no_misses", "disk_rerun_all_hits",
              "disk_rerun_identical")


def make_dnnopt(problem, budget, seed):
    return DNNOpt(problem, budget, seed, n_init=12, n_elite=6,
                  critic_epochs=6, actor_epochs=6, critic_hidden=(24, 24),
                  actor_hidden=(24, 24), max_pseudo=1000)


def evals_to_target(history, target: float) -> int | None:
    """1-based count of *fresh* evaluations until the running best of the
    fresh rows reaches ``target`` (donor knowledge does not count)."""
    fresh = history.fom[history.n_warm:]
    reached = np.nonzero(np.minimum.accumulate(fresh) <= target)[0]
    return int(reached[0]) + 1 if len(reached) else None


def run(args) -> dict:
    print(f"warm-start transfer: ConstrainedSphere({args.dim}), donor "
          f"{args.donor_budget} evals, cold/warm {args.budget} evals")
    problem_factory = lambda: ConstrainedSphere(args.dim)

    # -- donor --------------------------------------------------------------
    donor = Study(make_dnnopt(problem_factory(), args.donor_budget,
                              args.donor_seed)).run()
    target = donor.best_fom
    print(f"  donor: {donor.n_evals} evals, best FoM {target:.6f}")

    # -- cold vs warm -------------------------------------------------------
    cold = Study(make_dnnopt(problem_factory(), args.budget, args.seed)).run()
    cold_evals = evals_to_target(cold, target)
    warm_engine = EvalEngine("serial")
    warm = Study(make_dnnopt(problem_factory(), args.budget, args.seed),
                 engine=warm_engine,
                 warm_start=WarmStart.from_history(donor)).run()
    warm_evals = evals_to_target(warm, target)
    # the donor archive itself must never be re-simulated
    fresh_sims = warm.engine_stats["misses"]
    over = args.budget + 1
    speedup = (cold_evals or over) / (warm_evals or over)
    print(f"  cold: evals-to-donor-best {cold_evals} "
          f"(best {cold.best_fom:.6f})")
    print(f"  warm: evals-to-donor-best {warm_evals} "
          f"(best {warm.best_fom:.6f}, n_warm {warm.n_warm}, "
          f"fresh sims {fresh_sims})  -> {speedup:.2f}x fewer")

    # -- disk-cache rerun ---------------------------------------------------
    cache_dir = tempfile.mkdtemp(prefix="bench_warmstart_cache_")
    try:
        make_rs = lambda: RandomSearch(problem_factory(), args.cache_budget, 3)
        with EvalEngine(cache_dir=cache_dir) as e1:
            h1 = Study(make_rs(), engine=e1).run()
        with EvalEngine(cache_dir=cache_dir) as e2:
            h2 = Study(make_rs(), engine=e2).run()
        rerun = dict(h2.engine_stats)
        identical = bool(np.array_equal(h1.X, h2.X)
                         and np.array_equal(h1.F, h2.F))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(f"  disk rerun: misses {rerun['misses']}, disk hits "
          f"{rerun['disk_hits']}/{args.cache_budget}, identical: {identical}")

    return {
        "config": {"dim": args.dim, "donor_budget": args.donor_budget,
                   "budget": args.budget, "cache_budget": args.cache_budget,
                   "donor_seed": args.donor_seed, "seed": args.seed},
        "results": {
            "donor_best_fom": target,
            "cold_evals_to_donor_best": cold_evals,
            "warm_evals_to_donor_best": warm_evals,
            "warm_fresh_simulations": fresh_sims,
            "disk_rerun_misses": rerun["misses"],
            "disk_rerun_hits": rerun["disk_hits"],
        },
        "speedup": {"cold_vs_warm_evals": round(speedup, 3)},
        "invariants": {
            "warm_reaches_donor_best": warm_evals is not None,
            "warm_not_worse_than_cold": (warm_evals is not None and (
                cold_evals is None or warm_evals <= cold_evals)),
            "disk_rerun_no_misses": rerun["misses"] == 0,
            "disk_rerun_all_hits": rerun["disk_hits"] >= args.cache_budget,
            "disk_rerun_identical": identical,
        },
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--donor-budget", type=int, default=40,
                        help="simulations in the donor run")
    parser.add_argument("--budget", type=int, default=80,
                        help="simulations for the cold/warm runs")
    parser.add_argument("--cache-budget", type=int, default=30,
                        help="simulations in the disk-cache rerun study")
    parser.add_argument("--donor-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    sys.exit(guard_main(parser, "BENCH_warmstart.json", run, FLOORS, INVARIANTS))
