"""Reproduce the Figure 3/4 experiment shape on the StrongARM latch.

Runs DE, BO-wEI, GASPAD and DNN-Opt on the latch sizing problem and plots
the average FoM convergence as ASCII (the paper's Figures 3/4).  Budgets are
scaled down for a quick demonstration; set ``REPRO_FULL=1`` for the paper's
protocol.  Independent trials can be spread over a process pool, and every
trial's simulator queries can be routed through any evaluation backend: a
thread pool inside each trial, or a running multi-host evaluation service
(also the way to run CPU-bound simulations in parallel on one machine):

    python examples/compare_optimizers.py --workers 4 --trials 4
    python examples/compare_optimizers.py --engine thread --engine-workers 2
    python -m repro.core.service --port 9101 &   # start shards first
    python -m repro.core.service --port 9102 &
    python examples/compare_optimizers.py --engine remote \
        --hosts 127.0.0.1:9101,127.0.0.1:9102

``--pipeline d`` keeps up to ``d`` ask/tell batches in flight per trial
(overlapping proposal generation with evaluations — a throughput mode that
lets adaptive optimizers condition on a slightly stale archive).
``--cache-dir DIR`` persists every evaluation to disk so a repeated sweep
answers duplicate designs with zero simulations, and ``--warm-start CKPT``
seeds every trial from a donor run's checkpoint (see
``examples/warmstart.py``).
"""

import argparse

from repro.circuits import StrongArmLatch
from repro.core import EvalEngine
from repro.core.engine import BACKENDS
from repro.experiments import (
    ExperimentScale,
    render_fom_figure,
    render_stats_table,
    run_building_block_comparison,
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool workers for the trial loop")
    parser.add_argument("--trials", type=int, default=1,
                        help="independent trials per algorithm")
    parser.add_argument("--budget", type=int, default=40,
                        help="simulation budget for the model-based methods")
    parser.add_argument("--engine", choices=list(BACKENDS), default="serial",
                        help="evaluation backend for every trial's simulator "
                             "queries (default: serial)")
    parser.add_argument("--hosts", default="",
                        help="comma-separated host:port evaluation-service "
                             "workers for --engine remote (default: "
                             "REPRO_SERVICE_HOSTS)")
    parser.add_argument("--engine-workers", type=int, default=None,
                        help="thread-pool size inside each trial's "
                             "engine (--engine thread)")
    parser.add_argument("--pipeline", type=int, default=1, metavar="DEPTH",
                        help="ask/tell batches kept in flight per trial "
                             "(default 1 = barrier mode, the paper protocol)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent evaluation cache shared across "
                             "trials, algorithms and reruns (also honored "
                             "via REPRO_CACHE_DIR)")
    parser.add_argument("--warm-start", default=None, metavar="CKPT",
                        help="Study checkpoint to warm-start every trial "
                             "from (same problem: donor rows told for "
                             "free; different problem: donor designs "
                             "mapped by variable name)")
    args = parser.parse_args()

    engine_factory = None
    if args.engine != "serial":
        hosts = [h for h in args.hosts.split(",") if h.strip()] or None
        engine_factory = lambda: EvalEngine(args.engine, hosts=hosts,
                                            workers=args.engine_workers,
                                            cache_dir=args.cache_dir)

    warm_start = None
    if args.warm_start:
        from repro.core import WarmStart
        warm_start = WarmStart.from_checkpoint(args.warm_start)

    scale = ExperimentScale(n_trials=args.trials, budget=args.budget,
                            de_budget=3 * args.budget,
                            industrial_budget=args.budget,
                            sa_budget=max(100, 2 * args.budget))
    result = run_building_block_comparison(StrongArmLatch, scale=scale,
                                           workers=args.workers, verbose=True,
                                           engine_factory=engine_factory,
                                           pipeline_depth=args.pipeline,
                                           warm_start=warm_start,
                                           cache_dir=args.cache_dir)

    print()
    print(render_stats_table(result["stats"], objective_label="power (uW)",
                             unit_scale=1e-6,
                             title=f"StrongARM latch ({scale.label})"))
    print()
    print(render_fom_figure(result["curves"],
                            "Average FoM vs simulations (lower is better)"))
