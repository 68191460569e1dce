"""SPICE hot-path benchmark: compiled stamping plans vs the legacy restamp loop.

Times the full folded-cascode evaluation loop (DC operating points, AC sweep,
CMRR/PSRR spurs, noise, settling transient — exactly what every optimizer
query pays for) and the StrongARM latch transient testbench, once with the
legacy per-device restamp path ("before") and once with the compiled
stamping plans ("after").  Alongside wall-clock sims/sec it reports Newton
iterations/sec and AC solves/sec from the process-global hot-path counters
(:mod:`repro.spice.profile`), plus the per-sim assemble/solve split.

The guarded metric is each circuit's plan-vs-legacy sims/sec *ratio*, not
absolute sims/sec: absolute throughput varies wildly across host machines
while both modes share the same host in one run.  Re-record the committed
baseline, or check a run against it (see README "Perf guards"):

    PYTHONPATH=src python benchmarks/bench_spice_hotpath.py --out BENCH_spice.json
    PYTHONPATH=src python benchmarks/bench_spice_hotpath.py --quick \
        --check BENCH_spice.json --out /tmp/bench_spice.json
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.circuits import FoldedCascodeOTA, StrongArmLatch
from repro.spice import profile, stamping

from _shared import guard_main

#: fraction of each committed ratio a measured ratio must retain.
#: The folded-cascode loop (the acceptance metric) is timing-stable across
#: repeated runs; the StrongARM entry is one long transient per rep and
#: shows occasional 1.5x-2.6x swings even on an idle host, so it gets a
#: looser floor that still catches a real (2x-class) regression.
FLOORS = {"folded_cascode": 0.7, "strongarm_latch": 0.5}


def time_mode(circuit, params: dict, reps: int, mode: str) -> dict:
    """sims/sec and hot-path counter rates for ``reps`` measure() calls.

    ``sims_per_sec`` comes from the *best* rep (classic anti-noise
    benchmarking: a scheduler hiccup can only slow a rep down, never speed
    it up), so the CI gate tolerates noisy shared runners; counter rates
    average over the whole window.
    """
    with stamping(mode):
        circuit.measure(params)  # warm-up: page caches, lazy plan build
        before = profile.snapshot()
        rep_seconds = []
        for _ in range(reps):
            t0 = perf_counter()
            circuit.measure(params)
            rep_seconds.append(perf_counter() - t0)
        delta = profile.delta(before)
    elapsed = sum(rep_seconds)
    best = min(rep_seconds)
    return {
        "reps": reps,
        "seconds_per_sim": best,
        "seconds_per_sim_mean": elapsed / reps,
        "sims_per_sec": 1.0 / best,
        "newton_iterations_per_sec": delta["newton_iterations"] / elapsed,
        "ac_solves_per_sec": delta["ac_solves"] / elapsed,
        "assemble_s_per_sim": delta["assemble_s"] / reps,
        "solve_s_per_sim": delta["solve_s"] / reps,
        "ac_solve_s_per_sim": delta["ac_solve_s"] / reps,
    }


def run(args) -> dict:
    fc_reps, latch_reps = (3, 2) if args.quick else (6, 3)
    circuits = {"folded_cascode": (FoldedCascodeOTA(), fc_reps),
                "strongarm_latch": (StrongArmLatch(), latch_reps)}
    results, speedup = {}, {}
    for name, (circuit, reps) in circuits.items():
        print(f"{name} ({reps} reps/mode)...", flush=True)
        before = time_mode(circuit, circuit.nominal(), reps, "legacy")
        after = time_mode(circuit, circuit.nominal(), reps, "plan")
        results[name] = {"before": before, "after": after}
        speedup[name] = after["sims_per_sec"] / before["sims_per_sec"]
        print(f"  before (legacy): {before['sims_per_sec']:8.2f} sims/s  "
              f"{before['newton_iterations_per_sec']:10.0f} newton-iters/s  "
              f"{before['ac_solves_per_sec']:8.0f} ac-solves/s")
        print(f"  after  (plan):   {after['sims_per_sec']:8.2f} sims/s  "
              f"{after['newton_iterations_per_sec']:10.0f} newton-iters/s  "
              f"{after['ac_solves_per_sec']:8.0f} ac-solves/s")
        print(f"  speedup: {speedup[name]:.2f}x   "
              f"(assemble {after['assemble_s_per_sim'] * 1e3:.1f} ms/sim, "
              f"solve {after['solve_s_per_sim'] * 1e3:.1f} ms/sim)")
    return {
        "config": {"quick": args.quick, "fc_reps": fc_reps,
                   "latch_reps": latch_reps},
        "results": results,
        "speedup": speedup,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small rep counts for the CI perf smoke")
    sys.exit(guard_main(parser, "BENCH_spice.json", run, FLOORS))
