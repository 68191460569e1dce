"""Tiny self-test of the benchmark itself (a few seconds)::

    python3 perfbench/selftest.py

Checks that the metrics the benchmark computes are the ones
``BENCHMARK.json`` declares (names and units are read from it), that the
layer map covers every per-layer metric,
that a tiny traced study reproduces its untraced twin and passes the
correctness gate, and that the gate trips on deliberately corrupted
outputs.  Exits non-zero on the first failed section, listing every
failure found.
"""

from __future__ import annotations

import copy
import json
import sys

from run import ROOT, prepare

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_declarations() -> None:
    from perfbench.bench import declared
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(WORKLOADS), f"workloads {names} != {list(WORKLOADS)}")

    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    mapped = [m for entry in layer_map["layers"] for m in entry["metrics"]]
    expect(sorted(mapped) == sorted(declared("per_layer")),
           "layer_map.json does not list every per-layer metric exactly once")
    e2e = set(declared("end_to_end"))
    for entry in layer_map["layers"]:
        for kind in ("moves", "steady"):
            for workload, metrics in entry[kind].items():
                expect(workload in WORKLOADS, f"layer map names {workload!r}")
                expect(set(metrics) <= e2e, f"layer map {kind} {metrics}")


def check_tiny_study() -> None:
    import numpy as np

    from perfbench.bench import (PAIR_METRICS, _peak_rss_mb, _traced_study,
                                 declared, end_to_end)
    from perfbench.gate import check_identical, check_resimulated, check_study
    from perfbench.layers import layer_metrics
    from perfbench.workloads import Workload, run_study
    from repro.problems import ConstrainedSphere
    from repro.scenarios import CornerProblem, ScenarioSet

    tiny = Workload("tiny_corners_remote",
                    lambda: CornerProblem(ConstrainedSphere(4), ScenarioSet.typical(),
                                          gate_margin=0.5, gate_warmup=4),
                    "remote", budget=16, batch_size=4, n_init=8)
    base = run_study(tiny, 7, 1)
    traced, tracer = _traced_study(tiny, 7, 1, 0)
    for record in (base, traced):
        expect(check_study(record, tiny.budget) == [],
               f"clean study fails the gate: {check_study(record, tiny.budget)}")
    expect(check_identical(base, traced) == [], "traced history differs")
    expect(check_resimulated(base, range(tiny.budget)) == [],
           "re-simulation differs on a clean study")

    per_layer = layer_metrics(traced, tracer)
    expect(set(per_layer) | set(PAIR_METRICS) == set(declared("per_layer")),
           "layer_metrics keys != per_layer in BENCHMARK.json")
    expect(per_layer["service.requests"] > 0 and per_layer["service.bytes_in"] > 0,
           "remote study recorded no service traffic")
    expect(per_layer["critic.fit_steps"] > 0 and per_layer["nn.tensors"] > 0,
           "traced study recorded no critic work")
    values = end_to_end([base], [0.5], _peak_rss_mb(1))
    expect(list(values) == list(declared("end_to_end")),
           "end_to_end keys != end_to_end in BENCHMARK.json")

    def corrupted(record, change):
        bad = copy.copy(record)
        bad.X, bad.F = record.X.copy(), record.F.copy()
        change(bad)
        return bad

    def nan_row(r):
        r.F[3, 0] = np.nan

    def duplicate(r):
        r.X[5] = r.X[4]

    def flip_bit(r):
        r.F[2, 0] = np.nextafter(r.F[2, 0], np.inf)

    def truncate(r):
        r.n_evals -= 1

    def lost_sim(r):
        r.counters = {**r.counters, "n_sim_calls": r.counters["n_sim_calls"] - 1}

    for name, change in (("nan row", nan_row), ("duplicate design", duplicate),
                         ("short history", truncate), ("lost simulation", lost_sim)):
        expect(check_study(corrupted(base, change), tiny.budget) != [],
               f"gate missed a {name}")
    expect(check_identical(base, corrupted(traced, flip_bit)) != [],
           "gate missed a one-ulp difference between traced and untraced")
    expect(check_resimulated(corrupted(base, flip_bit), [2]) != [],
           "gate missed a told row that differs from its re-simulation")


def main() -> int:
    if not prepare():
        return 2
    for section in (check_declarations, check_tiny_study):
        section()
        if failures:
            print(f"selftest FAILED in {section.__name__}:", *failures, sep="\n  ")
            return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
