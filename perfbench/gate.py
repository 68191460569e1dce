"""Correctness gate: the checks every study of a benchmark run must pass.

Each check returns a list of human-readable failures; an empty list means
the study's outputs are correct.  The benchmark exits non-zero when any
check fails.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_study", "check_identical", "check_resimulated"]


def check_study(record, budget: int) -> list[str]:
    """Budget, distinct designs, finite rows and the simulation identity."""
    failures = []
    X, F = record.X, record.F
    if record.n_evals != budget or len(X) != budget or len(F) != budget:
        failures.append(f"n_evals {record.n_evals} (rows {len(X)}/{len(F)}) "
                        f"!= budget {budget}")
    if len(np.unique(X, axis=0)) != len(X):
        failures.append("told designs are not pairwise distinct")
    bad = np.flatnonzero(~np.isfinite(F).all(axis=1))
    if len(bad):
        failures.append(f"non-finite rows at {bad[:5].tolist()}")
    expected = budget + int(record.scenarios.get("corner_sims", 0))
    if record.counters["n_sim_calls"] != expected:
        failures.append(f"engine sims {record.counters['n_sim_calls']} != "
                        f"budget + corner sims = {expected}")
    return failures


def check_identical(untraced, traced) -> list[str]:
    """The traced study must reproduce the untraced history bit for bit."""
    if (np.array_equal(untraced.X, traced.X)
            and np.array_equal(untraced.F, traced.F)):
        return []
    return [f"seed {traced.seed}: traced history differs from untraced"]


def check_resimulated(record, picks) -> list[str]:
    """Told rows equal an in-process ``problem.evaluate`` bit for bit.

    For a scenario problem a design the gate stopped at the nominal corner
    was told its nominal row, so that row is accepted too.
    """
    failures = []
    problem = record.problem
    variants = getattr(problem, "variants", None)
    for i in picks:
        x, told = record.X[i], record.F[i]
        if variants is not None and np.array_equal(variants[0].evaluate(x), told):
            continue
        if not np.array_equal(problem.evaluate(x), told):
            failures.append(f"seed {record.seed}: row {i} differs from an "
                            f"in-process re-simulation")
    return failures
