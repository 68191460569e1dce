"""Process-global hot-path counters for the simulator.

The solver and the small-signal analyses accumulate wall-clock seconds and
event counts into a module-level table so callers (the benchmark harness,
:class:`repro.core.engine.EvalEngine`) can report assemble/solve/overhead
breakdowns without threading a profiler object through every analysis.

Counters are always on.  Each Newton iteration makes three ``perf_counter``
calls and three counter adds (``newton_iterations``, ``assemble_s``,
``solve_s``); each ``newton_solve`` call adds one more (``newton_solves``),
and each plan-path transient step two calls and one add for its baked
companion part.  That is well under a microsecond per iteration, small
next to the model evaluation and the dense solve.  ``snapshot``/``delta`` let a
caller measure just its own window of activity.  Remote worker servers
(:mod:`repro.core.service`) take a delta around each chunk they simulate and
ship it back in the reply, so the coordinator's engine folds in work done in
other processes.

These are best-effort diagnostics, not ledgers: the table is process-global
and updates are plain ``+=`` (no lock — a lock would tax every Newton
iteration).  When several threads simulate concurrently (the engine's
``thread`` backend, or thread-pool trial fallbacks), one caller's
snapshot/delta window also captures the other threads' work and racing
increments can be lost, so per-engine phase splits are only faithful for
single-threaded dispatch.
"""

from __future__ import annotations

__all__ = ["COUNTER_NAMES", "add", "delta", "snapshot"]

#: every counter the hot path maintains; ``*_s`` entries are seconds.
COUNTER_NAMES = (
    "assemble_s",          # Jacobian/residual assembly inside Newton
    "solve_s",             # dense linear solves inside Newton
    "ac_build_s",          # small-signal G/C/rhs assembly
    "ac_solve_s",          # complex solves in AC and noise analyses
    "newton_iterations",   # total Newton iterations
    "newton_solves",       # newton_solve invocations
    "ac_solves",           # complex linear systems solved (one per frequency)
)

_counters: dict[str, float] = {name: 0.0 for name in COUNTER_NAMES}


def add(name: str, value: float) -> None:
    """Accumulate ``value`` into counter ``name``."""
    _counters[name] += value


def snapshot() -> dict[str, float]:
    """A copy of every counter, for before/after delta bookkeeping."""
    return dict(_counters)


def delta(before: dict[str, float]) -> dict[str, float]:
    """Counter increments since ``before`` (a :func:`snapshot` result)."""
    return {name: _counters[name] - before.get(name, 0.0) for name in COUNTER_NAMES}

