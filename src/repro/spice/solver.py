"""Newton-Raphson solver with the homotopy fallbacks used by the analyses.

The solver works on assembled :class:`~repro.spice.mna.System` objects: a
``build(x)`` callback re-stamps the Jacobian/residual at the current iterate.
Robustness features mirror production SPICE engines:

* per-iteration step limiting (node voltages move at most ``vlimit`` volts),
* ``gmin`` stepping — a shrinking conductance from every node to ground,
* source stepping — ramping all independent sources from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import profile
from .errors import ConvergenceError

__all__ = ["NewtonResult", "newton_solve", "solve_dc"]

_GMIN_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
_SOURCE_STEPS = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0)


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


def newton_solve(build, x0: np.ndarray, *, max_iter: int = 100, abstol: float = 1e-9,
                 reltol: float = 1e-6, vlimit: float = 0.4) -> NewtonResult:
    """Damped Newton iteration on ``F(x) = 0``.

    ``build(x)`` must return an assembled :class:`System`.  Convergence is
    declared when the (un-damped) update is below ``abstol + reltol * |x|``
    component-wise.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    iterations = 0
    residual = np.inf
    profile.add("newton_solves", 1)
    for iterations in range(1, max_iter + 1):
        profile.add("newton_iterations", 1)
        t0 = perf_counter()
        sys = build(x)
        t1 = perf_counter()
        profile.add("assemble_s", t1 - t0)
        residual = float(np.abs(sys.f).max()) if sys.f.size else 0.0
        try:
            dx = np.linalg.solve(sys.J, -sys.f)
        except np.linalg.LinAlgError:
            # Singular Jacobian: fall back to least squares with tiny ridge.
            ridge = sys.J + 1e-12 * np.eye(sys.size)
            dx, *_ = np.linalg.lstsq(ridge, -sys.f, rcond=None)
        profile.add("solve_s", perf_counter() - t1)
        abs_dx = np.abs(dx)
        # max() propagates NaN and inf, so a finite step means a finite dx.
        step = float(abs_dx.max()) if dx.size else 0.0
        if not math.isfinite(step):
            return NewtonResult(x, False, iterations, residual)
        tol = abstol + reltol * np.abs(x)
        if (abs_dx <= tol).all():
            x = x + dx
            return NewtonResult(x, True, iterations, residual)
        # Damping: scale the whole update so no component moves more than vlimit.
        if step > vlimit:
            dx = dx * (vlimit / step)
        x = x + dx
    return NewtonResult(x, False, iterations, residual)


def solve_dc(compiled, assemble, x0: np.ndarray | None = None, *,
             max_iter: int = 100, vlimit: float = 0.4) -> np.ndarray:
    """DC solve with gmin and source stepping fallbacks.

    ``assemble(x, gmin, source_scale)`` must return an assembled
    :class:`System` (the analyses provide this closure).  Raises
    :class:`ConvergenceError` when every strategy fails.
    """
    x = np.zeros(compiled.size) if x0 is None else np.array(x0, dtype=np.float64)

    def attempt(x_start, gmin, scale, max_iter_local=max_iter):
        return newton_solve(lambda xx: assemble(xx, gmin, scale), x_start,
                            max_iter=max_iter_local, vlimit=vlimit)

    # Plain Newton from the provided initial guess.
    result = attempt(x, 1e-12, 1.0)
    if result.converged:
        return result.x

    # Gmin stepping, warm-started along the sequence.
    x_path = np.array(x, copy=True)
    ok = True
    for gmin in _GMIN_SEQUENCE:
        result = attempt(x_path, gmin, 1.0)
        if not result.converged:
            ok = False
            break
        x_path = result.x
    if ok:
        return x_path

    # Source stepping with a mild gmin floor, then release the gmin.
    x_path = np.zeros(compiled.size)
    ok = True
    for scale in _SOURCE_STEPS:
        result = attempt(x_path, 1e-9, scale, max_iter_local=150)
        if not result.converged:
            ok = False
            break
        x_path = result.x
    if ok:
        for gmin in (1e-10, 1e-11, 1e-12):
            result = attempt(x_path, gmin, 1.0)
            if not result.converged:
                ok = False
                break
            x_path = result.x
        if ok:
            return x_path

    raise ConvergenceError(
        f"DC solve failed for {compiled.circuit.title!r} "
        f"(best residual {result.residual:.3e} after {result.iterations} iterations)")
