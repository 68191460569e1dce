"""Compiled stamping plans: the vectorized MNA hot path.

The legacy inner loop allocates a fresh :class:`~repro.spice.mna.System`
every Newton iteration and re-stamps *every* device through per-entry Python
``add_jac``/``add_res`` calls.  A :class:`StampPlan` — built once per
:class:`~repro.spice.netlist.CompiledCircuit` and cached on it — replaces
that with:

* **Baked linear part.**  Devices are partitioned into linear and nonlinear
  sets at plan build.  The linear devices' constant Jacobian is stamped once
  into ``J_lin``; each iteration then starts from ``J[:] = J_lin`` and gets
  the linear residual from one matvec ``J_lin @ x``.  Independent-source
  values are re-read from the device every assembly (so ``dc_sweep``'s
  waveform swapping keeps working) and scattered through precomputed rows.
* **Vectorized nonlinear stamps.**  All exact-class :class:`MOSFET`\\ s (and
  :class:`Diode`\\ s) in a circuit are evaluated as one numpy batch per
  iteration and scattered into the Jacobian/residual with a single
  ``np.add.at`` per array, using flat index vectors resolved at plan build.
  The MOSFET and capacitor stamp values come from one index + sign gather
  each (also built at plan build), not from expanding every value into its
  signed copies and selecting from those.
  Other nonlinear device classes fall back to their per-device
  ``stamp_static`` — the generic path of the stamping-plan contract.
* **Per-step affine transient companions.**  Companion stamps are affine in
  ``x`` for a fixed integration state (see the contract notes in
  ``devices/base.py``), so each transient step bakes ``J_step``/``c_step``
  once — vectorized for MOSFET Meyer capacitors and linear capacitors,
  captured at ``x = 0`` for any other dynamic device — and Newton iterations
  inside the step touch no Python device code at all.
* **One model evaluation per Newton iterate.**  :meth:`StampPlan.advance`
  evaluates the MOSFET batch at the accepted point for the next step's
  Meyer capacitances, and the next step's first Newton iterate is that same
  point.  The batch keeps a one-entry memo keyed on the bytes of the node
  voltages, so the second call is free.  The model is a pure function of
  those bits and of per-plan constants, so a memo hit returns exactly what
  a fresh evaluation would; the memoized arrays are read-only, so no
  consumer can edit them in place.  A transient without step halving thus
  computes the model (Newton iterations + 1) times, not (iterations +
  accepted steps).
* **Reused workspaces.**  One preallocated :class:`System` (plus the baked
  matrices) serves every assembly; gmin stepping lands on a precomputed
  diagonal index vector.

Numerical equivalence with the legacy path (same stamps, different summation
order) is pinned by ``tests/spice/test_stamp_plan.py``, which also holds a
verbatim copy of the MOSFET batch before the memo and the gathers and checks
the plan against it bit for bit.  The legacy path stays available through
:func:`set_stamping_mode`/:func:`stamping` and is what the hot-path
benchmark reports as "before".
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import profile
from .devices.base import TRAP_THETA
from .devices.diode import Diode
from .devices.mosfet import MOSFET
from .devices.passives import Capacitor
from .devices.sources import CurrentSource, VoltageSource
from .mna import System

__all__ = ["StampPlan", "stamping_mode", "set_stamping_mode", "stamping"]

_MODES = ("plan", "legacy")
_MODE = "plan"

_THETA_DT = TRAP_THETA  # alias: companion theta shared with the devices
_PAIR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_RES_SIGNS = np.array([-1.0, 1.0])


def stamping_mode() -> str:
    """Current assembly mode: ``"plan"`` (default) or ``"legacy"``."""
    return _MODE


def set_stamping_mode(mode: str) -> None:
    """Select the assembly implementation used by the analyses."""
    global _MODE
    if mode not in _MODES:
        raise ValueError(f"stamping mode must be one of {_MODES}, got {mode!r}")
    _MODE = mode


@contextmanager
def stamping(mode: str):
    """Temporarily switch the stamping mode (used by tests and benchmarks)."""
    previous = _MODE
    set_stamping_mode(mode)
    try:
        yield
    finally:
        set_stamping_mode(previous)


def _flat_scatter(rows: np.ndarray, cols: np.ndarray, size: int):
    """Precompute a ground-dropping scatter: value positions + flat indices.

    ``rows``/``cols`` may contain ``-1`` (ground); those entries are removed.
    Returns ``(sel, idx)`` such that ``np.add.at(J.ravel(), idx,
    values.ravel()[sel])`` reproduces per-entry ``add_jac`` calls in order.
    """
    keep = (rows >= 0) & (cols >= 0)
    sel = np.flatnonzero(keep.ravel())
    idx = (rows * size + cols).ravel()[sel]
    return sel, idx


def _flat_res_scatter(rows: np.ndarray):
    keep = rows >= 0
    sel = np.flatnonzero(keep.ravel())
    idx = rows.ravel()[sel]
    return sel, idx


def _signed_gather(sel: np.ndarray, signs: np.ndarray, inner: int = 1):
    """Index + sign vectors that replace a signed expand-then-select.

    For ``values`` whose flat layout is ``(outer, inner)``, expanding to
    ``(outer, len(signs), inner)`` by multiplying with ``signs`` and taking
    ``.ravel()[sel]`` equals ``values.ravel()[src] * sign`` bit for bit:
    each entry is the same single product (negation by ``* -1.0`` is exact),
    without building the expanded array every call.
    """
    width = len(signs)
    src = (sel // (width * inner)) * inner + sel % inner
    return src, signs[(sel // inner) % width]


_HALF_SIGNS = np.array([1.0, -1.0])  # (+value, -value): the d/s row pair
_REVERSE = np.array([2, 1, 0, 3])      # d<->s swap of the (d, g, s, b) columns


class _MOSFETBatch:
    """Vectorized square-law model + stamps for the exact-class MOSFETs.

    Mirrors ``MOSFET._ids``/``terminal_current``/``_capacitances`` term by
    term so plan and legacy paths agree to summation-order rounding.

    :meth:`evaluate` keeps a one-entry memo keyed on the bytes of the
    ground-augmented node voltages: the model is a pure function of those
    bits, so a repeat call returns the previous (read-only) arrays.
    """

    def __init__(self, entries, size: int):
        self.n = len(entries)
        devices = [dev for dev, _ in entries]
        idx = np.array([e.nodes for _, e in entries], dtype=np.intp)  # (n, 4)
        self.idx = idx
        gather = np.where(idx < 0, size, idx)  # -1 -> augmented zero slot
        self._gather_t = np.ascontiguousarray(gather.T)  # (4, n): d, g, s, b rows
        models = [dev.model for dev in devices]
        self.sign = np.array([1.0 if m.polarity == "n" else -1.0 for m in models])
        self.k = np.array([dev._k for dev in devices])
        self.lam = np.array([dev._lam for dev in devices])
        self.vto = np.array([m.vto for m in models])
        self.gamma = np.array([m.gamma for m in models])
        self.phi = np.array([m.phi for m in models])
        self.sqrt_phi = np.sqrt(self.phi)
        self.smooth = np.array([m.smooth for m in models])
        # Per-plan constants of the model, hoisted out of _model.
        self._four_d2 = 4.0 * self.smooth * self.smooth
        self._k_lam = self.k * self.lam
        self._no_body = self.gamma == 0.0
        # Capacitance building blocks (constant per device).
        self.cox_total = np.array([m.cox * d.w * d.l * d.m for m, d in zip(models, devices)])
        self.ovl_s = np.array([m.cgso * d.w * d.m for m, d in zip(models, devices)])
        self.ovl_d = np.array([m.cgdo * d.w * d.m for m, d in zip(models, devices)])
        self.cj_diff = np.array([m.cj * d.w * 3.0 * m.lref * d.m
                                 for m, d in zip(models, devices)])
        self._cgs_sat = (2.0 / 3.0) * self.cox_total + self.ovl_s
        self._cgs_lin = 0.5 * self.cox_total + self.ovl_s
        self._cgd_lin = 0.5 * self.cox_total + self.ovl_d

        # Static scatter: rows (d, s) x cols (d, g, s, b), then residual (d, s).
        rows = np.repeat(idx[:, [0, 2]], 4, axis=1)            # d d d d s s s s
        cols = np.tile(idx, (1, 2))                            # d g s b d g s b
        jac_sel, self.jac_idx = _flat_scatter(rows, cols, size)
        res_sel, self.res_idx = _flat_res_scatter(idx[:, [0, 2]])
        # _model builds the derivatives as a C-ordered (4, n) array and
        # returns its (n, 4) transpose; gather from the (4, n) buffer.
        src, self.jac_sign = _signed_gather(jac_sel, _HALF_SIGNS, inner=4)
        self.jac_src = (src % 4) * self.n + src // 4
        self.res_src, self.res_sign = _signed_gather(res_sel, _HALF_SIGNS)

        # Meyer capacitor pairs (g,s) (g,d) (g,b) (d,b) (s,b).
        pairs = MOSFET._CAP_PAIRS
        pair_a_cols = [p[0] for p in pairs]
        pair_b_cols = [p[1] for p in pairs]
        self._pair_a = gather[:, pair_a_cols]                  # (n, 5) into xg
        self._pair_b = gather[:, pair_b_cols]
        pa = idx[:, pair_a_cols]                               # (n, 5)
        pb = idx[:, pair_b_cols]
        prow = np.stack([pa, pa, pb, pb], axis=2)              # (n, 5, 4)
        pcol = np.stack([pa, pb, pa, pb], axis=2)
        pjac_sel, self.pjac_idx = _flat_scatter(prow, pcol, size)
        pres_sel, self.pres_idx = _flat_res_scatter(np.stack([pa, pb], axis=2))
        self.pjac_src, self.pjac_sign = _signed_gather(pjac_sel, _PAIR_SIGNS)
        self.pres_src, self.pres_sign = _signed_gather(pres_sel, _RES_SIGNS)

        self._memo_key: bytes | None = None
        self._memo = None

    # -- model evaluation ------------------------------------------------
    def evaluate(self, xg: np.ndarray):
        """Terminal currents, derivatives, and region data for every device.

        Returns ``(current, derivs, vov, vds, vdsat, reverse)``; the arrays
        are read-only because a repeat call at the same voltages returns
        them again.
        """
        key = xg.tobytes()
        if key != self._memo_key:
            self._memo = self._model(xg)
            self._memo_key = key
        return self._memo

    def _model(self, xg: np.ndarray):
        nvd, nvg, nvs, nvb = self.sign * xg[self._gather_t]    # (4, n) rows
        fwd = nvd >= nvs
        # Normalized orientation: the higher of drain/source acts as drain.
        hi = np.where(fwd, nvd, nvs)
        lo = np.where(fwd, nvs, nvd)
        vgs = nvg - lo
        vds = hi - lo
        vsb = lo - nvb

        phi_vsb = self.phi + vsb
        sq = np.sqrt(np.maximum(phi_vsb, 0.05))
        vth = self.vto + self.gamma * (sq - self.sqrt_phi)
        dvth = np.where((phi_vsb < 0.05) | self._no_body, 0.0, self.gamma / (2.0 * sq))

        vov = vgs - vth
        s = np.sqrt(vov * vov + self._four_d2)
        vov_eff = 0.5 * (vov + s)
        dvov_eff = 0.5 * (1.0 + vov / s)

        vdsat = vov_eff
        r = vds / vdsat
        r4 = r ** 4
        one_p = 1.0 + r4
        u = one_p ** 0.25
        vdse = vds / u
        dvdse_dvds = one_p ** -1.25
        dvdse_dvdsat = (r ** 5) * dvdse_dvds

        clm = 1.0 + self.lam * vds
        f = vov_eff * vdse - 0.5 * vdse * vdse
        ids = self.k * f * clm

        k_clm = self.k * clm
        did_dvdse = k_clm * (vov_eff - vdse)
        did_dvov = k_clm * vdse + did_dvdse * dvdse_dvdsat
        did_dvgs = did_dvov * dvov_eff
        did_dvds = self._k_lam * f + did_dvdse * dvdse_dvds
        # -(a * b) == (-a) * b exactly (rounding is sign-symmetric), so this
        # reuses did_dvgs for the model's -did_dvov * dvov_eff * dvth.
        did_dvsb = -did_dvgs * dvth

        signed = self.sign * ids
        current = np.where(fwd, signed, -signed)
        # Terminal derivatives wrt (vd, vg, vs, vb); polarity signs cancel.
        # The reverse orientation is a signed permutation of the forward one:
        # (dg+dd-db, -dg, -dd, db) == -(fwd[2], fwd[1], fwd[0], fwd[3]).
        forward = np.array([did_dvds, did_dvgs,
                            -did_dvgs - did_dvds + did_dvsb, -did_dvsb])
        derivs = np.where(fwd, forward, -forward.take(_REVERSE, axis=0)).T
        out = (current, derivs, vov, vds, vdsat, ~fwd)
        for arr in out:
            arr.flags.writeable = False
        return out

    def static_values(self, xg: np.ndarray):
        current, derivs, *_ = self.evaluate(xg)
        jac = derivs.T.ravel()[self.jac_src] * self.jac_sign
        res = current[self.res_src] * self.res_sign
        return jac, res

    def capacitances(self, xg: np.ndarray) -> np.ndarray:
        """Meyer capacitances (n, 5) at the given node voltages."""
        _, _, vov, vds, vdsat, reverse = self.evaluate(xg)
        cutoff = vov < 0.0
        saturation = ~cutoff & (vds >= vdsat)
        cgs = np.where(cutoff, self.ovl_s,
                       np.where(saturation, self._cgs_sat, self._cgs_lin))
        cgd = np.where(cutoff | saturation, self.ovl_d, self._cgd_lin)
        cgb = np.where(cutoff, self.cox_total, 0.0)
        cgs, cgd = (np.where(reverse, cgd, cgs), np.where(reverse, cgs, cgd))
        return np.stack([cgs, cgd, cgb, self.cj_diff, self.cj_diff], axis=1)

    def pair_voltages(self, xg: np.ndarray) -> np.ndarray:
        return xg[self._pair_a] - xg[self._pair_b]

    def companions(self, caps, v, i, dt: float, method: str):
        """Companion conductances/currents for the state (start of step)."""
        if method == "trapezoidal":
            geq = caps / (_THETA_DT * dt)
            ieq = geq * v + (1.0 - _THETA_DT) / _THETA_DT * i
        else:
            geq = caps / dt
            ieq = geq * v
        live = caps > 0.0
        return np.where(live, geq, 0.0), np.where(live, ieq, 0.0)

    def updated_currents(self, caps, v_old, i_old, v_new, dt: float, method: str):
        if method == "trapezoidal":
            geq = caps / (_THETA_DT * dt)
            i_new = geq * (v_new - v_old) - (1.0 - _THETA_DT) / _THETA_DT * i_old
        else:
            i_new = caps / dt * (v_new - v_old)
        return np.where(caps > 0.0, i_new, 0.0)


class _DiodeBatch:
    """Vectorized Shockley diode with the same pnjlim-style linearization."""

    def __init__(self, entries, size: int):
        self.n = len(entries)
        idx = np.array([e.nodes for _, e in entries], dtype=np.intp)  # (n, 2)
        self.gather = np.where(idx < 0, size, idx)
        self.isat = np.array([dev.i_s for dev, _ in entries])
        self.vte = np.array([dev._vte for dev, _ in entries])
        self.vcrit = np.array([dev._vcrit for dev, _ in entries])
        exp_crit = np.exp(self.vcrit / self.vte)
        self.g0 = self.isat / self.vte * exp_crit
        self.i0 = self.isat * (exp_crit - 1.0)

        a, b = idx[:, 0], idx[:, 1]
        rows = np.stack([a, a, b, b], axis=1)
        cols = np.stack([a, b, a, b], axis=1)
        self.jac_sel, self.jac_idx = _flat_scatter(rows, cols, size)
        self.res_sel, self.res_idx = _flat_res_scatter(idx)

    def static_values(self, xg: np.ndarray):
        v = xg[self.gather]
        vd = v[:, 0] - v[:, 1]
        lin = vd > self.vcrit
        neg = vd < -20.0 * self.vte
        safe = np.where(lin | neg, 0.0, vd)
        expv = np.exp(safe / self.vte)
        current = np.where(lin, self.i0 + self.g0 * (vd - self.vcrit),
                           np.where(neg, -self.isat, self.isat * (expv - 1.0)))
        g = np.where(lin, self.g0,
                     np.where(neg, 1e-15, self.isat / self.vte * expv))
        jac = (g[:, None] * _PAIR_SIGNS).ravel()[self.jac_sel]
        res = np.stack([current, -current], axis=1).ravel()[self.res_sel]
        return jac, res


class _CapacitorBatch:
    """Vectorized companion stamps for exact-class linear capacitors."""

    def __init__(self, entries, size: int):
        self.n = len(entries)
        idx = np.array([e.nodes for _, e in entries], dtype=np.intp)  # (n, 2)
        self.gather = np.where(idx < 0, size, idx)
        self.value = np.array([dev.value for dev, _ in entries])
        a, b = idx[:, 0], idx[:, 1]
        rows = np.stack([a, a, b, b], axis=1)
        cols = np.stack([a, b, a, b], axis=1)
        jac_sel, self.jac_idx = _flat_scatter(rows, cols, size)
        res_sel, self.res_idx = _flat_res_scatter(idx)
        self.jac_src, self.jac_sign = _signed_gather(jac_sel, _PAIR_SIGNS)
        self.res_src, self.res_sign = _signed_gather(res_sel, _RES_SIGNS)

    def voltages(self, xg: np.ndarray) -> np.ndarray:
        v = xg[self.gather]
        return v[:, 0] - v[:, 1]

    def companions(self, v, i, dt: float, method: str):
        if method == "trapezoidal":
            geq = self.value / (_THETA_DT * dt)
            ieq = geq * v + (1.0 - _THETA_DT) / _THETA_DT * i
        else:
            geq = self.value / dt
            ieq = geq * v
        return geq, ieq

    def updated_currents(self, v_old, i_old, v_new, dt: float, method: str):
        geq, ieq = self.companions(v_old, i_old, dt, method)
        return geq * v_new - ieq


class _TransientState:
    """Integration state owned by the plan during one transient run."""

    __slots__ = ("mos_caps", "mos_v", "mos_i", "cap_v", "cap_i", "generic")

    def __init__(self, mos_caps, mos_v, mos_i, cap_v, cap_i, generic):
        self.mos_caps = mos_caps
        self.mos_v = mos_v
        self.mos_i = mos_i
        self.cap_v = cap_v
        self.cap_i = cap_i
        self.generic = generic


class StampPlan:
    """Precompiled assembly program for one :class:`CompiledCircuit`."""

    def __init__(self, compiled):
        self.compiled = compiled
        size = compiled.size
        self.size = size
        self._num_nodes = compiled.num_nodes
        self._sys = System(size)
        self._xg = np.zeros(size + 1)  # x augmented with a trailing ground zero
        self._x0 = np.zeros(size)
        self._diag_flat = np.arange(self._num_nodes, dtype=np.intp) * (size + 1)

        mos_entries, diode_entries, cap_entries = [], [], []
        self._generic_nonlinear = []   # (device, idx): per-iteration fallback
        self._generic_dynamic = []     # (device, idx): per-step affine capture
        linear = []
        for device, idx in compiled.devices_with_indices():
            if device.nonlinear:
                if type(device) is MOSFET:
                    mos_entries.append((device, idx))
                elif type(device) is Diode:
                    diode_entries.append((device, idx))
                else:
                    self._generic_nonlinear.append((device, idx))
            else:
                linear.append((device, idx))
            if device.dynamic:
                if type(device) is MOSFET:
                    pass  # Meyer caps handled by the MOSFET batch
                elif type(device) is Capacitor:
                    cap_entries.append((device, idx))
                else:
                    self._generic_dynamic.append((device, idx))

        self._mos = _MOSFETBatch(mos_entries, size) if mos_entries else None
        self._diodes = _DiodeBatch(diode_entries, size) if diode_entries else None
        self._caps = _CapacitorBatch(cap_entries, size) if cap_entries else None

        # Bake the linear devices once: constant Jacobian + constant residual
        # offset, captured at x = 0 with source_scale = 0 so independent-source
        # values stay out of the bake (they are re-read every assembly).
        scratch = System(size)
        scratch.source_scale = 0.0
        scratch.time = None
        for device, idx in linear:
            device.stamp_static(scratch, self._x0, idx)
        self._J_lin = scratch.J.copy()
        self._c_lin = scratch.f.copy()

        self._vsources = [(device, idx.branches[0])
                          for device, idx in compiled.devices_with_indices()
                          if isinstance(device, VoltageSource)]
        self._isources = [(device, idx.nodes[0], idx.nodes[1])
                          for device, idx in compiled.devices_with_indices()
                          if isinstance(device, CurrentSource)]

        # Per-step transient bake targets.
        self._J_step = np.zeros((size, size))
        self._c_step = np.zeros(size)
        self._step_time: float | None = None
        self._dyn_scratch = System(size) if self._generic_dynamic else None

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _apply_sources(self, f: np.ndarray, scale: float, time: float | None) -> None:
        """Independent-source residual terms, read fresh from the devices."""
        for device, branch in self._vsources:
            f[branch] -= scale * device.voltage_at(time)
        for device, a, b in self._isources:
            current = scale * device.current_at(time)
            if a >= 0:
                f[a] += current
            if b >= 0:
                f[b] -= current

    def _stamp_nonlinear(self, sys: System, x: np.ndarray, xg: np.ndarray) -> None:
        J_flat = sys.J.ravel()
        f = sys.f
        if self._mos is not None:
            jac, res = self._mos.static_values(xg)
            np.add.at(J_flat, self._mos.jac_idx, jac)
            np.add.at(f, self._mos.res_idx, res)
        if self._diodes is not None:
            jac, res = self._diodes.static_values(xg)
            np.add.at(J_flat, self._diodes.jac_idx, jac)
            np.add.at(f, self._diodes.res_idx, res)
        for device, idx in self._generic_nonlinear:
            device.stamp_static(sys, x, idx)

    def _gather(self, x: np.ndarray) -> np.ndarray:
        xg = self._xg
        xg[:-1] = x
        return xg

    # ------------------------------------------------------------------
    # DC / operating-point assembly
    # ------------------------------------------------------------------
    def assemble_static(self, x: np.ndarray, *, gmin: float = 0.0,
                        source_scale: float = 1.0,
                        time: float | None = None) -> System:
        """One Newton assembly: ``J[:] = J_lin`` + vectorized nonlinear scatter."""
        sys = self._sys
        sys.source_scale = source_scale
        sys.time = time
        J, f = sys.J, sys.f
        J[:] = self._J_lin
        np.matmul(self._J_lin, x, out=f)
        f += self._c_lin
        self._apply_sources(f, source_scale, time)
        self._stamp_nonlinear(sys, x, self._gather(x))
        if gmin:
            nn = self._num_nodes
            J.ravel()[self._diag_flat] += gmin
            f[:nn] += gmin * x[:nn]
        return sys

    # ------------------------------------------------------------------
    # Transient stepping
    # ------------------------------------------------------------------
    def init_transient(self, x: np.ndarray) -> _TransientState:
        """Integration state at the initial solution (mirrors ``init_state``)."""
        xg = self._gather(x)
        mos_caps = mos_v = mos_i = None
        if self._mos is not None:
            mos_caps = self._mos.capacitances(xg)
            mos_v = self._mos.pair_voltages(xg)
            mos_i = np.zeros_like(mos_v)
        cap_v = cap_i = None
        if self._caps is not None:
            cap_v = self._caps.voltages(xg)
            cap_i = np.zeros_like(cap_v)
        generic = [device.init_state(x, idx) for device, idx in self._generic_dynamic]
        return _TransientState(mos_caps, mos_v, mos_i, cap_v, cap_i, generic)

    def begin_step(self, state: _TransientState, time: float, dt: float,
                   method: str, *, gmin: float = 1e-12) -> None:
        """Bake the affine (linear + companion) part of one transient step."""
        t0 = perf_counter()
        J = self._J_step
        c = self._c_step
        J[:] = self._J_lin
        c[:] = self._c_lin
        # The floating-node gmin rides in J_step, so J_step @ x carries its
        # residual term too.
        J.ravel()[self._diag_flat] += gmin
        J_flat = J.ravel()
        if self._mos is not None:
            geq, ieq = self._mos.companions(state.mos_caps, state.mos_v,
                                            state.mos_i, dt, method)
            mos = self._mos
            np.add.at(J_flat, mos.pjac_idx, geq.ravel()[mos.pjac_src] * mos.pjac_sign)
            np.add.at(c, mos.pres_idx, ieq.ravel()[mos.pres_src] * mos.pres_sign)
        if self._caps is not None:
            caps = self._caps
            geq, ieq = caps.companions(state.cap_v, state.cap_i, dt, method)
            np.add.at(J_flat, caps.jac_idx, geq[caps.jac_src] * caps.jac_sign)
            np.add.at(c, caps.res_idx, ieq[caps.res_src] * caps.res_sign)
        if self._generic_dynamic:
            scratch = self._dyn_scratch
            scratch.reset()
            for (device, idx), dev_state in zip(self._generic_dynamic, state.generic):
                if dev_state is not None:
                    device.stamp_dynamic(scratch, self._x0, idx, dev_state, dt, method)
            J += scratch.J
            c += scratch.f
        self._step_time = time
        profile.add("assemble_s", perf_counter() - t0)

    def assemble_transient(self, x: np.ndarray) -> System:
        """Newton assembly within the step prepared by :meth:`begin_step`."""
        sys = self._sys
        sys.source_scale = 1.0
        sys.time = self._step_time
        J, f = sys.J, sys.f
        J[:] = self._J_step
        np.matmul(self._J_step, x, out=f)
        f += self._c_step
        self._apply_sources(f, 1.0, self._step_time)
        self._stamp_nonlinear(sys, x, self._gather(x))
        return sys

    def advance(self, state: _TransientState, x_new: np.ndarray, dt: float,
                method: str) -> None:
        """Advance integration state after a converged step."""
        xg = self._gather(x_new)
        if self._mos is not None:
            v_new = self._mos.pair_voltages(xg)
            state.mos_i = self._mos.updated_currents(
                state.mos_caps, state.mos_v, state.mos_i, v_new, dt, method)
            state.mos_v = v_new
            state.mos_caps = self._mos.capacitances(xg)
        if self._caps is not None:
            v_new = self._caps.voltages(xg)
            state.cap_i = self._caps.updated_currents(
                state.cap_v, state.cap_i, v_new, dt, method)
            state.cap_v = v_new
        for pos, (device, idx) in enumerate(self._generic_dynamic):
            if state.generic[pos] is not None:
                state.generic[pos] = device.update_state(
                    x_new, idx, state.generic[pos], dt, method)
