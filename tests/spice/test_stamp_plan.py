"""Numerical equivalence of the compiled stamping plans vs the legacy path.

The plan path (baked linear Jacobian, vectorized MOSFET/diode scatter,
per-step affine transient companions, batched AC/noise solves) must produce
the same physics as the legacy per-device restamp loop.  The two paths sum
identical per-device stamps in different orders, so agreement is pinned at
assembly level to summation round-off and at analysis level to 1e-12-class
tolerances (converged Newton solutions are one quadratic step past the
1e-9 update tolerance; transient trajectories accumulate round-off over
hundreds of steps, bounded here at the measurement level).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import FoldedCascodeOTA, StrongArmLatch
from repro.core.engine import EvalEngine
from repro.spice import (
    NMOS_7,
    NMOS_180,
    PMOS_180,
    Circuit,
    ac_analysis,
    dc_sweep,
    noise_analysis,
    operating_point,
    stamping,
    transient,
)
from repro.spice import plan as plan_module
from repro.spice.analysis import tran as tran_module
from repro.spice.analysis.op import _assemble_factory
from repro.spice.devices.base import TRAP_THETA as _THETA_DT
from repro.spice.devices.mosfet import MOSFET, MOSModel
from repro.spice.plan import _PAIR_SIGNS, _RES_SIGNS, _flat_res_scatter, _flat_scatter


def _assembled(compiled, x, gmin, scale, mode):
    with stamping(mode):
        sys = _assemble_factory(compiled)(x, gmin, scale)
        return sys.J.copy(), sys.f.copy()


def _diode_rc_circuit():
    c = Circuit("diode_rc")
    c.vsource("V1", "in", "0", 1.5, ac=1.0)
    c.resistor("R1", "in", "a", 1e3)
    c.diode("D1", "a", "out", i_s=2e-14, n=1.1, cj0=10e-15)
    c.resistor("R2", "out", "0", 5e3)
    c.capacitor("C1", "out", "0", 2e-12)
    return c


ASSEMBLY_CIRCUITS = [
    ("folded_cascode", lambda: FoldedCascodeOTA().build(FoldedCascodeOTA().nominal())),
    ("strongarm", lambda: StrongArmLatch().build(StrongArmLatch().nominal())),
    ("diode_rc", _diode_rc_circuit),
]


@pytest.mark.parametrize("name,builder", ASSEMBLY_CIRCUITS, ids=[n for n, _ in ASSEMBLY_CIRCUITS])
def test_assembled_system_matches_legacy(name, builder):
    """J and f agree entrywise at random iterates, gmins and source scales."""
    circuit = builder()
    compiled = circuit.compile()
    rng = np.random.default_rng(7)
    for gmin, scale in ((0.0, 1.0), (1e-6, 1.0), (1e-9, 0.35)):
        x = rng.normal(0.6, 0.8, compiled.size)
        J_legacy, f_legacy = _assembled(compiled, x, gmin, scale, "legacy")
        J_plan, f_plan = _assembled(compiled, x, gmin, scale, "plan")
        np.testing.assert_allclose(J_plan, J_legacy, rtol=1e-10, atol=1e-13)
        scale_f = max(1.0, np.abs(f_legacy).max())
        np.testing.assert_allclose(f_plan, f_legacy, rtol=1e-10,
                                   atol=1e-12 * scale_f)


def test_folded_cascode_dc_ac_noise_match_legacy():
    fc = FoldedCascodeOTA()
    params = fc.nominal()
    freqs = np.logspace(1, 9, 41)

    amp_legacy = fc.build(params)
    with stamping("legacy"):
        op_l = operating_point(amp_legacy, nodeset=fc._nodeset())
        ac_l = ac_analysis(amp_legacy, op_l, freqs)
        nz_l = noise_analysis(amp_legacy, op_l, freqs, "vout", input_source="VIP")
    amp_plan = fc.build(params)
    with stamping("plan"):
        op_p = operating_point(amp_plan, nodeset=fc._nodeset())
        ac_p = ac_analysis(amp_plan, op_p, freqs)
        nz_p = noise_analysis(amp_plan, op_p, freqs, "vout", input_source="VIP")

    np.testing.assert_allclose(op_p.x, op_l.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ac_p.solutions, ac_l.solutions,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(nz_p.output_psd, nz_l.output_psd,
                               rtol=1e-9, atol=0)
    np.testing.assert_allclose(nz_p.gain, nz_l.gain, rtol=1e-9, atol=1e-12)


def test_folded_cascode_measure_matches_legacy():
    """Full evaluation loop (OP + AC + spurs + noise + transient settling)."""
    fc = FoldedCascodeOTA()
    params = fc.nominal()
    with stamping("legacy"):
        legacy = fc.measure(params)
    with stamping("plan"):
        plan = fc.measure(params)
    assert set(plan) == set(legacy)
    for key in legacy:
        assert plan[key] == pytest.approx(legacy[key], rel=1e-9, abs=1e-12), key


def test_strongarm_transient_matches_legacy():
    """The regenerative latch transient: trajectories stay together to
    round-off even through the positive-feedback resolution phase."""
    latch = StrongArmLatch()
    params = latch.nominal()
    with stamping("legacy"):
        legacy = latch.measure(params)
    with stamping("plan"):
        plan = latch.measure(params)
    assert set(plan) == set(legacy)
    for key in legacy:
        # Reset-residual metrics are ~1e-9 V differences of rail-level
        # signals, so agreement there is absolute (round-off), not relative.
        assert plan[key] == pytest.approx(legacy[key], rel=1e-6, abs=1e-12), key


def test_transient_solutions_match_legacy_rc():
    c_legacy = _diode_rc_circuit()
    with stamping("legacy"):
        tr_l = transient(c_legacy, 1e-9, 200e-9)
    c_plan = _diode_rc_circuit()
    with stamping("plan"):
        tr_p = transient(c_plan, 1e-9, 200e-9)
    np.testing.assert_allclose(tr_p.t, tr_l.t, rtol=0, atol=0)
    np.testing.assert_allclose(tr_p.solutions, tr_l.solutions,
                               rtol=1e-10, atol=1e-12)


def test_dc_sweep_tracks_waveform_mutation():
    """Regression: the plan re-reads source levels every assembly, so
    dc_sweep's waveform swapping must flow through the baked plan."""
    def build():
        c = Circuit("divider")
        c.vsource("V1", "in", "0", 1.0)
        c.resistor("R1", "in", "mid", 1e3)
        c.resistor("R2", "mid", "0", 1e3)
        return c

    values = np.linspace(0.0, 2.0, 9)
    with stamping("plan"):
        sweep = dc_sweep(build(), "V1", values)
    # The Newton attempt carries a 1e-12 gmin to ground, loading the 1 kOhm
    # divider by ~5e-10 relative — solver physics, not a plan artifact.
    np.testing.assert_allclose(sweep.v("mid"), values / 2.0, rtol=1e-8, atol=1e-12)
    with stamping("legacy"):
        sweep_l = dc_sweep(build(), "V1", values)
    np.testing.assert_allclose(sweep.solutions, sweep_l.solutions,
                               rtol=1e-10, atol=1e-13)


def test_optimizer_history_matches_legacy():
    """End to end: identical optimizer histories through the EvalEngine."""
    from repro.baselines import RandomSearch

    problem_legacy = FoldedCascodeOTA().problem()
    with stamping("legacy"):
        hist_l = RandomSearch(problem_legacy, budget=4, seed=3,
                              engine=EvalEngine()).run()
    problem_plan = FoldedCascodeOTA().problem()
    with stamping("plan"):
        hist_p = RandomSearch(problem_plan, budget=4, seed=3,
                              engine=EvalEngine()).run()
    np.testing.assert_array_equal(np.asarray(hist_p.X), np.asarray(hist_l.X))
    np.testing.assert_allclose(np.asarray(hist_p.F), np.asarray(hist_l.F),
                               rtol=1e-7, atol=1e-12)


def test_operating_point_lookups_match_scan():
    """device_map-backed accessors agree with a manual netlist scan."""
    fc = FoldedCascodeOTA()
    amp = fc.build(fc.nominal())
    op = operating_point(amp, nodeset=fc._nodeset())
    compiled = op.compiled

    from repro.spice.devices.mosfet import MOSFET
    from repro.spice.devices.sources import VoltageSource

    scan_ops = {dev.name: dev.operating_point(op.x, idx)
                for dev, idx in compiled.devices_with_indices()
                if isinstance(dev, MOSFET)}
    fast_ops = op.mosfet_ops()
    assert set(fast_ops) == set(scan_ops)
    for name in scan_ops:
        assert fast_ops[name].ids == scan_ops[name].ids
        assert op.mosfet_op(name).gm == scan_ops[name].gm

    for dev, idx in compiled.devices_with_indices():
        if isinstance(dev, VoltageSource):
            expected = -dev.voltage_at(None) * op.x[idx.branches[0]]
            assert op.source_power(dev.name) == expected
    with pytest.raises(KeyError):
        op.mosfet_op("VDD")          # exists but is not a MOSFET
    with pytest.raises(KeyError):
        op.source_power("M1")        # exists but is not a voltage source
    with pytest.raises(KeyError):
        op.mosfet_op("NOPE")


def test_engine_hotpath_report_accumulates():
    problem = FoldedCascodeOTA().problem()
    engine = EvalEngine()
    x = np.array([FoldedCascodeOTA().nominal()[n] for n in problem.space.names])
    engine.evaluate_batch(problem, x[None, :])
    report = engine.hotpath_report()
    assert report["n_sim_calls"] == 1
    assert report["newton_iterations"] > 0
    assert report["assemble_s"] > 0
    assert report["solve_s"] > 0
    assert report["ac_solves"] > 0
    assert report["dispatch_s"] >= report["assemble_s"]
    assert report["overhead_s"] >= 0.0


# ----------------------------------------------------------------------
# Bit-exact oracle: the batch before the one-evaluation-per-iterate memo and
# the index+sign gathers, copied verbatim.  The plan must reproduce it to the
# last bit (np.array_equal, not allclose): the transient hot path promises
# the same floating-point operations, only fewer of them.
# ----------------------------------------------------------------------
class _ReferenceMOSFETBatch:
    """Vectorized square-law model + stamps for the exact-class MOSFETs.

    Mirrors ``MOSFET._ids``/``terminal_current``/``_capacitances`` term by
    term so plan and legacy paths agree to summation-order rounding.
    """

    def __init__(self, entries, size: int):
        self.n = len(entries)
        devices = [dev for dev, _ in entries]
        idx = np.array([e.nodes for _, e in entries], dtype=np.intp)  # (n, 4)
        self.idx = idx
        self.gather = np.where(idx < 0, size, idx)  # -1 -> augmented zero slot
        models = [dev.model for dev in devices]
        self.sign = np.array([1.0 if m.polarity == "n" else -1.0 for m in models])
        self.k = np.array([dev._k for dev in devices])
        self.lam = np.array([dev._lam for dev in devices])
        self.vto = np.array([m.vto for m in models])
        self.gamma = np.array([m.gamma for m in models])
        self.phi = np.array([m.phi for m in models])
        self.sqrt_phi = np.sqrt(self.phi)
        self.smooth = np.array([m.smooth for m in models])
        # Capacitance building blocks (constant per device).
        self.cox_total = np.array([m.cox * d.w * d.l * d.m for m, d in zip(models, devices)])
        self.ovl_s = np.array([m.cgso * d.w * d.m for m, d in zip(models, devices)])
        self.ovl_d = np.array([m.cgdo * d.w * d.m for m, d in zip(models, devices)])
        self.cj_diff = np.array([m.cj * d.w * 3.0 * m.lref * d.m
                                 for m, d in zip(models, devices)])

        # Static scatter: rows (d, s) x cols (d, g, s, b), then residual (d, s).
        rows = np.repeat(idx[:, [0, 2]], 4, axis=1)            # d d d d s s s s
        cols = np.tile(idx, (1, 2))                            # d g s b d g s b
        self.jac_sel, self.jac_idx = _flat_scatter(rows, cols, size)
        self.res_sel, self.res_idx = _flat_res_scatter(idx[:, [0, 2]])

        # Meyer capacitor pairs (g,s) (g,d) (g,b) (d,b) (s,b).
        pairs = MOSFET._CAP_PAIRS
        self.pair_a_cols = np.array([p[0] for p in pairs])
        self.pair_b_cols = np.array([p[1] for p in pairs])
        pa = idx[:, self.pair_a_cols]                          # (n, 5)
        pb = idx[:, self.pair_b_cols]
        prow = np.stack([pa, pa, pb, pb], axis=2)              # (n, 5, 4)
        pcol = np.stack([pa, pb, pa, pb], axis=2)
        self.pjac_sel, self.pjac_idx = _flat_scatter(prow, pcol, size)
        self.pres_sel, self.pres_idx = _flat_res_scatter(np.stack([pa, pb], axis=2))

    # -- model evaluation ------------------------------------------------
    def evaluate(self, xg: np.ndarray):
        """Terminal currents, derivatives, and region data for every device."""
        v = xg[self.gather]                                    # (n, 4)
        nv = self.sign[:, None] * v
        nvd, nvg, nvs, nvb = nv[:, 0], nv[:, 1], nv[:, 2], nv[:, 3]
        fwd = nvd >= nvs
        vgs = np.where(fwd, nvg - nvs, nvg - nvd)
        vds = np.where(fwd, nvd - nvs, nvs - nvd)
        vsb = np.where(fwd, nvs - nvb, nvd - nvb)

        arg = np.maximum(self.phi + vsb, 0.05)
        sq = np.sqrt(arg)
        vth = self.vto + self.gamma * (sq - self.sqrt_phi)
        dvth = np.where((self.phi + vsb < 0.05) | (self.gamma == 0.0),
                        0.0, self.gamma / (2.0 * sq))

        delta = self.smooth
        vov = vgs - vth
        s = np.sqrt(vov * vov + 4.0 * delta * delta)
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

        did_dvdse = self.k * clm * (vov_eff - vdse)
        did_dvov = self.k * clm * vdse + did_dvdse * dvdse_dvdsat
        did_dvgs = did_dvov * dvov_eff
        did_dvds = self.k * self.lam * f + did_dvdse * dvdse_dvds
        did_dvsb = -did_dvov * dvov_eff * dvth

        signed = self.sign * ids
        current = np.where(fwd, signed, -signed)
        # Terminal derivatives wrt (vd, vg, vs, vb); polarity signs cancel.
        # The reverse orientation is a signed permutation of the forward one:
        # (dg+dd-db, -dg, -dd, db) == -(fwd[2], fwd[1], fwd[0], fwd[3]).
        forward = np.stack([did_dvds, did_dvgs,
                            -did_dvgs - did_dvds + did_dvsb, -did_dvsb], axis=1)
        derivs = np.where(fwd[:, None], forward, -forward[:, [2, 1, 0, 3]])
        return current, derivs, vov, vds, vdsat, ~fwd

    def static_values(self, xg: np.ndarray):
        current, derivs, *_ = self.evaluate(xg)
        jac = np.concatenate([derivs, -derivs], axis=1).ravel()[self.jac_sel]
        res = np.stack([current, -current], axis=1).ravel()[self.res_sel]
        return jac, res

    def capacitances(self, xg: np.ndarray) -> np.ndarray:
        """Meyer capacitances (n, 5) at the given node voltages."""
        _, _, vov, vds, vdsat, reverse = self.evaluate(xg)
        cutoff = vov < 0.0
        saturation = ~cutoff & (vds >= vdsat)
        cgs = np.where(cutoff, self.ovl_s,
                       np.where(saturation, (2.0 / 3.0) * self.cox_total + self.ovl_s,
                                0.5 * self.cox_total + self.ovl_s))
        cgd = np.where(cutoff | saturation, self.ovl_d,
                       0.5 * self.cox_total + self.ovl_d)
        cgb = np.where(cutoff, self.cox_total, 0.0)
        cgs, cgd = (np.where(reverse, cgd, cgs), np.where(reverse, cgs, cgd))
        return np.stack([cgs, cgd, cgb, self.cj_diff, self.cj_diff], axis=1)

    def pair_voltages(self, xg: np.ndarray) -> np.ndarray:
        v = xg[self.gather]
        return v[:, self.pair_a_cols] - v[:, self.pair_b_cols]

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


def _reference_step(plan, ref, state, dt, method, gmin=1e-12):
    """J_step/c_step as ``StampPlan.begin_step`` built them before (verbatim
    companion expressions; the capacitor selections rebuilt as its init did)."""
    J = plan._J_lin.copy()
    c = plan._c_lin.copy()
    J.ravel()[plan._diag_flat] += gmin
    J_flat = J.ravel()
    geq, ieq = ref.companions(state.mos_caps, state.mos_v, state.mos_i, dt, method)
    np.add.at(J_flat, ref.pjac_idx,
              (geq[:, :, None] * _PAIR_SIGNS).ravel()[ref.pjac_sel])
    np.add.at(c, ref.pres_idx,
              (ieq[:, :, None] * _RES_SIGNS).ravel()[ref.pres_sel])
    caps = plan._caps
    a, b = caps.gather[:, 0], caps.gather[:, 1]
    a, b = np.where(a == plan.size, -1, a), np.where(b == plan.size, -1, b)
    jac_sel, _ = _flat_scatter(np.stack([a, a, b, b], axis=1),
                               np.stack([a, b, a, b], axis=1), plan.size)
    res_sel, _ = _flat_res_scatter(np.stack([a, b], axis=1))
    geq, ieq = caps.companions(state.cap_v, state.cap_i, dt, method)
    np.add.at(J_flat, caps.jac_idx,
              (geq[:, None] * _PAIR_SIGNS).ravel()[jac_sel])
    np.add.at(c, caps.res_idx,
              (ieq[:, None] * _RES_SIGNS).ravel()[res_sel])
    return J, c


_NMOS_NO_BODY = MOSModel("nmos_nobody", "n", kp=250e-6, vto=0.4, lam=0.07, gamma=0.0)
_PMOS_NO_BODY = MOSModel("pmos_nobody", "p", kp=90e-6, vto=0.42, lam=0.09, gamma=0.0)
#: devices with four private nodes: the region strategy steers each of them.
_FREE_DEVICES = ("MN", "MP", "MN0", "MP0")


def _oracle_circuit():
    """Every MOSFET flavour the batch folds together: both polarities, body
    effect on and off, and each terminal tied to ground somewhere."""
    c = Circuit("mos_oracle")
    c.mosfet("MN", "dn", "gn", "sn", "bn", NMOS_180, 4e-6, 0.5e-6)
    c.mosfet("MP", "dp", "gp", "sp", "bp", PMOS_180, 8e-6, 0.6e-6, m=2)
    c.mosfet("MN0", "dn0", "gn0", "sn0", "bn0", _NMOS_NO_BODY, 3e-6, 0.4e-6)
    c.mosfet("MP0", "dp0", "gp0", "sp0", "bp0", _PMOS_NO_BODY, 5e-6, 0.5e-6)
    c.mosfet("MSB", "dn", "gp", "0", "0", NMOS_7, 1e-6, 0.05e-6, m=3)   # s, b grounded
    c.mosfet("MD", "0", "gn", "sp", "bp", PMOS_180, 2e-6, 0.5e-6)       # drain grounded
    c.mosfet("MG", "dp0", "0", "sn0", "0", NMOS_180, 6e-6, 0.5e-6)      # gate, bulk grounded
    c.capacitor("C1", "dn", "dp", 5e-15)
    c.capacitor("C2", "sn", "0", 7e-15)
    return c


def _oracle_plan():
    compiled = _oracle_circuit().compile()
    plan = compiled.plan()
    entries = [(dev, idx) for dev, idx in compiled.devices_with_indices()
               if type(dev) is MOSFET]
    return compiled, plan, _ReferenceMOSFETBatch(entries, compiled.size)


def _steer(compiled, x, name, region, reverse, base, vsb, a, b):
    """Write node voltages putting device ``name`` in ``region``.

    Voltages are built in the normalized (polarity-folded) orientation and
    mapped back with the polarity sign; ``reverse`` puts the higher
    normalized potential on the source terminal.  ``a`` and ``b`` in
    [0.05, 1] set the margins from the region boundaries.
    """
    dev, idx = compiled.device_map[name]
    model = dev.model
    vth = model.vto + model.gamma * (np.sqrt(model.phi + vsb) - np.sqrt(model.phi))
    if region == "cutoff":
        vgs, vds = vth - 0.1 - a, 0.05 + 1.5 * b
    elif region == "triode":
        vgs = vth + 0.3 + a
        vds = (0.05 + 0.4 * b) * (vgs - vth)
    else:
        vgs = vth + 0.1 + a
        vds = (vgs - vth) + 0.2 + b
    lo, hi = base, base + vds
    nv = {"g": lo + vgs, "b": lo - vsb,
          "d": lo if reverse else hi, "s": hi if reverse else lo}
    sign = 1.0 if model.polarity == "n" else -1.0
    for terminal, node in zip("dgsb", idx.nodes):
        x[node] = sign * nv[terminal]


_REGION = st.sampled_from(["cutoff", "triode", "saturation"])
_UNIT = st.floats(0.05, 1.0)
_VOLT = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _oracle_voltages(draw):
    """Random node voltages; the free devices optionally steered per region."""
    compiled, _, _ = _oracle_plan()
    x = np.array(draw(st.lists(_VOLT, min_size=compiled.size, max_size=compiled.size)))
    for name in _FREE_DEVICES:
        if draw(st.booleans()):
            _steer(compiled, x, name, draw(_REGION), draw(st.booleans()),
                   draw(st.floats(-1.0, 2.0)), draw(st.floats(0.0, 1.2)),
                   draw(_UNIT), draw(_UNIT))
    return x


def _assert_batch_matches_reference(x, x_next):
    compiled, plan, ref = _oracle_plan()
    mos = plan._mos
    xg = np.append(x, 0.0)
    for new, old in zip(mos.evaluate(xg), ref.evaluate(xg)):
        assert np.array_equal(new, old)
        assert new.shape == old.shape
    for new, old in zip(mos.static_values(xg), ref.static_values(xg)):
        assert np.array_equal(new, old)
    assert np.array_equal(mos.capacitances(xg), ref.capacitances(xg))
    assert np.array_equal(mos.pair_voltages(xg), ref.pair_voltages(xg))

    # Transient: state at x, advanced to x_next, then both integration
    # methods' step bakes against the verbatim companion expressions.
    state = plan.init_transient(x)
    dt = 1e-10
    plan.advance(state, x_next, dt, "trapezoidal")
    xg_next = np.append(x_next, 0.0)
    assert np.array_equal(state.mos_caps, ref.capacitances(xg_next))
    assert np.array_equal(state.mos_v, ref.pair_voltages(xg_next))
    for method in ("trapezoidal", "backward_euler"):
        plan.begin_step(state, 2 * dt, dt, method)
        J_ref, c_ref = _reference_step(plan, ref, state, dt, method)
        assert np.array_equal(plan._J_step, J_ref)
        assert np.array_equal(plan._c_step, c_ref)

        # And one Newton assembly inside that step, against the reference
        # static stamps scattered the same way.
        sys = plan.assemble_transient(x_next)
        J = J_ref.copy()
        f = J_ref @ x_next + c_ref
        jac, res = ref.static_values(xg_next)
        np.add.at(J.ravel(), ref.jac_idx, jac)
        np.add.at(f, ref.res_idx, res)
        assert np.array_equal(sys.J, J)
        assert np.array_equal(sys.f, f)


@settings(max_examples=60, deadline=None)
@given(_oracle_voltages(), _oracle_voltages())
def test_mosfet_batch_bit_identical_to_reference(x, x_next):
    _assert_batch_matches_reference(x, x_next)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("region", ["cutoff", "triode", "saturation"])
def test_mosfet_batch_bit_identical_in_every_region(region, reverse):
    """Each (region, orientation) pair is reached, on body-effect and
    gamma == 0 devices of both polarities."""
    compiled, _, ref = _oracle_plan()
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 2.5, compiled.size)
    x_next = rng.uniform(-1.0, 2.5, compiled.size)
    for name in _FREE_DEVICES:
        _steer(compiled, x, name, region, reverse, 0.3, 0.4, 0.5, 0.5)
    _, _, vov, vds, vdsat, rev = ref.evaluate(np.append(x, 0.0))
    names = [dev.name for dev, _ in compiled.devices_with_indices()
             if type(dev) is MOSFET]
    for name in _FREE_DEVICES:
        i = names.index(name)
        got = ("cutoff" if vov[i] < 0.0 else
               "saturation" if vds[i] >= vdsat[i] else "triode")
        assert (got, bool(rev[i])) == (region, reverse), name
    _assert_batch_matches_reference(x, x_next)


def test_settling_transient_evaluates_the_model_once_per_newton_iterate(monkeypatch):
    """The accepted point a step's state advances from is the next step's
    first Newton iterate; the memo makes that one model computation, so a
    transient without step halving computes the model exactly
    (Newton iterations + 1) times — the +1 is the initial state."""
    counts = {"model": 0, "iterations": 0, "failed": 0}
    model = plan_module._MOSFETBatch._model
    init_transient = plan_module.StampPlan.init_transient
    newton_solve = tran_module.newton_solve

    def counting_model(self, xg):
        counts["model"] += 1
        return model(self, xg)

    def counting_init(self, x):
        counts["model"] = 0          # the DC operating point is not counted
        return init_transient(self, x)

    def counting_newton(*args, **kwargs):
        result = newton_solve(*args, **kwargs)
        counts["iterations"] += result.iterations
        counts["failed"] += not result.converged
        return result

    monkeypatch.setattr(plan_module._MOSFETBatch, "_model", counting_model)
    monkeypatch.setattr(plan_module.StampPlan, "init_transient", counting_init)
    monkeypatch.setattr(tran_module, "newton_solve", counting_newton)
    fc = FoldedCascodeOTA()
    buffer_tb = fc.build(fc.nominal(), feedback=True, step_input=True)
    with stamping("plan"):
        tran = transient(buffer_tb, fc.tran_step, 20e-9 + fc.settle_window,
                         ics=fc._nodeset())
    steps = len(tran.t) - 1
    assert counts["failed"] == 0                     # no step halving
    assert counts["iterations"] > steps
    assert counts["model"] == counts["iterations"] + 1


def test_memoized_model_outputs_are_read_only():
    compiled, plan, _ = _oracle_plan()
    mos = plan._mos
    xg = np.append(np.linspace(-0.5, 1.8, compiled.size), 0.0)
    first = mos.evaluate(xg)
    for arr in first:
        with pytest.raises(ValueError):
            arr[...] = 0
    assert mos.evaluate(xg) is first
    # The key is a copy of the bits: editing the caller's buffer in place
    # (the plan reuses one) is a new point, not a stale hit.
    xg[0] += 0.25
    second = mos.evaluate(xg)
    assert second is not first
    assert not np.array_equal(second[0], first[0])
