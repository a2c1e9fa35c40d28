"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line; run with
`pytest tests/test_acceptance.py -v` (add -s to see the detail lines). The
pinned desk-scale experiment is dim 3, n = 32, L = 64, T = 1, eps = 1e-2,
m_t = 64; criteria that allow smaller grids use n = 16 boxes with the same
auto-cutoff regime T * r_inf^2 ~ 0.617.
"""

import numpy as np
import pytest

import glperiod as gl
from glperiod import (CutoffSpec, FieldSeries, ForcingSpec, GridConfig,
                      PerturbationSpec, SolveOptions, StabilityRunConfig)
from glperiod.periodic_solver import _linear_period_map_data
from glperiod.stability import _rhs_data, _rhs_work
from glperiod.verification import check_projection_completeness, run_all_checks
from oracles import (direct_step, exp_step, multiplier_bound, odd_residual,
                     period_inverse_apply, picard_step, project, random_band_field,
                     semigroup_apply, whole_series)

PERIOD = 1.0


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# Shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    """The pinned reference periodic solve (dim 3, n=32, L=64, T=1, eps=1e-2)."""
    grid = gl.make_grid(GridConfig(dim=3, n_per_axis=32, box_length=64.0))
    op = gl.make_operator(grid, PERIOD)
    cutoffs = gl.auto_cutoffs(grid, PERIOD)
    g = gl.realize_forcing(ForcingSpec(amplitude=1e-2, period=PERIOD), grid, 64)
    u, report = gl.solve_periodic(g, op, cutoffs, SolveOptions())
    assert report.converged
    return {"grid": grid, "op": op, "cutoffs": cutoffs, "g": g, "u": u,
            "report": report}


@pytest.fixture(scope="module")
def small3d():
    grid = gl.make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))
    op = gl.make_operator(grid, PERIOD)
    cutoffs = gl.auto_cutoffs(grid, PERIOD)
    return grid, op, cutoffs


# ---------------------------------------------------------------------------
# Criterion 1: operator algebra suite
# ---------------------------------------------------------------------------


def test_criterion_1_operator_algebra():
    worst = {"completeness": 0.0, "semigroup": 0.0, "roundtrip": 0.0, "c_mult": 0.0}
    for dim in (1, 2, 3):
        grid = gl.make_grid(GridConfig(dim=dim, n_per_axis=16,
                                       box_length=32.0))
        op = gl.make_operator(grid, PERIOD)
        cutoffs = gl.auto_cutoffs(grid, PERIOD)
        rng = np.random.default_rng(100 + dim)

        f = random_band_field(grid, rng, "full", cutoffs)
        total = project(f, "low", cutoffs).data + project(f, "high", cutoffs).data
        worst["completeness"] = max(
            worst["completeness"],
            float(np.abs(total - f.data).max() / np.abs(f.data).max()))

        t1, t2 = 0.17, 0.26
        composed = semigroup_apply(semigroup_apply(f, t1, op), t2, op)
        direct = semigroup_apply(f, t1 + t2, op)
        worst["semigroup"] = max(
            worst["semigroup"],
            float(np.abs(composed.data - direct.data).max() / np.abs(direct.data).max()))

        odd = random_band_field(grid, rng, "full", cutoffs, odd=True)
        inv = period_inverse_apply(odd, op)
        forward = (1.0 - np.exp(-op.period * op.symbol)) * inv.data
        nz = grid.xi_sq > 0
        worst["roundtrip"] = max(
            worst["roundtrip"],
            float(np.abs(forward[nz] - odd.data[nz]).max() / np.abs(odd.data).max()))

        c_mult = multiplier_bound(op, cutoffs, samples=512)
        assert np.isfinite(c_mult)
        worst["c_mult"] = max(worst["c_mult"], c_mult)

    ok = (worst["completeness"] <= 1e-14 and worst["semigroup"] <= 1e-12
          and worst["roundtrip"] <= 1e-12 and worst["c_mult"] <= 1.0)
    _report("criterion 1 (operator algebra)", ok,
            f"completeness {worst['completeness']:.2e} <= 1e-14, "
            f"semigroup {worst['semigroup']:.2e} <= 1e-12, "
            f"round trip {worst['roundtrip']:.2e} <= 1e-12, "
            f"C_mult {worst['c_mult']:.4f} <= 1.0")


# ---------------------------------------------------------------------------
# Criterion 2: linear oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_linear_oracle(small3d):
    # u read from the period-map kernel that the linear solve runs: a single
    # mode is not odd, and the solve takes odd forcings only (test_solver runs
    # the same modes as odd pairs through solve_periodic)
    grid, op, _ = small3d
    rng = np.random.default_rng(2024)
    candidates = np.argwhere((grid.xi_sq.ravel() > 0)
                             & ~grid.nyquist_mask.ravel()).ravel()
    worst = 0.0
    for flat in rng.choice(candidates, size=20, replace=False):
        idx = np.unravel_index(flat, grid.shape)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        data = np.zeros((17,) + grid.shape, dtype=complex)
        data[(slice(None),) + idx] = c
        u = _linear_period_map_data(data, op, PERIOD / 16)
        lam = (1 + 1j) * grid.xi_sq[idx]
        err = np.abs(u[(slice(None),) + idx] - c / lam).max() / abs(c / lam)
        worst = max(worst, float(err))
    _report("criterion 2 (linear oracle)", worst <= 1e-10,
            f"20 random modes, worst closed-form error {worst:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# Criterion 3: reference periodic solve
# ---------------------------------------------------------------------------


def test_criterion_3_reference_run(reference):
    grid, op, cutoffs = reference["grid"], reference["op"], reference["cutoffs"]
    report = reference["report"]

    resid = {64: gl.equation_residual(reference["u"], reference["g"], op)}
    for m_t in (32, 128):
        g = gl.realize_forcing(ForcingSpec(amplitude=1e-2, period=PERIOD), grid, m_t)
        u, rep = gl.solve_periodic(g, op, cutoffs, SolveOptions())
        assert rep.converged
        resid[m_t] = gl.equation_residual(u, g, op)
    ratio_a = resid[32] / resid[64]
    ratio_b = resid[64] / resid[128]

    c_values = [report.c_estimate]
    for eps in (1e-3, 3e-3):
        g = gl.realize_forcing(ForcingSpec(amplitude=eps, period=PERIOD), grid, 64)
        _, rep = gl.solve_periodic(g, op, cutoffs, SolveOptions())
        assert rep.converged
        c_values.append(rep.c_estimate)
    c_spread = max(c_values) / min(c_values)

    ok = (report.converged and report.iterations <= 15
          and report.periodicity_residual <= 1e-8
          and 3.0 <= ratio_a <= 5.0 and 3.0 <= ratio_b <= 5.0
          and c_spread < 2.0)
    _report("criterion 3 (reference periodic solve)", ok,
            f"iterations {report.iterations} <= 15, periodicity "
            f"{report.periodicity_residual:.2e} <= 1e-8, residual ratios "
            f"{ratio_a:.2f}, {ratio_b:.2f} in [3,5], c_estimate spread "
            f"{c_spread:.3f}x < 2x")


# ---------------------------------------------------------------------------
# Criterion 4: contraction scaling
# ---------------------------------------------------------------------------


def test_criterion_4_contraction_scaling(small3d):
    grid, op, cutoffs = small3d
    opts = SolveOptions(z_tolerance=1e-30, max_iterations=8)

    def contraction(eps):
        g = gl.realize_forcing(ForcingSpec(amplitude=eps, period=PERIOD), grid, 32)
        _, rep = gl.solve_periodic(g, op, cutoffs, opts)
        assert rep.contraction_factor is not None
        return rep.contraction_factor

    ratios = []
    for eps in (1e-3, 3e-3):
        ratios.append(contraction(2 * eps) / contraction(eps))
    ok = all(abs(r - 4.0) <= 1.2 for r in ratios)
    _report("criterion 4 (contraction scaling)", ok,
            f"factor ratios at 2*eps vs eps: {ratios[0]:.3f}, {ratios[1]:.3f} "
            "within 4 +/- 30%")


# ---------------------------------------------------------------------------
# Criterion 5: perturbation decay
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_decay(reference):
    grid = reference["grid"]
    w0 = gl.realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
    cfg = StabilityRunConfig(t_max=26.0, v_per=reference["u"], w0=w0,
                             record_stride=4, order=2)
    return gl.run_stability(cfg, reference["op"], reference["cutoffs"])


def test_criterion_5_decay_rates(reference_decay):
    decay = reference_decay
    nondecreasing = bool(np.all(np.diff(decay.n_series) >= 0))
    finite = bool(np.all(np.isfinite(decay.n_series)))
    ok = (not decay.escaped
          and -0.9 <= decay.fitted_slope_l0 <= -0.6
          and -1.5 <= decay.fitted_slope_l1 <= -1.0
          and nondecreasing and finite)
    _report("criterion 5 (perturbation decay)", ok,
            f"slope_l0 {decay.fitted_slope_l0:.3f} in [-0.9,-0.6], slope_l1 "
            f"{decay.fitted_slope_l1:.3f} in [-1.5,-1.0], window "
            f"[{decay.fit_window[0]:.3g},{decay.fit_window[1]:.3g}], "
            f"N bounded/nondecreasing {nondecreasing and finite}, "
            f"escaped {decay.escaped}")


# ---------------------------------------------------------------------------
# Criterion 6: oddness conservation
# ---------------------------------------------------------------------------


def test_criterion_6_oddness_conservation(reference):
    grid, op = reference["grid"], reference["op"]
    g, u = whole_series(reference["g"]), whole_series(reference["u"])
    worst = 0.0

    # every iterate of the fixed-point map, from the linear seed
    iterate = FieldSeries(grid, _linear_period_map_data(g.data, op, g.dt), PERIOD)
    for _ in range(3):
        for m in (0, 16, 32, 48, 64):
            worst = max(worst, odd_residual(gl.SpectralField(grid, iterate.data[m])))
        iterate = picard_step(iterate, g, op)
    for m in range(0, 65, 8):
        worst = max(worst, odd_residual(gl.SpectralField(grid, u.data[m])))

    # stability snapshots with odd initial data
    w = gl.realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
    h = PERIOD / 64
    for step in range(64):
        v_now = np.fft.ifftn(u.data[step % 64])
        v_next = np.fft.ifftn(u.data[(step + 1) % 64])
        w = exp_step(w, v_now, h, op, order=2, v_next=v_next)
        if step % 8 == 0:
            worst = max(worst, odd_residual(w))

    _report("criterion 6 (oddness conservation)", worst <= 1e-10,
            f"worst oddness residual over iterates and snapshots {worst:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# Criterion 7: verification batteries
# ---------------------------------------------------------------------------


def test_criterion_7_verification_batteries(small3d):
    grid, op, cutoffs = small3d
    g = gl.realize_forcing(ForcingSpec(amplitude=1e-2, period=PERIOD), grid, 32)
    u, rep = gl.solve_periodic(g, op, cutoffs, SolveOptions())
    assert rep.converged
    reports = run_all_checks(grid, op, cutoffs, samples=200, seed=12345,
                             u_series=u, g_series=g)
    all_pass = all(r.passed for r in reports)
    all_finite = all(np.isfinite(r.fitted_constant) for r in reports)

    band = (cutoffs.chi1 > 0) & (cutoffs.chi1 < 1)
    tampered = cutoffs.chi_inf.copy()
    tampered[band] += 1e-3
    bad = CutoffSpec(r1=cutoffs.r1, r_inf=cutoffs.r_inf, chi1=cutoffs.chi1,
                     chi_inf=tampered)
    fault = check_projection_completeness(grid, bad, samples=20, seed=12345)

    ok = all_pass and all_finite and not fault.passed
    names = ", ".join(f"{r.check_name}={r.fitted_constant:.3g}" for r in reports)
    _report("criterion 7 (verification batteries)", ok,
            f"all {len(reports)} batteries pass with finite constants "
            f"({names}); tampered cutoff fails completeness: {not fault.passed}")


# ---------------------------------------------------------------------------
# Criterion 8: perturbation-equation identity
# ---------------------------------------------------------------------------


def test_criterion_8_perturbation_identity(reference, small3d):
    grid16, _, _ = small3d
    rng = np.random.default_rng(88)
    worst_identity = 0.0
    for _ in range(100):
        w, v = (rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
                for _ in range(2))
        out = _rhs_data(w, v, np.empty_like(w), _rhs_work(grid16.shape))
        vw = v + w
        direct = vw * np.abs(vw) ** 2 - v * np.abs(v) ** 2
        worst_identity = max(worst_identity,
                             float(np.abs(out - direct).max() / np.abs(direct).max()))

    # direct integration of the full flow against base + perturbation over
    # 10 periods at the reference resolution
    grid, op = reference["grid"], reference["op"]
    v_per = whole_series(reference["u"])
    g_freq = whole_series(reference["g"])
    m_t = v_per.n_steps
    h = PERIOD / m_t
    w = gl.realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
    u = gl.SpectralField(grid, v_per.data[0] + w.data)
    v_phys = [np.fft.ifftn(v_per.data[m]) for m in range(m_t)]
    sup_err = 0.0
    for step in range(10 * m_t):
        n_now, n_next = step % m_t, (step + 1) % m_t
        w = exp_step(w, v_phys[n_now], h, op, order=2, v_next=v_phys[n_next])
        u = direct_step(u, *(gl.SpectralField(grid, g_freq.data[n]) for n in (n_now, n_next)),
                        h, op, order=2)
        err = np.sqrt(np.sum(np.abs(v_per.data[n_next] + w.data - u.data) ** 2)
                      * grid.parseval_factor)
        sup_err = max(sup_err, float(err))

    ok = worst_identity <= 1e-12 and sup_err <= 1e-6
    _report("criterion 8 (perturbation identity)", ok,
            f"identity on 100 pairs {worst_identity:.2e} <= 1e-12; "
            f"direct-vs-perturbation over 10 periods {sup_err:.2e} <= 1e-6")
