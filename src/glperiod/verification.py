"""Randomized spot-check batteries for the operator estimates.

Each battery draws reproducible random fields (frequency-space complex
Gaussian amplitudes under a radial envelope, masked by the relevant cutoff
and odd-symmetrized where required), measures the ratio of the two sides of
an inequality, and reports the fitted constant = the worst observed ratio.
A battery passes when its fitted constant is finite (threshold batteries,
like projection completeness, pass against a fixed tolerance instead).

Per-sample seeds derive from the root seed via numpy's SeedSequence.spawn,
so reports are bit-reproducible for a fixed seed and grid. Samples are drawn
in order and evaluated in bounded stacks through the stacked norms of
`norms`, so a battery's memory does not grow with its sample count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .manifest import strict_json
from .norms import (NormSuite, _lp_node, _node_l2, _weighted_sq, l1w_node,
                    weighted_hk_node_sq, x_gradient_node_sq, z_norm)
from .operators import CutoffSpec, LinearOperatorSpec, period_inverse_symbol
from .periodic_solver import _cubic_difference_data
from .spectral import FieldSeries, Grid, Series

COMPLETENESS_TOL = 1e-14
STACK_SAMPLES = 16  # sample fields a battery evaluates at once


@dataclass
class CheckReport:
    check_name: str
    samples: int
    worst_ratio: float
    fitted_constant: float
    passed: bool
    extras: dict = field(default_factory=dict)


def reports_to_json(reports: list[CheckReport]) -> str:
    return strict_json([asdict(r) for r in reports])


def sample_rngs(seed: int, samples: int) -> list[np.random.Generator]:
    """Documented seed-splitting rule: SeedSequence(seed).spawn(samples)."""
    children = np.random.SeedSequence(seed).spawn(samples)
    return [np.random.default_rng(c) for c in children]


def _band_envelope(grid: Grid, band: str, cutoffs: CutoffSpec) -> np.ndarray:
    """Radial envelope of a battery's random fields, computed once per battery.

    band 'low' masks by chi1 (support |xi| <= r_inf), 'high' by chi_inf
    (support |xi| >= r1), 'full' applies a broad envelope only.
    """
    if band == "low":
        return np.exp(-((grid.xi_abs / cutoffs.r_inf) ** 2)) * cutoffs.chi1
    if band == "high":
        return np.exp(-((grid.xi_abs / (4.0 * cutoffs.r1)) ** 2)) * cutoffs.chi_inf
    if band == "full":
        return np.exp(-((grid.xi_abs / (2.0 * cutoffs.r_inf)) ** 2))
    raise ValueError(f"unknown band {band!r}")


def _band_data(grid: Grid, rng: np.random.Generator, envelope: np.ndarray) -> np.ndarray:
    """Random frequency-space field with unit L2 norm under a precomputed
    envelope. The Nyquist rows are always zeroed."""
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data = data * envelope * grid.keep_nyquist_free
    norm = np.sqrt((data.real ** 2 + data.imag ** 2).sum() * grid.parseval_factor)
    if norm > 0:
        data = data / norm
    return data


def _fitted_battery_report(name: str, ratios: list[float], extras: dict) -> CheckReport:
    if not ratios:
        raise ValueError(f"{name}: zero-sample battery")
    fitted = float(max(ratios))
    passed = math.isfinite(fitted)
    worst = 1.0 if fitted > 0 else 0.0  # ratios normalized by the fitted constant
    return CheckReport(check_name=name, samples=len(ratios), worst_ratio=worst,
                       fitted_constant=fitted, passed=passed, extras=extras)


def _batches(seed: int, samples: int) -> list[list[np.random.Generator]]:
    """sample_rngs(seed, samples) in consecutive lists of STACK_SAMPLES."""
    rngs = sample_rngs(seed, samples)
    return [rngs[i:i + STACK_SAMPLES] for i in range(0, samples, STACK_SAMPLES)]


def _band_stack(grid: Grid, batch, envelope: np.ndarray) -> np.ndarray:
    return np.array([_band_data(grid, rng, envelope) for rng in batch])


def check_projection_completeness(grid: Grid, cutoffs: CutoffSpec,
                                  samples: int = 50, seed: int = 0) -> CheckReport:
    """P_low f + P_high f must reproduce f (relative L2, to COMPLETENESS_TOL)."""
    symbol_defect = float(np.abs(cutoffs.chi1 + cutoffs.chi_inf - 1.0).max())
    worst = symbol_defect
    envelope = _band_envelope(grid, "full", cutoffs)
    for batch in _batches(seed, samples):
        f = _band_stack(grid, batch, envelope)
        recombined = cutoffs.chi1 * f + cutoffs.chi_inf * f
        worst = max(worst, float(_node_l2(recombined - f, grid).max()))
    return CheckReport(check_name="projection_completeness", samples=samples,
                       worst_ratio=worst / COMPLETENESS_TOL, fitted_constant=worst,
                       passed=worst <= COMPLETENESS_TOL,
                       extras={"tolerance": COMPLETENESS_TOL, "symbol_defect": symbol_defect})


def check_low_freq_smoothing(op: LinearOperatorSpec, cutoffs: CutoffSpec,
                             samples: int = 200, seed: int = 0) -> CheckReport:
    """(||e^{-tA} u|| + ||d/dt e^{-tA} u||) <= C ||u|| on low-frequency fields,
    t drawn from [0, T]; d/dt realized as multiplication by -lambda. The
    bound_hint is the multiplier's sup over the support of chi1,
    sup |e^{-t lambda}| + |lambda e^{-t lambda}| = 1 + max |lambda| (since
    Re lambda >= 0), which a band-edge mode reaches at t = 0."""
    grid = op.grid
    ratios = []
    envelope = _band_envelope(grid, "low", cutoffs)
    for batch in _batches(seed, samples):
        u = _band_stack(grid, batch, envelope)
        t = np.array([rng.uniform(0.0, op.period) for rng in batch])
        evolved = np.exp(-t.reshape((-1,) + (1,) * grid.dim) * op.symbol) * u
        num = _node_l2(evolved, grid) + _node_l2(-op.symbol * evolved, grid)
        ratios.extend(num / _node_l2(u, grid))
    bound = 1.0 + float(np.abs(op.symbol[cutoffs.chi1 > 0]).max())
    return _fitted_battery_report("low_freq_smoothing", ratios,
                                  {"t_max": op.period, "bound_hint": bound})


def check_period_inverse_bound(op: LinearOperatorSpec, cutoffs: CutoffSpec,
                               samples: int = 200, seed: int = 0) -> CheckReport:
    """(||u|| + || |x| grad u ||) <= C ||F||_{L1_w} where (1 - e^{-TA}) u = F,
    for odd low-frequency dipole mixtures F."""
    grid = op.grid
    from .forcing import gauss_dipole
    inv = period_inverse_symbol(op)
    keep = grid.keep_nyquist_free
    L = grid.box_length

    def dipoles(rng):
        profile = np.zeros(grid.shape, dtype=complex)
        for _ in range(3):
            sigma = rng.uniform(L / 32.0, L / 10.0)
            axis = int(rng.integers(0, grid.dim))
            coeff = rng.standard_normal() + 1j * rng.standard_normal()
            profile += coeff * gauss_dipole(grid, sigma, axis)
        return profile

    ratios = []
    for batch in _batches(seed, samples):
        profiles = np.array([dipoles(rng) for rng in batch])
        f_hat = np.fft.fftn(profiles, axes=grid.series_axes) * cutoffs.chi1 * keep
        f_hat = 0.5 * (f_hat - grid.reflect(f_hat))  # exact lattice oddness
        f_hat[(slice(None),) + (0,) * grid.dim] = 0.0
        u = inv * f_hat * keep
        num = _node_l2(u, grid) + np.sqrt(x_gradient_node_sq(u, grid))
        den = l1w_node(f_hat, grid)
        ratios.extend(num[den > 0] / den[den > 0])
    return _fitted_battery_report(
        "period_inverse_bound", ratios,
        {"dipoles_per_sample": 3, "sigma_range": [L / 32.0, L / 10.0]})


def _high_freq_decay_norms(op: LinearOperatorSpec, cutoffs: CutoffSpec,
                           t_grid: np.ndarray, samples: int, seed: int):
    """||e^{-tA} u||_{H2_w} for t in t_grid, per high-frequency sample u; the
    evolved fields of one sample are one stack."""
    grid = op.grid
    decay = np.exp(-t_grid.reshape((-1,) + (1,) * grid.dim) * op.symbol)
    envelope = _band_envelope(grid, "high", cutoffs)
    for rng in sample_rngs(seed, samples):
        u = _band_data(grid, rng, envelope)
        yield np.sqrt(weighted_hk_node_sq(decay * u, grid, 2)[2])


def check_high_freq_decay(op: LinearOperatorSpec, cutoffs: CutoffSpec,
                          samples: int = 200, seed: int = 0) -> CheckReport:
    """sup_t e^{a t} ||e^{-tA} u||_{H2_w} / ||u||_{H2_w} <= C with a = r1^2/2
    on high-frequency fields, t on 17 uniform times over [0, T]."""
    a = cutoffs.r1 ** 2 / 2.0
    t_grid = np.linspace(0.0, op.period, 17)
    growth = np.exp(a * t_grid)
    ratios = [float((growth * norms / norms[0]).max())  # norms[0]: t = 0, u itself
              for norms in _high_freq_decay_norms(op, cutoffs, t_grid, samples, seed)]
    return _fitted_battery_report(
        "high_freq_decay", ratios, {"decay_rate_a": a, "time_samples": t_grid.size})


def _trajectory_rhs(u_series: FieldSeries, g_series: FieldSeries) -> np.ndarray:
    """F = dealias(|u|^2 u) + g of a solved run, frequency-stacked: the
    right-hand side both trajectory batteries read."""
    F = _cubic_difference_data(None, u_series.data, u_series.grid)
    F += g_series.data
    return F


def check_energy_inequality(u_series: FieldSeries, g_series: FieldSeries,
                            cutoffs: CutoffSpec, rhs: np.ndarray | None = None) -> CheckReport:
    """Dissipation inequality of the high-frequency part along a solved
    trajectory:

        1/2 d/dt ||u_high||_{H2_w}^2 + d ||u_high||_{H3_w}^2 <= C ||F_high||_{H1_w}^2.

    Convention: C is budgeted at twice the zero-dissipation constant (or 1.0
    when the derivative term is nonpositive) and d is the largest value
    admissible under that budget. `rhs` is F when the caller has it.
    """
    grid, U = u_series.grid, u_series.data
    F = _trajectory_rhs(u_series, g_series) if rhs is None else rhs
    _, _, e2_sq, e3_sq = weighted_hk_node_sq(U, grid, 3, cutoffs.chi_inf)
    f1_sq = weighted_hk_node_sq(F, grid, 1, cutoffs.chi_inf)[1]
    if float(e2_sq.max()) == 0.0:
        raise ValueError("degenerate (all-zero) trajectory")

    m_t = u_series.n_steps
    h = u_series.dt
    body = e2_sq[:m_t]
    deriv = (np.roll(body, -1) - np.roll(body, 1)) / (2.0 * h)
    e3b, f1b = e3_sq[:m_t], np.maximum(f1_sq[:m_t], np.finfo(float).tiny)

    c0 = float((0.5 * deriv / f1b).max())
    c_budget = 2.0 * c0 if c0 > 0 else 1.0
    with np.errstate(divide="ignore"):
        d_candidates = (c_budget * f1b - 0.5 * deriv) / np.maximum(e3b, np.finfo(float).tiny)
    d_star = float(d_candidates.min())
    passed = math.isfinite(d_star) and d_star > 0 and math.isfinite(c_budget)
    return CheckReport(check_name="energy_inequality", samples=m_t,
                       worst_ratio=1.0, fitted_constant=c_budget, passed=passed,
                       extras={"d": d_star, "zero_dissipation_constant": c0})


def check_nonlinear_bound(u_series: FieldSeries, g_series: FieldSeries,
                          cutoffs: CutoffSpec, rhs: np.ndarray | None = None,
                          u_z_norm: float | None = None) -> list[CheckReport]:
    """Size of the projected right-hand side against the cubic power of the
    solution norm plus the matching projected forcing norm:

        ||F_low||_{L2(t;L1_w)}  <= C (||u||_Z^3 + ||g_low||_{L2(t;L1_w)}),
        ||F_high||_{L2(t;H1_w)} <= C (||u||_Z^3 + ||g_high||_{L2(t;H1_w)}).

    `rhs` (F) and `u_z_norm` (||u||_Z, as the solve reported it) are computed
    when not given.
    """
    grid, G = u_series.grid, g_series.data
    F = _trajectory_rhs(u_series, g_series) if rhs is None else rhs
    keep = grid.keep_nyquist_free
    h = u_series.dt
    z = z_norm(u_series, cutoffs) if u_z_norm is None else u_z_norm

    def l2t_l1w(data):
        return float(np.sqrt(np.trapezoid(l1w_node(data, grid) ** 2, dx=h)))

    def l2t_h1w(data):
        node_sq = weighted_hk_node_sq(data, grid, 1, cutoffs.chi_inf)[1]
        return float(np.sqrt(np.trapezoid(node_sq, dx=h)))

    lhs_low = l2t_l1w(F * (cutoffs.chi1 * keep))
    g_low = l2t_l1w(G * (cutoffs.chi1 * keep))
    lhs_high = l2t_h1w(F)
    g_high = l2t_h1w(G)

    reports = []
    for name, lhs, g_term in (("nonlinear_bound_low_freq", lhs_low, g_low),
                              ("nonlinear_bound_high_freq", lhs_high, g_high)):
        rhs = z ** 3 + g_term
        c = lhs / rhs if rhs > 0 else float("inf")
        reports.append(CheckReport(
            check_name=name, samples=len(u_series), worst_ratio=1.0,
            fitted_constant=float(c), passed=math.isfinite(c),
            extras={"z_norm": z, "g_term": g_term, "lhs": lhs}))
    return reports


# ---------------------------------------------------------------------------
# Norm-level inequality spot-checks
# ---------------------------------------------------------------------------


def check_bernstein(grid: Grid, cutoffs: CutoffSpec, samples: int = 100,
                    seed: int = 0) -> CheckReport:
    """Low-frequency fields: ||grad f|| <= r_inf ||f|| exactly per mode, and
    ||f||_{L^p} <= C ||f||_{L2} with C measured for p in {3, 6, inf}."""
    grad_ratios = []
    lp_consts = {3: 0.0, 6: 0.0, math.inf: 0.0}
    envelope = _band_envelope(grid, "low", cutoffs)
    for batch in _batches(seed, samples):
        f = _band_stack(grid, batch, envelope)
        phys = np.fft.ifftn(f, axes=grid.series_axes)
        l2 = _lp_node(phys, grid, 2)
        grad = np.sqrt((grid.xi_sq * (f.real ** 2 + f.imag ** 2)).sum(axis=grid.series_axes)
                       * grid.parseval_factor)
        grad_ratios.extend(grad / (cutoffs.r_inf * l2))
        for p in lp_consts:
            lp_consts[p] = max(lp_consts[p], float((_lp_node(phys, grid, p) / l2).max()))
    worst = float(max(grad_ratios))
    fitted = float(lp_consts[math.inf])
    passed = worst <= 1.0 + 1e-12 and all(math.isfinite(v) for v in lp_consts.values())
    return CheckReport(check_name="bernstein_low_freq", samples=samples,
                       worst_ratio=worst, fitted_constant=fitted, passed=passed,
                       extras={"c_l3": lp_consts[3], "c_l6": lp_consts[6],
                               "c_linf": lp_consts[math.inf]})


def check_hardy(grid: Grid, samples: int = 100, seed: int = 0) -> CheckReport:
    """|| f/|x| ||_{L2} <= C ||grad f||_{L2} on smooth fields vanishing at the
    box edge; the origin node is excluded from the quadrature. ||grad f||^2
    is sum xi^2 |f_hat|^2 over the Nyquist-free modes (Parseval)."""
    axes = grid.series_axes
    window = np.exp(-grid.x_abs ** 2 / (2.0 * (grid.box_length / 8.0) ** 2))
    inv_x = np.zeros(grid.shape)
    nonzero = grid.x_abs > 0
    inv_x[nonzero] = 1.0 / grid.x_abs[nonzero]
    envelope = np.exp(-((grid.xi_abs * grid.box_length / (8.0 * np.pi)) ** 2))
    grad_symbol = grid.xi_sq * grid.keep_nyquist_free
    ratios = []
    for batch in _batches(seed, samples):
        raw = np.array([rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                        for rng in batch])
        f_phys = np.fft.ifftn(raw * envelope * grid.keep_nyquist_free, axes=axes) * window
        f_hat = np.fft.fftn(f_phys, axes=axes)
        num_sq = ((np.abs(f_phys) * inv_x) ** 2).sum(axis=axes) * grid.quad_weight
        grad_sq = ((grad_symbol * (f_hat.real ** 2 + f_hat.imag ** 2)).sum(axis=axes)
                   * grid.parseval_factor)
        ratios.extend(np.sqrt(num_sq[grad_sq > 0] / grad_sq[grad_sq > 0]))
    return _fitted_battery_report("hardy_inequality", ratios,
                                  {"origin_node_excluded": True})


def check_high_freq_weighted_poincare(grid: Grid, cutoffs: CutoffSpec,
                                      samples: int = 100, seed: int = 0) -> CheckReport:
    """High-frequency fields: (r1^2/2) || |x| f ||^2 <= || |x| grad f ||^2 + C ||f||^2
    with C measured as the worst deficit."""
    suite = NormSuite.for_grid(grid)
    consts = []
    envelope = _band_envelope(grid, "high", cutoffs)
    for batch in _batches(seed, samples):
        f = _band_stack(grid, batch, envelope)
        phys = np.fft.ifftn(f, axes=grid.series_axes)
        x_f_sq = _weighted_sq(phys, suite.flat("x_abs_sq"))
        deficit = np.maximum(0.0, (cutoffs.r1 ** 2 / 2.0) * x_f_sq - x_gradient_node_sq(f, grid))
        consts.extend(deficit / _weighted_sq(phys, suite.flat("quad")))
    return _fitted_battery_report("high_freq_weighted_poincare", consts,
                                  {"r1": cutoffs.r1})


def run_all_checks(grid: Grid, op: LinearOperatorSpec, cutoffs: CutoffSpec,
                   samples: int = 200, seed: int = 0,
                   u_series: Series | None = None,
                   g_series: Series | None = None,
                   u_z_norm: float | None = None) -> list[CheckReport]:
    """The full battery set; trajectory checks run only when a solved run is
    supplied, sharing one right-hand side F (and the solve's reported
    `u_z_norm`, computed when None). Sub-seeds are decorrelated by fixed
    offsets from the root. u_series and g_series are read by frequency_rows
    (spectral.Series) and expanded once for the batteries (the verify grid
    is small)."""
    ineq_samples = max(20, samples // 2)
    reports = [
        check_projection_completeness(grid, cutoffs, max(20, samples // 4), seed),
        check_low_freq_smoothing(op, cutoffs, samples, seed + 1),
        check_period_inverse_bound(op, cutoffs, samples, seed + 2),
        check_high_freq_decay(op, cutoffs, max(20, samples // 4), seed + 3),
        check_bernstein(grid, cutoffs, ineq_samples, seed + 4),
        check_hardy(grid, ineq_samples, seed + 5),
        check_high_freq_weighted_poincare(grid, cutoffs, ineq_samples, seed + 6),
    ]
    if u_series is not None and g_series is not None:
        u_series, g_series = (FieldSeries(grid, s.frequency_rows(slice(None)), s.period)
                              for s in (u_series, g_series))
        rhs = _trajectory_rhs(u_series, g_series)
        reports.append(check_energy_inequality(u_series, g_series, cutoffs, rhs))
        reports.extend(check_nonlinear_bound(u_series, g_series, cutoffs, rhs, u_z_norm))
    return reports
