"""Time-periodic solver: exponential Duhamel quadrature, the period-map
representation of the unique periodic linear response, and the fixed-point
iteration on the cubic nonlinearity.

Per mode with symbol lambda, the periodic response to a forcing series F is

    u(t_m) = e^{-t_m lambda} (1 - e^{-T lambda})^{-1} I(T) + I(t_m),
    I(t)   = int_0^t e^{-(t-s) lambda} F(s) ds,

with I evaluated exactly against the piecewise-linear interpolant of F via
phi-functions: over one step of size h,

    I(t_{m+1}) = e^{-h lambda} I(t_m) + h (phi1 - phi2)(-h lambda) F_m
                                      + h phi2(-h lambda) F_{m+1},

which is stiffly accurate (exact for per-mode constant F). The nonlinear
iteration maps u to the periodic response of dealias(|u|^2 u) + g and stops
when the Z-norm of successive iterates is below tolerance.

The series kernels run on the shared thread pool of spectral.map_chunks:
the cubic terms with one task per chunk of time nodes, the period map with
one task per slab of the first spatial axis (modes are independent; only
the recurrence over time nodes is sequential). Each task writes its own
rows or slab of a preallocated output, so results do not depend on the
number of workers; one map runs at most spectral.IN_FLIGHT tasks at once,
so a kernel's temporaries do not grow with the pool.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteField
from .norms import _node_l2, forcing_bracket, z_norm
from .operators import (CutoffSpec, LinearOperatorSpec, check_zero_mode,
                        period_inverse_symbol)
from .phi import phi1, phi2
from .spectral import FREQUENCY, FieldSeries, SpectralField, map_chunks, node_chunks


@dataclass
class SolveOptions:
    max_iterations: int = 50
    z_tolerance: float = 1e-10
    m_t: int = 64
    zero_mode_tol: float = 1e-10
    nonlinearity_enabled: bool = True

    def __post_init__(self):
        if self.m_t < 8:
            raise ValueError("m_t must be >= 8")
        if not self.z_tolerance > 0 or not self.zero_mode_tol > 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class PeriodicSolveReport:
    converged: bool
    iterations: int
    residual_history: list[float]
    periodicity_residual: float
    z_norm: float
    g_bracket: float
    c_estimate: float | None
    contraction_factor: float | None
    diverged: bool = False
    divergence_reason: str | None = None
    contraction_factor_reason: str | None = None  # why contraction_factor is None

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "periodicity_residual": self.periodicity_residual,
            "z_norm": self.z_norm,
            "g_bracket": self.g_bracket,
            "c_estimate": self.c_estimate,
            "contraction_factor": self.contraction_factor,
            "contraction_factor_reason": self.contraction_factor_reason,
            "diverged": self.diverged,
            "divergence_reason": self.divergence_reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _step_coefficients(op: LinearOperatorSpec, h: float):
    """Per-mode decay factor and phi-quadrature weights for step size h."""
    z = -h * op.symbol
    decay = np.exp(z)
    p1 = phi1(z)
    p2 = phi2(z)
    return decay, h * (p1 - p2), h * p2


def _integrate_into(out: np.ndarray, F: np.ndarray, decay, a, b) -> np.ndarray:
    """out[m] = I(t_m), m = 0..len(out) - 1, via the stiff-exact recurrence."""
    out[0] = 0.0
    for m in range(out.shape[0] - 1):
        out[m + 1] = decay * out[m] + a * F[m] + b * F[m + 1]
    return out


def _prefix_integrals(F: np.ndarray, op: LinearOperatorSpec, h: float,
                      upto: int | None = None) -> np.ndarray:
    """I(t_m) for m = 0..upto via the stiff-exact recurrence."""
    m_max = F.shape[0] - 1 if upto is None else upto
    out = np.empty((m_max + 1,) + F.shape[1:], dtype=complex)
    return _integrate_into(out, F, *_step_coefficients(op, h))


def duhamel_integral(F: FieldSeries, t_index: int, op: LinearOperatorSpec) -> SpectralField:
    """int_0^{t_index h} e^{-(t-s)A} F(s) ds with F piecewise linear in time."""
    if not 0 <= t_index <= F.n_steps:
        raise IndexError(f"t_index {t_index} out of range 0..{F.n_steps}")
    data = F.to_frequency().data
    I = _prefix_integrals(data, op, F.dt, upto=t_index)
    return SpectralField(F.grid, FREQUENCY, I[t_index])


def periodic_initial_data(F: FieldSeries, op: LinearOperatorSpec,
                          zero_mode_tol: float = 1e-10) -> SpectralField:
    """u(0) = (1 - e^{-TA})^{-1} int_0^T e^{-(T-s)A} F(s) ds."""
    data = F.to_frequency().data
    check_zero_mode(data, zero_mode_tol)
    I_T = _prefix_integrals(data, op, F.dt)[F.n_steps]
    u0 = period_inverse_symbol(op) * I_T
    u0 = u0 * F.grid.keep_nyquist_free
    return SpectralField(F.grid, FREQUENCY, u0)


_SLAB_PLANES = 8  # first-axis planes per period-map task


def _decay_table(op: LinearOperatorSpec, h: float, m_t: int):
    """e^{-m h lambda}, m = 0..m_t, as (values, index) with values[m][index]
    the table at node m: only the symbol's distinct values (827 of 32^3 on
    the reference grid) are exponentiated, each as np.exp does it."""
    distinct, index = np.unique(op.symbol, return_inverse=True)
    values = np.exp(-(np.arange(m_t + 1) * h)[:, None] * distinct)
    return values, index.reshape(op.symbol.shape)


def _linear_period_map_data(F: np.ndarray, op: LinearOperatorSpec, h: float,
                            zero_mode_tol: float) -> np.ndarray:
    """Periodic response of frequency-stacked F. Modes are independent, so
    one task per slab of the first spatial axis runs the recurrence over
    the time nodes in place in the output."""
    check_zero_mode(F, zero_mode_tol)
    m_t = F.shape[0] - 1
    coefficients = _step_coefficients(op, h)
    inverse = period_inverse_symbol(op)
    decay, index = _decay_table(op, h, m_t)
    keep = op.grid.keep_nyquist_free
    out = np.empty_like(F)

    def task(slab):
        I = _integrate_into(out[:, slab], F[:, slab], *(c[slab] for c in coefficients))
        u0 = inverse[slab] * I[m_t]
        nodes = index[slab]
        for m in range(m_t + 1):
            I[m] = (decay[m][nodes] * u0 + I[m]) * keep[slab]

    map_chunks(task, [slice(i, i + _SLAB_PLANES) for i in range(0, F.shape[1], _SLAB_PLANES)])
    return out


def linear_period_map(F: FieldSeries, op: LinearOperatorSpec,
                      zero_mode_tol: float = 1e-10) -> FieldSeries:
    """Periodic response series of the linear flow driven by F; the same
    multiplier formula serves both frequency bands."""
    data = F.to_frequency().data
    out = _linear_period_map_data(data, op, F.dt, zero_mode_tol)
    return FieldSeries(F.grid, FREQUENCY, out, F.period)


def _rhs_series_data(u: np.ndarray, g: np.ndarray, grid,
                     nonlinearity: bool = True) -> np.ndarray:
    """F = dealias(|u|^2 u) + g on every node, frequency representation;
    one task per chunk of time nodes."""
    if not nonlinearity:
        return g
    axes = tuple(range(1, grid.dim + 1))
    mask = grid.dealias_mask(grid.config.dealias_fraction)
    out = np.empty_like(u)

    def task(rows):
        phys = np.fft.ifftn(u[rows], axes=axes)
        C = np.fft.fftn(phys * (phys.real ** 2 + phys.imag ** 2), axes=axes)
        C *= mask
        out[rows] = C + g[rows]

    map_chunks(task, node_chunks(u.shape[0]))
    return out


def picard_step(u: FieldSeries, g: FieldSeries, op: LinearOperatorSpec,
                cutoffs: CutoffSpec | None, opts: SolveOptions) -> FieldSeries:
    """One fixed-point update: periodic response of dealias(|u|^2 u) + g."""
    if len(u) != len(g):
        raise ValueError("solution and forcing series are not aligned in time")
    U = u.to_frequency().data
    G = g.to_frequency().data
    F = _rhs_series_data(U, G, u.grid, opts.nonlinearity_enabled)
    out = _linear_period_map_data(F, op, u.dt, opts.zero_mode_tol)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteField(
            "iteration produced non-finite modes; the forcing is too large "
            "for the contraction regime")
    return FieldSeries(u.grid, FREQUENCY, out, u.period)


def _cubic_difference_data(v: np.ndarray, w: np.ndarray, grid) -> np.ndarray:
    """dealias(|v+w|^2 (v+w) - |v|^2 v) evaluated in the expanded form
    2|v|^2 w + v^2 conj(w) + 2|w|^2 v + w^2 conj(v) + |w|^2 w.

    The expansion is an exact pointwise identity; evaluating it directly keeps
    every term accurate relative to its own size, so successive-iterate
    residuals stay meaningful far below the cancellation floor of the naive
    subtraction. One task per chunk of time nodes.
    """
    axes = tuple(range(1, grid.dim + 1))
    mask = grid.dealias_mask(grid.config.dealias_fraction)
    out = np.empty_like(v)

    def task(rows):
        vp = np.fft.ifftn(v[rows], axes=axes)
        wp = np.fft.ifftn(w[rows], axes=axes)
        v_sq = vp.real * vp.real + vp.imag * vp.imag
        w_sq = wp.real * wp.real + wp.imag * wp.imag
        diff = (2.0 * v_sq * wp + vp * vp * np.conj(wp)
                + 2.0 * w_sq * vp + wp * wp * np.conj(vp) + w_sq * wp)
        chunk = np.fft.fftn(diff, axes=axes)
        chunk *= mask
        out[rows] = chunk

    map_chunks(task, node_chunks(v.shape[0]))
    return out


def solve_periodic(g: FieldSeries, op: LinearOperatorSpec, cutoffs: CutoffSpec,
                   opts: SolveOptions | None = None
                   ) -> tuple[FieldSeries, PeriodicSolveReport]:
    """Iterate the period map from the linear response of g until the Z-norm
    of successive iterates drops below tolerance.

    Returns the final series and a report; the report has converged=False on
    max-iterations or on three consecutive residual increases (fail-fast
    divergence policy). Non-finite iterates raise NonFiniteField.
    """
    opts = opts or SolveOptions()
    grid = g.grid
    if g.n_steps != opts.m_t:
        # The forcing series defines the time grid; keep them consistent.
        opts = replace(opts, m_t=g.n_steps)
    g_freq = g.to_frequency()
    bracket = forcing_bracket(g, g_freq)

    # Difference-form iteration: carry the current iterate u^(l) and the
    # correction delta^(l) = u^(l+1) - u^(l). Both the update of u and the
    # update of delta are algebraically identical to repeated picard_step
    # calls; the correction is propagated through the expanded cubic
    # difference so residuals stay accurate at any magnitude.
    u_data = _linear_period_map_data(g_freq.data, op, g.dt, opts.zero_mode_tol)
    if opts.nonlinearity_enabled:
        cubic0 = _cubic_difference_data(np.zeros_like(u_data), u_data, grid)
        delta = _linear_period_map_data(cubic0, op, g.dt, opts.zero_mode_tol)
    else:
        delta = np.zeros_like(u_data)

    history: list[float] = []
    converged = False
    diverged = False
    reason = None
    iterations = 0
    for _ in range(opts.max_iterations):
        res = z_norm(FieldSeries(grid, FREQUENCY, delta, g.period), cutoffs)
        history.append(res)
        u_prev = u_data
        u_data = u_data + delta
        iterations += 1
        if not np.all(np.isfinite(u_data.view(float))) or not math.isfinite(res):
            raise NonFiniteField(
                "iteration produced non-finite modes; the forcing is too large "
                "for the contraction regime")
        if res <= opts.z_tolerance:
            converged = True
            break
        if len(history) >= 4 and all(
                history[-k] > history[-k - 1] for k in (1, 2, 3)):
            diverged = True
            reason = (f"residual grew for 3 consecutive iterations "
                      f"(last {history[-1]:.3e}); forcing outside the contraction regime")
            break
        if opts.nonlinearity_enabled:
            diff_rhs = _cubic_difference_data(u_prev, delta, grid)
            delta = _linear_period_map_data(diff_rhs, op, g.dt, opts.zero_mode_tol)
        else:
            delta = np.zeros_like(u_data)
    u = FieldSeries(grid, FREQUENCY, u_data, g.period)

    node_l2 = _node_l2(u.data, grid)
    scale = max(float(node_l2.max()), np.finfo(float).tiny)
    periodicity = float(np.sqrt(np.sum(np.abs(u.data[-1] - u.data[0]) ** 2)
                                * grid.parseval_factor) / scale)
    z_final = z_norm(u, cutoffs)
    c_est = (z_final / bracket) if bracket > 0 else None
    factor, factor_reason = _contraction_factor(history)

    report = PeriodicSolveReport(
        converged=converged, iterations=iterations, residual_history=history,
        periodicity_residual=periodicity, z_norm=z_final, g_bracket=bracket,
        c_estimate=c_est, contraction_factor=factor,
        diverged=diverged, divergence_reason=reason,
        contraction_factor_reason=factor_reason)
    return u, report


def equation_residual(u: FieldSeries, g: FieldSeries, op: LinearOperatorSpec,
                      include_nonlinearity: bool = True) -> float:
    """Solver-independent certificate: max over interior time nodes of
    ||D_t u + A u - dealias(|u|^2 u) - g||_{L2} / (1 + sup_t ||u||_{L2})
    with D_t the centered difference."""
    U = u.to_frequency().data
    G = g.to_frequency().data
    if U.shape != G.shape:
        raise ValueError("solution and forcing series are not aligned")
    grid = u.grid
    m_t = u.n_steps
    if m_t < 2:
        raise ValueError("need at least 3 time nodes")
    h = u.dt
    F = _rhs_series_data(U, G, grid, include_nonlinearity)
    dt = (U[2:] - U[:-2]) / (2.0 * h)
    R = dt + op.symbol * U[1:-1] - F[1:-1]
    res = float(_node_l2(R, grid).max())
    scale = 1.0 + float(_node_l2(U, grid).max())
    return res / scale


def _contraction_factor(history: list[float]) -> tuple[float | None, str | None]:
    """Geometric mean of successive residual ratios, excluding the first, and
    None beside the reason when there are fewer than 3 residuals or a
    non-positive one."""
    if len(history) < 3:
        return None, f"fewer than 3 residuals (got {len(history)})"
    if any(r <= 0 for r in history):
        return None, "a residual is not positive"
    tail = [history[i + 1] / history[i] for i in range(1, len(history) - 1)]
    return float(np.exp(np.mean(np.log(tail)))), None


def contraction_estimate(report: PeriodicSolveReport) -> float:
    """Geometric mean of successive residual ratios, excluding the first."""
    factor, _ = _contraction_factor(report.residual_history)
    if factor is None:
        raise ValueError("contraction estimate needs at least 3 residuals, all positive")
    return factor


def split_series(u: FieldSeries, cutoffs: CutoffSpec) -> tuple[FieldSeries, FieldSeries]:
    """Materialize the low/high frequency parts of a series."""
    data = u.to_frequency().data
    keep = u.grid.keep_nyquist_free
    low = FieldSeries(u.grid, FREQUENCY, data * (cutoffs.chi1 * keep), u.period)
    high = FieldSeries(u.grid, FREQUENCY, data * (cutoffs.chi_inf * keep), u.period)
    return low, high


def split_equation_residual(u: FieldSeries, g: FieldSeries, op: LinearOperatorSpec,
                            cutoffs: CutoffSpec) -> tuple[float, float]:
    """Residuals of the low and high sub-systems
    D_t u_j + A u_j = P_j (dealias(|u|^2 u) + g), j = low, high.

    Both projections of a converged series satisfy their sub-equation at the
    same discretization order as the full equation_residual.
    """
    U = u.to_frequency().data
    G = g.to_frequency().data
    grid = u.grid
    h = u.dt
    F = _rhs_series_data(U, G, grid, True)
    keep = grid.keep_nyquist_free
    scale = 1.0 + float(_node_l2(U, grid).max())
    out = []
    for chi in (cutoffs.chi1, cutoffs.chi_inf):
        Uj = U * (chi * keep)
        Fj = F * (chi * keep)
        dt = (Uj[2:] - Uj[:-2]) / (2.0 * h)
        R = dt + op.symbol * Uj[1:-1] - Fj[1:-1]
        out.append(float(_node_l2(R, grid).max()) / scale)
    return out[0], out[1]
