"""Perturbation dynamics about a computed periodic solution.

A perturbation w of a base solution v obeys

    dw/dt + A w = 2|v|^2 w + v^2 conj(w) + 2|w|^2 v + w^2 conj(v) + |w|^2 w,

the exact expansion of |v+w|^2 (v+w) - |v|^2 v. Time stepping is
stiff-exact in the linear part. Order 1 is exponential Euler. Order 2 is the
multistep ETD2 of Cox & Matthews (J. Comput. Phys. 176, 2002),

    w_{n+1} = e^{-hA} w_n + h phi1 N_n + h phi2 (N_n - N_{n-1}),

started by one ETD2RK (predictor-corrector) step; it makes one nonlinear
evaluation per step. exp_step builds a fresh stepper, so it is always one
ETD2RK step at order 2. The run records the algebraically weighted running
suprema

    N1(t) = sup_{tau<=t} [(1+tau)^{3/4} ||P_low w||_{L2}
                          + (1+tau)^{5/4} ||grad P_low w||_{L2}]
    N2(t) = sup_{tau<=t} (1+tau)^{5/4} ||P_high w||_{H1}

and fits decay slopes of log ||grad^l w|| against log(1+t) on the window
where box truncation has not yet contaminated the algebraic decay,
t in [1, 0.25 (L/(2 pi))^2]; when that window holds too few samples the
slopes are null and fit_reason says why.

A perturbation step allocates no full-size array. The right-hand side is
grouped as v (p + 2|w|^2) + w (2|v|^2 + conj(p) + |w|^2) with p = v conj(w)
and written into caller buffers; the stepper owns its work buffers and
transforms into them with numpy.fft's out= (numpy >= 2.0); the dealias mask
is folded into h phi1 and h phi2 once; the previous step's N lives in the
stepper's second transform buffer; and the step advances the frequency data
in place (exp_step steps a copy, so a caller's field never changes). On the
interpolated base path the blend of two nodes is written into two buffers
that the run owns.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteField
from .operators import CutoffSpec, LinearOperatorSpec
from .phi import phi1, phi2
from .spectral import FREQUENCY, FieldSeries, Grid, SpectralField


def perturbation_rhs(w: SpectralField, v: SpectralField,
                     dealias_output: bool = True) -> SpectralField:
    """Nonlinear and coupling terms of the perturbation flow, evaluated
    pointwise in physical space; returned in frequency representation,
    dealiased by default.

    Identity: rhs(w, v) equals |v+w|^2 (v+w) - |v|^2 v pointwise.
    """
    if w.representation != "physical" or v.representation != "physical":
        raise ValueError("perturbation_rhs expects physical-representation fields")
    if w.grid.shape != v.grid.shape or w.grid.config != v.grid.config:
        raise ValueError("perturbation and base fields live on different grids")
    rhs = _rhs_data(w.data, v.data, np.empty_like(w.data), _rhs_work(w.grid.shape))
    out = np.fft.fftn(rhs)
    if dealias_output:
        out = out * w.grid.dealias_mask(w.grid.config.dealias_fraction)
    return SpectralField(w.grid, FREQUENCY, out)


def _rhs_work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Scratch buffers of _rhs_data: one complex and three real fields."""
    return (np.empty(shape, complex), np.empty(shape), np.empty(shape),
            np.empty(shape))


def _rhs_data(w: np.ndarray, v: np.ndarray, out: np.ndarray,
              work: tuple[np.ndarray, ...]) -> np.ndarray:
    """Write v (p + 2|w|^2) + w (2|v|^2 + conj(p) + |w|^2), p = v conj(w),
    into out and return it: the expanded right-hand side, term for term.
    work comes from _rhs_work; every product lands in out or in work."""
    p, s, w_sq, tmp = work
    np.multiply(v.real, v.real, out=s)
    np.multiply(v.imag, v.imag, out=tmp)
    s += tmp
    s *= 2.0
    np.multiply(w.real, w.real, out=w_sq)
    np.multiply(w.imag, w.imag, out=tmp)
    w_sq += tmp
    s += w_sq                    # 2|v|^2 + |w|^2
    np.conjugate(w, out=p)
    p *= v                       # p = v conj(w)
    np.conjugate(p, out=out)
    out.real += s                # real views: no casting buffers
    out *= w
    w_sq *= 2.0
    p.real += w_sq
    p *= v
    out += p
    return out


def _etd_coefficients(grid: Grid, op: LinearOperatorSpec,
                      h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{-hA}, h phi1(-hA) and h phi2(-hA) per mode. Nyquist rows are zeroed,
    matching the period-map convention, so stepped and mapped series agree."""
    z = -h * op.symbol
    keep = grid.keep_nyquist_free
    return np.exp(z) * keep, h * phi1(z) * keep, h * phi2(z) * keep


class _Stepper:
    """ETD coefficients and work buffers of the perturbation step.

    The dealias mask is folded into h phi1 and h phi2, which is bitwise the
    same as masking the nonlinear term first; all buffers are allocated here,
    so a step allocates no full-size array. At order 2 the first step with
    the right-hand side is one ETD2RK step and every later one is multistep
    ETD2: f_prev keeps N_{n-1} (the two transform buffers swap after each
    step). rhs_evals counts the nonlinear evaluations made.
    """

    def __init__(self, grid: Grid, op: LinearOperatorSpec, h: float):
        self.decay, h_phi1, h_phi2 = _etd_coefficients(grid, op, h)
        mask = grid.dealias_mask(grid.config.dealias_fraction)
        self.h_phi1 = h_phi1 * mask
        self.h_phi2 = h_phi2 * mask
        self.axes = tuple(range(grid.dim))
        self.w_phys, self.rhs, self.f_now, self.f_prev = (
            np.empty(grid.shape, complex) for _ in range(4))
        self.work = _rhs_work(grid.shape)
        self.has_prev = False
        self.rhs_evals = 0

    def _nonlinear_hat(self, w_hat: np.ndarray, v_phys: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        np.fft.ifftn(w_hat, axes=self.axes, out=self.w_phys)
        _rhs_data(self.w_phys, v_phys, self.rhs, self.work)
        return np.fft.fftn(self.rhs, axes=self.axes, out=out)

    def step(self, w_hat: np.ndarray, v_now: np.ndarray, v_next: np.ndarray | None,
             order: int, include_rhs: bool = True) -> np.ndarray:
        """Advance the frequency data w_hat by one step in place; returns it.
        v_next, the base at the step's end, is read only by the ETD2RK step
        that starts an order-2 run."""
        if not include_rhs:
            w_hat *= self.decay
            return w_hat
        # overflow here is the escape signal, resolved by the caller's check
        with np.errstate(over="ignore", invalid="ignore"):
            f_now = self._nonlinear_hat(w_hat, v_now, self.f_now)
            w_hat *= self.decay
            w_hat += np.multiply(self.h_phi1, f_now, out=self.rhs)
            if order == 1:
                return w_hat
            f_prev = self.f_prev
            if self.has_prev:
                np.subtract(f_now, f_prev, out=f_prev)      # N_n - N_{n-1}
            else:
                # ETD2RK: N at the predictor in place of the missing N_{n-1}
                self._nonlinear_hat(w_hat, v_next, f_prev)
                f_prev -= f_now
                self.has_prev = True
            f_prev *= self.h_phi2
            w_hat += f_prev
            self.f_now, self.f_prev = f_prev, f_now         # N_n becomes N_{n-1}
        return w_hat


def exp_step(w: SpectralField, v_at_t: SpectralField, h: float,
             op: LinearOperatorSpec, order: int = 1,
             v_next: SpectralField | None = None,
             include_rhs: bool = True) -> SpectralField:
    """One exponential integrator step of the perturbation flow.

    order=1 is exponential Euler w <- e^{-hA} w + h phi1(-hA) F(w, v);
    order=2 is one ETD2RK step: it adds the corrector
    h phi2(-hA) (F(pred, v_next) - F(w, v)). Each call starts afresh, so it
    is the first step of an order-2 run, never a multistep one.
    With include_rhs=False the step is the pure semigroup (exact for any h).
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    grid = w.grid
    stepper = _Stepper(grid, op, h)
    w_hat = w.to_frequency().data.copy()  # the step works in place
    v_now = v_at_t.to_physical().data
    v_nxt = (v_next.to_physical().data if v_next is not None else v_now)
    out = stepper.step(w_hat, v_now, v_nxt, order, include_rhs)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteField("perturbation escaped the stability basin")
    return SpectralField(grid, FREQUENCY, out)


def direct_step(u: SpectralField, g_at_t: SpectralField, g_next: SpectralField,
                h: float, op: LinearOperatorSpec, order: int = 2,
                nonlinearity: bool = True) -> SpectralField:
    """One exponential integrator step of the full forced flow
    du/dt + A u = dealias(|u|^2 u) + g (cross-check plumbing)."""
    if not h > 0:
        raise ValueError("step size must be positive")
    grid = u.grid
    decay, h_phi1, h_phi2 = _etd_coefficients(grid, op, h)
    mask = grid.dealias_mask(grid.config.dealias_fraction)
    axes = tuple(range(grid.dim))

    def forcing_hat(u_hat: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
        if not nonlinearity:
            return g_hat
        u_phys = np.fft.ifftn(u_hat, axes=axes)
        cubic = u_phys * (u_phys.real ** 2 + u_phys.imag ** 2)
        return np.fft.fftn(cubic, axes=axes) * mask + g_hat

    u_hat = u.to_frequency().data
    f_now = forcing_hat(u_hat, g_at_t.to_frequency().data)
    out = decay * u_hat + h_phi1 * f_now
    if order != 1:
        f_pred = forcing_hat(out, g_next.to_frequency().data)
        out = out + h_phi2 * (f_pred - f_now)
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteField("direct integration produced non-finite modes")
    return SpectralField(grid, FREQUENCY, out)


@dataclass
class StabilityRunConfig:
    t_max: float
    v_per: FieldSeries
    w0: SpectralField
    h: float | None = None  # defaults to T/m_t, locked to the stored nodes
    record_stride: int = 4
    order: int = 2
    linear_only: bool = False

    def __post_init__(self):
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.t_max < 10.0 * self.v_per.period:
            raise ValueError("t_max must cover at least 10 periods")


@dataclass
class DecayReport:
    times: np.ndarray
    l2_w: np.ndarray
    h1_grad_w: np.ndarray
    n1_series: np.ndarray
    n2_series: np.ndarray
    n_series: np.ndarray
    fitted_slope_l0: float
    fitted_slope_l1: float
    fit_intercept_l0: float
    fit_intercept_l1: float
    fit_r2_l0: float
    fit_r2_l1: float
    fit_window: tuple[float, float]
    escaped: bool = False
    escape_time: float | None = None
    interpolated_vper: bool = False
    fit_reason: str | None = None  # why the fitted values are NaN
    steps: int = 0                 # steps taken (fewer than planned on escape)
    rhs_evals: int = 0             # nonlinear evaluations made
    step_s: float = 0.0            # seconds in the step loop, records included

    def summary_dict(self) -> dict:
        """Strict-JSON summary: NaN fit values become null beside fit_reason.
        It holds no timing (step_s), so a rerun writes the same bytes."""
        fits = {key: getattr(self, key) for key in (
            "fitted_slope_l0", "fitted_slope_l1", "fit_intercept_l0",
            "fit_intercept_l1", "fit_r2_l0", "fit_r2_l1")}
        return {
            **{k: v if math.isfinite(v) else None for k, v in fits.items()},
            "fit_reason": self.fit_reason,
            "fit_window": list(self.fit_window),
            "escaped": self.escaped,
            "escape_time": self.escape_time,
            "interpolated_vper": self.interpolated_vper,
            "n_final": float(self.n_series[-1]) if self.n_series.size else 0.0,
            "samples": int(self.times.size),
            "steps": self.steps,
            "rhs_evals": self.rhs_evals,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True,
                          allow_nan=False)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "l2_w", "h1_grad_w", "n1", "n2", "n"])
            for row in zip(self.times, self.l2_w, self.h1_grad_w,
                           self.n1_series, self.n2_series, self.n_series):
                writer.writerow([f"{x:.12e}" for x in row])


def fit_decay_rate(times, values, window) -> tuple[float, float, float]:
    """Least squares of log(values) against log(1+t) inside the window.

    Returns (slope, intercept, r^2). Requires >= 8 samples in the window and
    strictly positive values there.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 8:
        raise ValueError(f"need at least 8 samples in the fit window; got {int(mask.sum())}")
    vals = values[mask]
    if np.any(vals <= 0):
        raise ValueError("decay fit requires positive values in the window")
    x = np.log1p(times[mask])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def default_fit_window(grid: Grid) -> tuple[float, float]:
    """[1, 0.25 (L/(2 pi))^2]: the box-truncation validity window (the slowest
    lattice mode decays like exp(-(2 pi/L)^2 t))."""
    return 1.0, 0.25 * (grid.box_length / (2.0 * np.pi)) ** 2


def run_stability(cfg: StabilityRunConfig, op: LinearOperatorSpec,
                  cutoffs: CutoffSpec) -> DecayReport:
    """Integrate the perturbation to t_max about the stored periodic base
    solution and record decay diagnostics."""
    v_series = cfg.v_per.to_frequency()
    grid = v_series.grid
    m_t = v_series.n_steps
    T = v_series.period
    h_nodes = T / m_t
    h = cfg.h if cfg.h is not None else h_nodes
    per_node = h_nodes / h
    substeps = int(round(per_node))
    interpolated = not math.isclose(per_node, substeps, rel_tol=1e-9) or substeps != 1
    if substeps < 1:
        raise ValueError("step size h may not exceed the stored node spacing T/m_t")

    axes = tuple(range(1, grid.dim + 1))
    v_phys_nodes = np.fft.ifftn(v_series.data[:m_t], axes=axes)
    if interpolated:
        v_blend, v_part = (np.empty(grid.shape, complex) for _ in range(2))

    def v_at(step: int) -> np.ndarray:
        """The base at t = step h. A blend of two nodes is written into
        v_blend and holds only until the next call."""
        if not interpolated:
            return v_phys_nodes[step % m_t]
        t_frac = step * h / h_nodes
        base = int(math.floor(t_frac + 1e-12))
        lam = t_frac - base
        if abs(lam) < 1e-12:
            return v_phys_nodes[base % m_t]
        nxt = (base + 1) % m_t
        # (1 - lam) a + lam b, in that order
        np.multiply(1.0 - lam, v_phys_nodes[base % m_t], out=v_blend)
        np.multiply(lam, v_phys_nodes[nxt], out=v_part)
        return np.add(v_blend, v_part, out=v_blend)

    pf = grid.parseval_factor
    xi_sq = grid.xi_sq
    chi1_sq = (cutoffs.chi1 * grid.keep_nyquist_free) ** 2
    chi_inf_sq = (cutoffs.chi_inf * grid.keep_nyquist_free) ** 2
    # rows give ||w||^2, ||grad w||^2, ||P_low w||^2, ||grad P_low w||^2 and
    # ||P_high w||_{H1}^2 as sums against |w_hat|^2
    weights = np.stack([np.ones(grid.shape), xi_sq, chi1_sq, chi1_sq * xi_sq,
                        chi_inf_sq * (1.0 + xi_sq)]).reshape(5, -1)
    abs_sq = np.empty(grid.shape)
    imag_sq = np.empty(grid.shape)

    def record(w_hat: np.ndarray, t: float, state: dict) -> None:
        np.multiply(w_hat.real, w_hat.real, out=abs_sq)
        np.multiply(w_hat.imag, w_hat.imag, out=imag_sq)
        np.add(abs_sq, imag_sq, out=abs_sq)
        l2, grad, l2_low, grad_low, h1_high = np.sqrt(
            (weights @ abs_sq.reshape(-1)) * pf).tolist()
        wgt = 1.0 + t
        state["n1"] = max(state["n1"], wgt ** 0.75 * l2_low + wgt ** 1.25 * grad_low)
        state["n2"] = max(state["n2"], wgt ** 1.25 * h1_high)
        state["times"].append(t)
        state["l2"].append(l2)
        state["grad"].append(grad)
        state["n1s"].append(state["n1"])
        state["n2s"].append(state["n2"])
        state["ns"].append(state["n1"] + state["n2"])

    stepper = _Stepper(grid, op, h)
    w_hat = cfg.w0.to_frequency().data.copy()
    magnitude = np.empty(w_hat.view(float).shape)
    n_steps = int(math.ceil(cfg.t_max / h - 1e-12))
    state = {"n1": 0.0, "n2": 0.0, "times": [], "l2": [], "grad": [],
             "n1s": [], "n2s": [], "ns": []}
    record(w_hat, 0.0, state)
    escaped = False
    escape_time = None
    steps = 0
    started = time.perf_counter()
    for step in range(n_steps):
        if cfg.linear_only:
            w_hat = stepper.step(w_hat, None, None, cfg.order, include_rhs=False)
        else:
            v_now = v_at(step)
            # only the ETD2RK first step reads the base at the step's end;
            # step 0 sits on node 0, so v_now is not the blend buffer
            v_nxt = (v_at(step + 1) if cfg.order == 2 and not stepper.has_prev
                     else None)
            w_hat = stepper.step(w_hat, v_now, v_nxt, cfg.order)
        steps = step + 1
        t = steps * h
        # NaN and inf fail the comparison, so they count as escape too
        if not np.abs(w_hat.view(float), out=magnitude).max() <= 1e100:
            escaped = True
            escape_time = t
            break
        if (step + 1) % cfg.record_stride == 0 or step + 1 == n_steps:
            record(w_hat, t, state)
    step_s = time.perf_counter() - started

    times = np.asarray(state["times"])
    l2_w = np.asarray(state["l2"])
    grad_w = np.asarray(state["grad"])
    window = default_fit_window(grid)
    slope0 = slope1 = icpt0 = icpt1 = r20 = r21 = float("nan")
    fit_reason = None
    try:
        slope0, icpt0, r20 = fit_decay_rate(times, l2_w, window)
        slope1, icpt1, r21 = fit_decay_rate(times, grad_w, window)
    except ValueError as exc:
        fit_reason = str(exc)  # too few or degenerate samples; slopes stay NaN

    return DecayReport(
        times=times, l2_w=l2_w, h1_grad_w=grad_w,
        n1_series=np.asarray(state["n1s"]), n2_series=np.asarray(state["n2s"]),
        n_series=np.asarray(state["ns"]),
        fitted_slope_l0=slope0, fitted_slope_l1=slope1,
        fit_intercept_l0=icpt0, fit_intercept_l1=icpt1,
        fit_r2_l0=r20, fit_r2_l1=r21, fit_window=window,
        escaped=escaped, escape_time=escape_time,
        interpolated_vper=interpolated, fit_reason=fit_reason,
        steps=steps, rhs_evals=stepper.rhs_evals, step_s=step_s)
