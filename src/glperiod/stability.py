"""Perturbation dynamics about a computed periodic solution.

A perturbation w of a base solution v obeys

    dw/dt + A w = 2|v|^2 w + v^2 conj(w) + 2|w|^2 v + w^2 conj(v) + |w|^2 w,

the exact expansion of |v+w|^2 (v+w) - |v|^2 v. Time stepping is
stiff-exact in the linear part. Order 1 is exponential Euler. Order 2 is the
multistep ETD2 of Cox & Matthews (J. Comput. Phys. 176, 2002),

    w_{n+1} = e^{-hA} w_n + h phi1 N_n + h phi2 (N_n - N_{n-1}),

started by one ETD2RK (predictor-corrector) step; it makes one nonlinear
evaluation per step. The run records the algebraically weighted running
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
in place (the run steps a copy of w0).

The run steps the paper's case only, one step per base node (h = T/m_t): its
forcings are odd, g(-x, t) = -g(x, t), so is its periodic solution, and about
an odd base an odd w stays odd. w0, and the base unless the run is linear,
must pass Grid.is_odd (OddnessViolation otherwise, before any base node is
built). Frequency data keep first-axis planes 0..n/2 and physical data all
planes of the half columns (Grid.odd_columns), on which the first-axis pass
runs (Grid.odd_transform, shared with the solve; its forward transform and
the h phi updates skip the planes with no dealiased mode). Base nodes are
transformed one at a time from the planes a FieldSeries holds (the solve's
u; an octant one expanded to those planes node by node), or from
frequency_rows (snapshot files): no frequency copy is held. An antiperiodic
base (v(t + T/2) = -v(t)) holds nodes 0..m_t/2 - 1, negated after.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import OddnessViolation
from .manifest import atomic_write, strict_json
from .operators import CutoffSpec, LinearOperatorSpec
from .phi import phi1, phi2
from .spectral import ODDNESS_TOL, FieldSeries, Grid, Series, SpectralField


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


class _Stepper:
    """ETD coefficients and work buffers of the perturbation step.

    The dealias mask is folded into h phi1 and h phi2, which is bitwise the
    same as masking the nonlinear term first; all buffers are allocated here,
    so a step allocates no full-size array. At order 2 the first step with
    the right-hand side is one ETD2RK step and every later one is multistep
    ETD2: f_prev keeps N_{n-1} (the two transform buffers swap after each
    step). rhs_evals counts the nonlinear evaluations made.
    The frequency data keep first-axis planes 0..n/2 of odd data and the
    physical data all n planes of the half columns of Grid.odd_columns.
    """

    def __init__(self, grid: Grid, op: LinearOperatorSpec, h: float):
        planes = grid.half_shape[0]
        self.pair = grid.odd_transform
        self.kept = slice(self.pair.dealias_planes)  # h phi are 0 past it
        # e^{-hA}, h phi1(-hA) and h phi2(-hA) per mode, Nyquist rows zeroed
        # as in the period map, so stepped and mapped series agree
        z = -h * op.symbol[:planes]
        keep = grid.keep_nyquist_free[:planes]
        self.decay = np.exp(z) * keep
        self.h_phi1 = (h * phi1(z) * keep * grid.dealias[:planes])[self.kept]
        self.h_phi2 = (h * phi2(z) * keep * grid.dealias[:planes])[self.kept]
        phys = (grid.n, self.pair.columns.size)
        self.w_phys, self.rhs = (np.empty(phys, complex) for _ in range(2))
        self.f_now, self.f_prev = (np.empty(grid.half_shape, complex) for _ in range(2))
        self.spare = np.empty(grid.half_shape, complex)  # frequency scratch
        self.work = _rhs_work(phys)
        self.has_prev = False
        self.rhs_evals = 0

    def _nonlinear_hat(self, w_hat: np.ndarray, v_phys: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        self.pair.ifft(w_hat[None], self.w_phys[None], self.spare[None])
        return self.pair.fft(_rhs_data(self.w_phys, v_phys, self.rhs, self.work)[None],
                             out[None])[0]

    def step(self, w_hat: np.ndarray, v_now: np.ndarray, v_next: np.ndarray | None,
             order: int, include_rhs: bool = True) -> np.ndarray:
        """Advance the frequency data w_hat by one step in place; returns it.
        v_next, the base at the step's end, is read only by the ETD2RK step
        that starts an order-2 run."""
        if not include_rhs:
            w_hat *= self.decay
            return w_hat
        kept = self.kept
        # overflow here is the escape signal, resolved by the caller's check
        with np.errstate(over="ignore", invalid="ignore"):
            f_now = self._nonlinear_hat(w_hat, v_now, self.f_now)
            w_hat *= self.decay
            w_hat[kept] += np.multiply(self.h_phi1, f_now[kept], out=self.spare[kept])
            if order == 1:
                return w_hat
            f_prev = self.f_prev
            if self.has_prev:
                np.subtract(f_now[kept], f_prev[kept], out=f_prev[kept])  # N_n - N_{n-1}
            else:
                # ETD2RK: N at the predictor in place of the missing N_{n-1}
                self._nonlinear_hat(w_hat, v_next, f_prev)
                f_prev[kept] -= f_now[kept]
                self.has_prev = True
            f_prev[kept] *= self.h_phi2
            w_hat[kept] += f_prev[kept]
            self.f_now, self.f_prev = f_prev, f_now         # N_n becomes N_{n-1}
        return w_hat


@dataclass
class StabilityRunConfig:
    t_max: float
    v_per: Series  # a FieldSeries (the solve's u), a saved base's snapshots
    w0: SpectralField
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
    fit_reason: str | None = None  # why the fitted values are NaN
    steps: int = 0                 # steps taken (fewer than planned on escape)
    rhs_evals: int = 0             # nonlinear evaluations made
    step_s: float = 0.0            # seconds in the step loop, records included
    base: dict = field(default_factory=dict)  # antiperiodic (None if linear), nodes_held

    def summary_dict(self) -> dict:
        """Strict-JSON summary: NaN fit values become null beside fit_reason.
        It holds no timing (step_s) or base layout, as decay.json does not."""
        fits = {key: getattr(self, key) for key in (
            "fitted_slope_l0", "fitted_slope_l1", "fit_intercept_l0",
            "fit_intercept_l1", "fit_r2_l0", "fit_r2_l1")}
        return {
            **{k: v if math.isfinite(v) else None for k, v in fits.items()},
            "fit_reason": self.fit_reason,
            "fit_window": list(self.fit_window),
            "escaped": self.escaped,
            "escape_time": self.escape_time,
            "n_final": float(self.n_series[-1]) if self.n_series.size else 0.0,
            "samples": int(self.times.size),
            "steps": self.steps,
            "rhs_evals": self.rhs_evals,
        }

    def to_json(self) -> str:
        return strict_json(self.summary_dict())

    def write_csv(self, path) -> None:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["t", "l2_w", "h1_grad_w", "n1", "n2", "n"])
        for row in zip(self.times, self.l2_w, self.h1_grad_w,
                       self.n1_series, self.n2_series, self.n_series):
            writer.writerow([f"{x:.12e}" for x in row])
        atomic_write(path, text.getvalue())


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


def _base_symmetry(v_per: Series) -> bool:
    """Whether an odd base is antiperiodic: one pass over its node pairs (m, m + m_t/2),
    in the calling thread (pool threads' arenas would keep its temporaries), bounds each
    node's even part (Grid.even_part; OddnessViolation) and each pair's periodic part."""
    grid, m_t = v_per.grid, v_per.n_steps
    half, even, periodic = m_t // 2, [], []
    for m in range(m_t - half + 1):  # every node 0..m_t, as a or as b
        (a,), (b,) = (v_per.frequency_rows(slice(k, k + 1)) for k in (m, m + half))
        even += [grid.even_part(a), grid.even_part(b)]
        periodic.append(grid.periodic_part(a, b))
    (even, peak), periodic = np.max(even, axis=0), max(periodic)
    if not even <= ODDNESS_TOL * peak:
        raise OddnessViolation("base", ODDNESS_TOL)
    return m_t % 2 == 0 and bool(periodic <= ODDNESS_TOL * peak)


def _base_nodes(v_per: Series, antiperiodic: bool, scratch: np.ndarray) -> np.ndarray:
    """Base nodes 0..m_t/2 - 1 if antiperiodic, else 0..m_t - 1, in the stepper's
    physical layout, one at a time: the odd inverse (Grid.odd_transform) of their
    planes 0..n/2, later passes in `scratch`. A FieldSeries hands over those planes
    of the nodes it holds (FieldSeries.first_planes); other series are read by
    frequency_rows."""
    grid, m_t = v_per.grid, v_per.n_steps
    pair = grid.odd_transform
    nodes = np.empty((m_t // 2 if antiperiodic else m_t, grid.n, pair.columns.size), complex)
    for m in range(len(nodes)):  # the octant's planes go to scratch itself: no overlap copy
        if isinstance(v_per, FieldSeries):
            node = v_per.first_planes(m, scratch)
        else:
            node, = v_per.frequency_rows(slice(m, m + 1))
            node = node[None, :pair.half_shape[0]]
        pair.ifft(node, nodes[m:m + 1], scratch)
    return nodes


def run_stability(cfg: StabilityRunConfig, op: LinearOperatorSpec,
                  cutoffs: CutoffSpec) -> DecayReport:
    """Integrate the perturbation to t_max about the stored periodic base
    solution, one step per base node (h = T/m_t), and record decay
    diagnostics. w0 and, unless the run is linear, the base must be odd
    (OddnessViolation otherwise). A linear run reads no base."""
    grid, m_t = cfg.v_per.grid, cfg.v_per.n_steps
    h = cfg.v_per.period / m_t
    grid.require_odd(cfg.w0.data[None], "perturbation")
    antiperiodic = None if cfg.linear_only else _base_symmetry(cfg.v_per)
    stepper = _Stepper(grid, op, h)
    planes = len(stepper.decay)
    w_hat = cfg.w0.data[:planes].copy()
    v_nodes = [] if cfg.linear_only else _base_nodes(cfg.v_per, antiperiodic, stepper.spare[None])
    held = len(v_nodes)
    negated = np.empty(v_nodes.shape[1:], complex) if antiperiodic else None

    def node(k: int) -> np.ndarray:  # node k mod m_t: held, or minus one in the one buffer
        k %= m_t
        return v_nodes[k] if k < held else np.negative(v_nodes[k - held], out=negated)

    pf = grid.parseval_factor
    xi_sq = grid.xi_sq
    chi1_sq = (cutoffs.chi1 * grid.keep_nyquist_free) ** 2
    chi_inf_sq = (cutoffs.chi_inf * grid.keep_nyquist_free) ** 2
    # rows give ||w||^2, ||grad w||^2, ||P_low w||^2, ||grad P_low w||^2 and
    # ||P_high w||_{H1}^2 as sums against |w_hat|^2 (all even under R)
    weights = (np.stack([np.ones(grid.shape), xi_sq, chi1_sq, chi1_sq * xi_sq,
                         chi_inf_sq * (1.0 + xi_sq)])[:, :planes]
               * grid.plane_weights()).reshape(5, -1)
    abs_sq = np.empty(w_hat.shape)
    imag_sq = np.empty(w_hat.shape)

    rows = []  # per record: t, ||w||, ||grad w||, N1, N2, N

    def record(w_hat: np.ndarray, t: float) -> None:
        np.multiply(w_hat.real, w_hat.real, out=abs_sq)
        np.multiply(w_hat.imag, w_hat.imag, out=imag_sq)
        np.add(abs_sq, imag_sq, out=abs_sq)
        l2, grad, l2_low, grad_low, h1_high = np.sqrt(
            (weights @ abs_sq.reshape(-1)) * pf).tolist()
        wgt = 1.0 + t
        n1, n2 = rows[-1][3:5] if rows else (0.0, 0.0)  # the running suprema
        n1 = max(n1, wgt ** 0.75 * l2_low + wgt ** 1.25 * grad_low)
        n2 = max(n2, wgt ** 1.25 * h1_high)
        rows.append((t, l2, grad, n1, n2, n1 + n2))

    magnitude = np.empty(w_hat.view(float).shape)
    n_steps = int(math.ceil(cfg.t_max / h - 1e-12))
    record(w_hat, 0.0)
    escaped = False
    escape_time = None
    steps = 0
    started = time.perf_counter()
    for step in range(n_steps):
        if cfg.linear_only:
            w_hat = stepper.step(w_hat, None, None, cfg.order, include_rhs=False)
        else:
            # only the ETD2RK first step reads the base at the step's end (node 1, held)
            v_nxt = node(step + 1) if cfg.order == 2 and not stepper.has_prev else None
            w_hat = stepper.step(w_hat, node(step), v_nxt, cfg.order)
        steps = step + 1
        t = steps * h
        # NaN and inf fail the comparison, so they count as escape too
        if not np.abs(w_hat.view(float), out=magnitude).max() <= 1e100:
            escaped = True
            escape_time = t
            break
        if (step + 1) % cfg.record_stride == 0 or step + 1 == n_steps:
            record(w_hat, t)
    step_s = time.perf_counter() - started
    v_nodes = negated = None  # freed: the fit's LAPACK start-up need not add to their peak

    times, l2_w, grad_w, n1_series, n2_series, n_series = np.array(rows).T
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
        n1_series=n1_series, n2_series=n2_series, n_series=n_series,
        fitted_slope_l0=slope0, fitted_slope_l1=slope1,
        fit_intercept_l0=icpt0, fit_intercept_l1=icpt1,
        fit_r2_l0=r20, fit_r2_l1=r21, fit_window=window,
        escaped=escaped, escape_time=escape_time, fit_reason=fit_reason,
        steps=steps, rhs_evals=stepper.rhs_evals, step_s=step_s,
        base={"antiperiodic": antiperiodic, "nodes_held": held})
