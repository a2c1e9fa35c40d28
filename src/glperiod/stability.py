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
and written into caller buffers; the stepper owns its work and transform
pass buffers (numpy.fft's out=, numpy >= 2.0); the dealias mask is folded
into h phi1 and h phi2 once; and the step advances w in place.

The run steps the paper's case only, one step per base node (h = T/m_t): its
forcings are odd, g(-x, t) = -g(x, t), so is its periodic solution, and
about an odd base an odd w stays odd. w0, and the base unless the run is
linear, must be odd (OddnessViolation otherwise, before any base node is
built). Their per-axis parities are measured by the solve's rule
(Grid.parity; the base's with its antiperiodicity by Grid.symmetry_of, one
pass that only measures, in the calling thread). The run steps the octant
(OctantTransform) when the two share a parity signature, as the reference's
dipoles do (17^3 of 32^3 modes per node), else the whole lattice: a
perturbation of another axis than the base's (2|w|^2 v and w^2 conj(v) take
v's parities) or a base with the point oddness only has no parity per axis
that the step keeps. At 32^3 a whole-lattice step takes 3.5-5.6 times an
octant one (medians of 200 steps, 2-vCPU VM, numpy 2.4). A linear run steps
w0's layout. Base nodes are physical data on it, built one at a time from
the planes an octant FieldSeries of the same parity holds (the solve's u),
else from frequency_rows; an antiperiodic base (v(t + T/2) = -v(t)) holds
nodes 0..m_t/2 - 1, negated after.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .manifest import atomic_write, strict_json
from .operators import CutoffSpec, LinearOperatorSpec
from .phi import phi1, phi2
from .spectral import WHOLE, FieldSeries, Grid, Series, SpectralField, Symmetry


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
    """ETD coefficients and work buffers of the perturbation step on the
    layout `symmetry` names (the octant or the whole lattice).

    The dealias mask is folded into h phi1 and h phi2, which is bitwise the
    same as masking the nonlinear term first; all buffers are allocated here,
    so a step allocates no full-size array. At order 2 the first step with
    the right-hand side is one ETD2RK step and every later one is multistep
    ETD2: f_prev keeps N_{n-1} (the two transform buffers swap after each
    step). rhs_evals counts the nonlinear evaluations made.
    """

    def __init__(self, grid: Grid, op: LinearOperatorSpec, h: float,
                 symmetry: Symmetry = WHOLE):
        held = symmetry.held(grid)
        self.pair = grid.transform(symmetry)
        # h phi are 0 past the forward transform's first-axis planes; cut there
        # only, the updates' operands stay contiguous (numpy buffers strided ones)
        self.kept = self.pair.kept[:1]
        # e^{-hA}, h phi1(-hA) and h phi2(-hA) per mode, Nyquist rows zeroed
        # as in the period map, so stepped and mapped series agree
        z = -h * op.symbol[held]
        keep = grid.keep_nyquist_free[held]
        self.decay = np.exp(z) * keep
        self.h_phi1 = (h * phi1(z) * keep * self.pair.dealias)[self.kept]
        self.h_phi2 = (h * phi2(z) * keep * self.pair.dealias)[self.kept]
        shape = symmetry.shape(grid)
        self.inverse_work, self.forward_work = self.pair.buffers(1)
        self.rhs = np.empty(shape, complex)
        self.f_now, self.f_prev = (np.empty(shape, complex) for _ in range(2))
        self.spare = np.empty(shape, complex)  # frequency scratch
        self.work = _rhs_work(shape)
        self.has_prev = False
        self.rhs_evals = 0

    def physical(self, w_hat: np.ndarray) -> np.ndarray:
        """Physical data of frequency data (not written), in the pass buffers."""
        return self.pair.ifft(w_hat[None], self.inverse_work)[0]

    def _nonlinear_hat(self, w_hat: np.ndarray, v_phys: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        rhs = _rhs_data(self.physical(w_hat), v_phys, self.rhs, self.work)
        return self.pair.fft(rhs[None], out[None], self.forward_work)[0]

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
    # the stepped layout: antiperiodic (None if linear), nodes_held, parity, modes_per_node
    base: dict = field(default_factory=dict)

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


def _base_nodes(v_per: Series, symmetry: Symmetry, stepper: _Stepper) -> np.ndarray:
    """Base nodes 0..m_t/2 - 1 if symmetry.antiperiodic, else 0..m_t - 1, as
    physical data on the stepper's layout, one at a time: the inverse of
    their held planes in the stepper's pass buffers. A FieldSeries held on
    the same octant hands over its planes; other series are read by
    frequency_rows."""
    grid, m_t = v_per.grid, v_per.n_steps
    held = symmetry.held(grid)
    own = (isinstance(v_per, FieldSeries) and symmetry.parity is not None
           and v_per.symmetry.parity == symmetry.parity)
    nodes = np.empty((m_t // 2 if symmetry.antiperiodic else m_t,) + symmetry.shape(grid),
                     complex)
    for m in range(len(nodes)):
        if own:
            node = v_per.data[m]
        else:
            node, = v_per.frequency_rows(slice(m, m + 1))
        nodes[m] = stepper.physical(node[held])
    return nodes


def run_stability(cfg: StabilityRunConfig, op: LinearOperatorSpec,
                  cutoffs: CutoffSpec) -> DecayReport:
    """Integrate the perturbation to t_max about the stored periodic base
    solution, one step per base node (h = T/m_t), and record decay
    diagnostics. w0 and, unless the run is linear, the base must be odd
    (OddnessViolation otherwise). A linear run reads no base."""
    grid, m_t = cfg.v_per.grid, cfg.v_per.n_steps
    h = cfg.v_per.period / m_t
    parity = grid.parity(grid.node_stats(cfg.w0.data), "perturbation")
    base = None if cfg.linear_only else grid.symmetry_of(cfg.v_per, "base")
    if base is not None and base.parity != parity:
        parity = None  # no parity per axis that both keep: the whole lattice
    symmetry = Symmetry(parity=parity, antiperiodic=base is not None and base.antiperiodic)
    stepper = _Stepper(grid, op, h, symmetry)
    held = symmetry.held(grid)
    w_hat = grid.clear_odd_planes(cfg.w0.data[held][None].copy(), parity)[0]
    v_nodes = [] if cfg.linear_only else _base_nodes(cfg.v_per, symmetry, stepper)
    nodes_held = len(v_nodes)
    negated = np.empty(v_nodes.shape[1:], complex) if symmetry.antiperiodic else None

    def node(k: int) -> np.ndarray:  # node k mod m_t: held, or minus one in the one buffer
        k %= m_t
        return v_nodes[k] if k < nodes_held else np.negative(v_nodes[k - nodes_held],
                                                             out=negated)

    pf = grid.parseval_factor
    xi_sq = grid.xi_sq
    chi1_sq = (cutoffs.chi1 * grid.keep_nyquist_free) ** 2
    chi_inf_sq = (cutoffs.chi_inf * grid.keep_nyquist_free) ** 2
    # rows give ||w||^2, ||grad w||^2, ||P_low w||^2, ||grad P_low w||^2 and
    # ||P_high w||_{H1}^2 as sums against |w_hat|^2 (all even under R)
    weights = (np.stack([np.ones(grid.shape), xi_sq, chi1_sq, chi1_sq * xi_sq,
                         chi_inf_sq * (1.0 + xi_sq)])[(slice(None),) + held]
               * grid.fold_weights(symmetry)).reshape(5, -1)
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
        base={"antiperiodic": None if base is None else symmetry.antiperiodic,
              "nodes_held": nodes_held, "parity": parity,
              "modes_per_node": math.prod(symmetry.shape(grid))})
