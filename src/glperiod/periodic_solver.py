"""Time-periodic solver: exponential Duhamel quadrature, the period map
giving the unique periodic linear response, and the fixed-point
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

A solve holds two series, the iterate u and the correction delta, and
reads the caller's g by rows (frequency_rows: the realized forcing builds
eps a(t_m) G_hat per row and is never a series). g must be odd. Every map
of the iteration commutes with the lattice reflections, so u and delta keep
every symmetry g has, and one pass over g (Grid.symmetry_of) measures them
and writes g's held planes into u's buffer: planes 0..n/2 of every axis if
g has a parity per axis (the octant), else a second pass (Grid.is_odd)
writes planes 0..n/2 of the first axis of g's odd part (g - Rg)/2 (the half
lattice), whose mean mode is exactly 0. [g] is read from those planes. Every
kernel and Z-norm runs on the layout the series record
(FieldSeries.symmetry): the period map on the held modes of op.symbol, the
cubic terms through the layout's transform pair (Grid.transform). The
period map runs in place (F[m] is carried per slab before its row is
overwritten), and one fused map per iteration advances u by delta and
overwrites delta with the next cubic difference. u leaves the solve as the
FieldSeries it held, whose frequency_rows expands the rows a reader asks
for; equation_residual streams over them.

The equation is unchanged by u -> -u and a time shift, so for a measured
antiperiodic g (g(t + T/2) = -g(t), as eps sin(2 pi t/T) G(x)) u and every
correction are antiperiodic. The solve then holds its series on nodes
0..m_t/2 (FieldSeries.antiperiodic): the period map closes with u(T/2) =
-u(0), u(0) = -(1 + e^{-T lambda/2})^{-1} I(T/2), and node m + m_t/2 of u is
read as minus node m. report.layout records what the solve held.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import spectral
from .errors import NonFiniteField
from .manifest import strict_json
from .norms import _node_l2, forcing_bracket, z_norm
from .operators import CutoffSpec, LinearOperatorSpec, period_inverse_symbol
from .phi import phi1, phi2
from .spectral import WHOLE, FieldSeries, Series, Symmetry, map_chunks, node_chunks


@dataclass
class SolveOptions:
    max_iterations: int = 50
    z_tolerance: float = 1e-10
    nonlinearity_enabled: bool = True

    def __post_init__(self):
        if not self.z_tolerance > 0:
            raise ValueError("z_tolerance must be positive")
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
    layout: dict = field(default_factory=dict)  # what the solve held (Symmetry, sizes)

    def to_json(self) -> str:
        return strict_json(asdict(self))


def _step_coefficients(op: LinearOperatorSpec, h: float, held: tuple = ()):
    """Per-mode decay factor and phi-quadrature weights for step size h, on the
    modes op.symbol[held]."""
    z = -h * op.symbol[held]
    decay = np.exp(z)
    p1 = phi1(z)
    p2 = phi2(z)
    return decay, h * (p1 - p2), h * p2


def _integrate_into(out: np.ndarray, F: np.ndarray, decay, a, b) -> np.ndarray:
    """out[m] = I(t_m), m = 0..len(out) - 1, via the stiff-exact recurrence.

    `out` may be F: F[m] is carried in a copy before its row is overwritten.
    """
    f_m = F[0].copy()
    out[0] = 0.0
    for m in range(out.shape[0] - 1):
        f_next = F[m + 1].copy()
        out[m + 1] = decay * out[m] + a * f_m + b * f_next
        f_m = f_next
    return out


_SLAB_PLANES = 8  # first-axis planes per period-map task
_NON_FINITE = ("iteration produced non-finite modes; the forcing is too large "
               "for the contraction regime")


def _decay_table(op: LinearOperatorSpec, h: float, m_t: int, held: tuple = ()):
    """e^{-m h lambda}, m = 0..m_t, on the modes op.symbol[held], as (values,
    index) with values[m][index] the table at node m: only the symbol's
    distinct values (827 of 32^3 on the reference grid, the same on every
    layout's held planes) are exponentiated, each as np.exp does it."""
    symbol = op.symbol[held]
    distinct, index = np.unique(symbol, return_inverse=True)
    values = np.exp(-(np.arange(m_t + 1) * h)[:, None] * distinct)
    return values, index.reshape(symbol.shape)


def _linear_period_map_data(F: np.ndarray, op: LinearOperatorSpec, h: float,
                            out: np.ndarray | None = None,
                            antiperiodic: bool = False) -> np.ndarray:
    """Periodic response of frequency-stacked, mean-free F, written to `out`
    (a new array by default; `out` may be F). Modes are independent, so one
    task per slab of the first spatial axis runs the recurrence over the
    time nodes in place in the output. F may hold the leading planes of each
    axis that a layout keeps (Symmetry.held: the half lattice, the octant),
    on whose modes every per-mode table is built, or nodes 0..m_t/2 of
    `antiperiodic` data, whose closing symbol -1/(1 + e^{-T lambda/2}) is
    never singular (-1/2 at the mean mode)."""
    m_t, held = F.shape[0] - 1, tuple(map(slice, F.shape[1:]))
    coefficients = _step_coefficients(op, h, held)
    decay, index = _decay_table(op, h, m_t, held)
    inverse = ((-1.0 / (1.0 + decay[m_t]))[index] if antiperiodic
               else period_inverse_symbol(op)[held])
    keep = op.grid.keep_nyquist_free[held]
    if out is None:
        out = np.empty_like(F)

    def task(slab):
        I = _integrate_into(out[:, slab], F[:, slab], *(c[slab] for c in coefficients))
        u0 = inverse[slab] * I[m_t]
        nodes = index[slab]
        for m in range(m_t + 1):
            I[m] = (decay[m][nodes] * u0 + I[m]) * keep[slab]

    map_chunks(task, [slice(i, min(i + _SLAB_PLANES, F.shape[1]))
                      for i in range(0, F.shape[1], _SLAB_PLANES)])
    return out


def _cubic_rows(v: np.ndarray | None, w: np.ndarray, grid,
                symmetry: Symmetry = WHOLE) -> np.ndarray:
    """dealias(|v+w|^2 (v+w) - |v|^2 v) on a block of nodes, evaluated in the
    expanded form 2|v|^2 w + v^2 conj(w) + 2|w|^2 v + w^2 conj(v) + |w|^2 w;
    frequency data in and out, held as `symmetry` says, through its
    transform pair (Grid.transform): |u|^2 is even, so each term keeps every
    parity of u.

    The expansion is an exact pointwise identity; evaluating it directly keeps
    every term accurate relative to its own size, so successive-iterate
    residuals stay meaningful far below the cancellation floor of the naive
    subtraction. v = None stands for v = 0: the result is dealias(|w|^2 w).
    """
    pair = grid.transform(symmetry)
    wp = pair.ifft(w)
    w_sq = wp.real * wp.real + wp.imag * wp.imag
    if v is None:
        diff = w_sq * wp
    else:
        vp = pair.ifft(v)
        v_sq = vp.real * vp.real + vp.imag * vp.imag
        diff = (2.0 * v_sq * wp + vp * vp * np.conj(wp)
                + 2.0 * w_sq * vp + wp * wp * np.conj(vp) + w_sq * wp)
    chunk = pair.fft(diff, np.empty_like(w))
    chunk *= pair.dealias
    return chunk


def _cubic_difference_data(v: np.ndarray | None, w: np.ndarray, grid,
                           advance: bool = False, symmetry: Symmetry = WHOLE) -> np.ndarray:
    """_cubic_rows over a series held as `symmetry` says, one task per chunk
    of time nodes.

    The difference goes to a new array, or with `advance` into w, after the
    task has advanced v[rows] += w[rows]: the solve's step from the iterate
    u^(l) = v and correction delta^(l) = w to u^(l+1) and the cubic term of
    delta^(l+1), with no series allocated.
    """
    out = w if advance else np.empty_like(w)

    def task(rows):
        chunk = _cubic_rows(None if v is None else v[rows], w[rows], grid, symmetry)
        if advance:
            v[rows] += w[rows]
        out[rows] = chunk

    map_chunks(task, node_chunks(w.shape[0]))
    return out


def _node_l2_chunked(series: Series) -> np.ndarray:
    """_node_l2 of a series' frequency_rows, one chunk of nodes at a time (row
    sums do not depend on their neighbours, so the result is the same bits)."""
    return np.concatenate(map_chunks(lambda rows: _node_l2(series.frequency_rows(rows),
                                                           series.grid),
                                     node_chunks(len(series))))


def _all_finite(data: np.ndarray) -> bool:
    """Whether every entry of the series is finite, one chunk of nodes at a time."""
    return all(map_chunks(lambda rows: bool(np.isfinite(data[rows]).all()),
                          node_chunks(data.shape[0])))


def solve_periodic(g: Series, op: LinearOperatorSpec, cutoffs: CutoffSpec,
                   opts: SolveOptions | None = None) -> tuple[FieldSeries, PeriodicSolveReport]:
    """Iterate the period map from the linear response of g until the Z-norm
    of successive iterates drops below tolerance.

    g is read by rows (spectral.Series: the realized forcing, a
    FieldSeries). Returns u as the FieldSeries the solve held and a
    report; the report has converged=False on max-iterations or on three
    consecutive residual increases (fail-fast divergence policy). Non-finite
    iterates raise NonFiniteField.

    g must be odd (OddnessViolation otherwise), as the paper's forcings
    are. Every map of the iteration commutes with the lattice reflections
    and with u -> -u at a half-period shift, so u and every correction keep
    each symmetry g has. One pass over g (Grid.symmetry_of) measures them
    and writes g's held part into u's buffer: planes 0..n/2 of every axis
    when g has a parity per axis (the octant), else planes 0..n/2 of the
    first axis of its odd part (the half lattice, a second pass, Grid.is_odd);
    nodes 0..m_t/2 only for an antiperiodic g. Every kernel, Z-norm and [g]
    runs on that layout (FieldSeries.symmetry); report.layout records it.
    """
    opts = opts or SolveOptions()
    grid = g.grid
    octant = np.empty((len(g),) + (grid.n // 2 + 1,) * grid.dim, complex)
    sym = grid.symmetry_of(g, octant, "forcing")
    nodes = (len(g) + 1) // 2 if sym.antiperiodic else len(g)  # nodes 0..m_t/2, else every node
    if sym.parity is not None:
        u = octant[:nodes]  # g's held part, then the iterate
    else:
        del octant
        u = np.empty((nodes,) + grid.half_shape, complex)  # g's odd part, then the iterate
        grid.require_odd(g, "forcing", keep=u)
    u_series = FieldSeries(grid, u, g.period, sym)
    bracket = forcing_bracket(u_series)
    # delta is dealiased: its Y-norm is the same on the dealias support's fewer lines
    delta_cutoffs = replace(cutoffs, chi_inf=cutoffs.chi_inf * grid.dealias)

    # Difference-form iteration: carry the current iterate u^(l) and the
    # correction delta^(l) = u^(l+1) - u^(l). Both updates are algebraically
    # those of repeated Picard steps u <- period_map(dealias(|u|^2 u) + g);
    # the correction is propagated through the expanded cubic
    # difference so residuals stay accurate at any magnitude. Both series
    # are updated in place, u in the buffer of g's odd part.
    antiperiodic = sym.antiperiodic
    _linear_period_map_data(u, op, g.dt, out=u, antiperiodic=antiperiodic)
    if opts.nonlinearity_enabled:
        delta = _cubic_difference_data(None, u, grid, symmetry=sym)
        _linear_period_map_data(delta, op, g.dt, out=delta, antiperiodic=antiperiodic)
    else:
        delta = np.zeros_like(u)
    delta_series = FieldSeries(grid, delta, g.period, sym)

    history: list[float] = []
    converged = False
    diverged = False
    reason = None
    iterations = 0
    while True:
        res = z_norm(delta_series, delta_cutoffs)
        history.append(res)
        iterations += 1
        if not math.isfinite(res):
            raise NonFiniteField(_NON_FINITE)
        if res <= opts.z_tolerance:
            converged = True
        elif len(history) >= 4 and all(history[-k] > history[-k - 1] for k in (1, 2, 3)):
            diverged = True
            reason = (f"residual grew for 3 consecutive iterations "
                      f"(last {history[-1]:.3e}); forcing outside the contraction regime")
        # without the nonlinearity delta is zero, so the first iteration converges
        last = converged or diverged or iterations == opts.max_iterations
        if last:
            u += delta
        else:
            _cubic_difference_data(u, delta, grid, advance=True, symmetry=sym)
        if not _all_finite(u):
            raise NonFiniteField(_NON_FINITE)
        if last:
            break
        _linear_period_map_data(delta, op, g.dt, out=delta, antiperiodic=antiperiodic)
    del delta, delta_series  # before the final z_norm's chunk temporaries

    z_final = z_norm(u_series, cutoffs)
    scale = max(float(_node_l2_chunked(u_series).max()), np.finfo(float).tiny)
    first, last = (u_series.frequency_rows(slice(m, m + 1))[0] for m in (0, len(u_series) - 1))
    periodicity = float(np.sqrt(np.sum(np.abs(last - first) ** 2)
                                * grid.parseval_factor) / scale)
    c_est = (z_final / bracket) if bracket > 0 else None
    factor, factor_reason = _contraction_factor(history)

    report = PeriodicSolveReport(
        converged=converged, iterations=iterations, residual_history=history,
        periodicity_residual=periodicity, z_norm=z_final, g_bracket=bracket,
        c_estimate=c_est, contraction_factor=factor,
        diverged=diverged, divergence_reason=reason,
        contraction_factor_reason=factor_reason,
        layout={**asdict(sym), "nodes_held": len(u), "modes_per_node": u[0].size})
    return u_series, report


def equation_residual(u: Series, g: Series, op: LinearOperatorSpec,
                      include_nonlinearity: bool = True) -> float:
    """Solver-independent certificate: max over interior time nodes of
    ||D_t u + A u - dealias(|u|^2 u) - g||_{L2} / (1 + sup_t ||u||_{L2})
    with D_t the centered difference, for series u and g read by
    frequency_rows (the solve's u, the realized forcing, a FieldSeries).

    Streamed over chunks of interior nodes: each task reads its nodes of u
    with one halo node either side (nodes 0 and m_t are halos, so the sup
    takes every node) and its nodes of g, and builds the right-hand side and
    residual of its own nodes, so no series is allocated. The PDE is
    evaluated on every node of the whole lattice.
    """
    if len(u) != len(g) or u.grid.config != g.grid.config:
        raise ValueError("solution and forcing series are not aligned")
    grid = u.grid
    m_t = u.n_steps
    if m_t < 2:
        raise ValueError("need at least 3 time nodes")
    h = u.dt

    def task(rows):
        U = u.frequency_rows(slice(rows.start - 1, rows.stop + 1))
        G = g.frequency_rows(rows)
        if include_nonlinearity:
            G = _cubic_rows(None, U[1:-1], grid) + G
        dt = (U[2:] - U[:-2]) / (2.0 * h)
        return _node_l2(dt + op.symbol * U[1:-1] - G, grid).max(), _node_l2(U, grid).max()

    # a task's rows of u with their halos (CHUNK_NODES - 2 of them) are the largest
    # working set of the solve path; one that outgrows what the other kernels' tasks
    # left in the pool threads' arenas is faulted in anew by every task (reference
    # config: 27.7k minor faults per residual with 8 rows a task, 0.8k with 6)
    size = max(spectral.CHUNK_NODES - 4, 1)
    interior = [slice(start, min(start + size, m_t)) for start in range(1, m_t, size)]
    res, sup = np.max(map_chunks(task, interior), axis=0)
    return float(res) / (1.0 + float(sup))


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
