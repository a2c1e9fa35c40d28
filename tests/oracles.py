"""Reference forms that the tests hold the ndarray core against.

The package computes on frequency-stacked arrays; the forms below take and
return single fields (SpectralField) or whole series (FieldSeries) of
frequency data and allocate freely, so a test can state an identity in a
few lines.

* project, semigroup_apply, period_inverse_apply: the cutoffs, the symbol
  and period_inverse_symbol applied to one field. Criterion 1 and
  test_operators check them against closed forms, the semigroup law and the
  forward map; test_stability checks the stepper's linear step against
  semigroup_apply.
* inverse_multiplier_ratio, multiplier_bound: the scan of
  T|xi|^2 / |1 - e^{-T(1+i)|xi|^2}| over (0, r_inf], against its closed
  forms and its cap for T r_inf^2 <= 1.
* time_derivative: the periodic centered difference of the reference
  Z-norm in test_norms, against the streamed Z-norm.
* check_zero_mode: the mean-mode guard of period_inverse_apply and
  periodic_initial_data (ValueError); the solve needs none, since its
  forcing is odd: no mean mode on the octant, none beyond roundoff on the
  whole lattice, where period_inverse_symbol zeroes it.
* duhamel_integral, periodic_initial_data: the period map's prefix
  recurrence and inverse multiplier, one node at a time, against closed
  forms, oversampled quadrature and the fixed-point identity.
* whole_lattice_solve: the solve's difference-form loop on all n planes,
  run from the product kernels on any mean-free g, odd or not. The solve
  (odd g only, on the octant or the whole lattice) is held against it: u
  and the norms to roundoff, the memory peak by ratio, in test_solver and
  test_properties. is_antiperiodic is its antiperiodicity rule, the one
  Grid.symmetry_of applies, on whole arrays.
* cubic_rhs: dealias(|u|^2 u) + g over a whole series at once, against the
  solve's chunked cubic kernel (bit for bit) and inside
  split_equation_residual and the residual references.
* antiperiodicity_bound: the roundoff bound on the period map's
  antiperiodicity defect, for the full-period map of an antiperiodic F
  (test_properties) and for the half-period solve against the full-period
  one (test_solver).
* picard_step: one fixed-point update, against the solve's difference
  form and, in criterion 6, for oddness.
* whole_series: a series read by frequency_rows (the solve's u, the
  realized forcing) as a FieldSeries of every node.
* whole_lattice: the expansion of the octant's planes 0..n/2 of every axis
  (and of nodes 0..m_t/2), one node at a time, against
  FieldSeries.frequency_rows and, on physical data, the stepper's base
  nodes.
* multi_indices: the multi-indices |alpha| <= k, in order of |alpha|, over
  which the per-multi-index references of test_norms sum one inverse
  transform each.
* split_series, split_equation_residual: the low and high sub-systems,
  against equation_residual.
* WholeLatticeStepper: the run's stepper on all n planes, its nonlinear
  term as one ifftn and one fftn over all axes, any data, odd or not; the
  step itself is _Stepper.step, shared. The run's octant stepper is held
  against it to roundoff, and its whole-lattice one bit for bit
  (test_stability, test_properties).
* exp_step: one step of WholeLatticeStepper from a fresh start on a copy of
  the field, in criterion 6 for oddness and, in criterion 8, beside
  direct_step, one allocating step of the full forced flow.
* random_band_field: one battery draw as a field, against the battery
  stacks and the per-sample battery references.
* octant_fft_every_plane: the forward transform of octant physical data on
  every plane 0..n/2 of every axis, through its whole-lattice expansion,
  against OctantTransform.fft, which transforms the dealias planes only,
  and against the octant inverse.
* odd_residual: oddness measured in physical space off the seam, a rule
  independent of Grid.parity's even-part test, for the forcing, the
  perturbation, the maps of the solve and, in criterion 6, its iterates
  and the stepper.
* physical_forcing_bracket: [g] read from g's physical values and
  whole-lattice derivatives, against forcing_bracket, which reads L1_w
  through chunked inverse transforms (OctantTransform's inverse for octant
  data) and the H1_w sums on the held planes.
* write_physical_snapshot: a snapshot file holding physical values (flag
  0), which write_snapshot no longer writes, for read_snapshot's flag-0 path.
"""

import itertools
import math
from dataclasses import asdict, replace

import numpy as np

from glperiod import FieldSeries, PeriodicSolveReport, SolveOptions, SpectralField
from glperiod.errors import NonFiniteField
from glperiod.norms import _node_l2, forcing_bracket, z_norm
from glperiod.operators import period_inverse_symbol
from glperiod.periodic_solver import (_NON_FINITE, _all_finite, _contraction_factor,
                                      _cubic_difference_data, _integrate_into,
                                      _linear_period_map_data, _node_l2_chunked,
                                      _step_coefficients)
from glperiod.phi import phi1, phi2
from glperiod.spectral import ODDNESS_TOL, Symmetry, write_snapshot
from glperiod.stability import _rhs_data, _rhs_work, _Stepper
from glperiod.verification import _band_data, _band_envelope


def _multiply(f, values):
    """f times a mode-wise multiplier, Nyquist rows zeroed."""
    return SpectralField(f.grid, f.data * values * f.grid.keep_nyquist_free)


def project(f, which, cutoffs):
    """P_low (chi1) or P_high (chi_inf) of one field."""
    return _multiply(f, {"low": cutoffs.chi1, "high": cutoffs.chi_inf}[which])


def semigroup_apply(f, t, op):
    """exp(-t A) f: mode-wise factor exp(-t (1+i) |xi|^2), t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative; got {t}")
    return _multiply(f, np.exp(-t * op.symbol))


def check_zero_mode(data, tol):
    """Require the mean mode of frequency data stacked along axis 0 (a single
    field is a series of one node) to be at most tol times the largest
    per-node l2 norm of the coefficients; ValueError otherwise."""
    flat = data.reshape(data.shape[0], -1)
    total = float(np.sqrt((flat.real ** 2 + flat.imag ** 2).sum(axis=1).max()))
    worst = float(np.abs(flat[:, 0]).max())
    if total > 0 and worst > tol * total:
        raise ValueError(f"mean-mode magnitude {worst:.3e} exceeds {tol:.1e} * ||f|| = "
                         f"{tol * total:.3e} at some time node; the input is not mean-free")


def period_inverse_apply(f, op, zero_mode_tol=1e-10):
    """(1 - exp(-T A))^{-1} f on mean-free f; the xi = 0 mode is set to 0."""
    check_zero_mode(f.data[None], zero_mode_tol)
    return _multiply(f, period_inverse_symbol(op))


def inverse_multiplier_ratio(theta):
    """theta / |1 - exp(-(1+i) theta)| for theta = T |xi|^2 > 0."""
    theta = np.asarray(theta, dtype=float)
    return theta / np.abs(1.0 - np.exp(-(1.0 + 1.0j) * theta))


def multiplier_bound(op, cutoffs, samples=256):
    """C_mult: the largest inverse_multiplier_ratio over |xi| scanned
    uniformly over (0, r_inf]."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    xi = cutoffs.r_inf * np.arange(1, samples + 1) / samples
    return float(inverse_multiplier_ratio(op.period * xi ** 2).max())


def time_derivative(series):
    """Centered time difference of a periodic series (node m_t duplicates
    node 0), as an array."""
    body = series.data[:series.n_steps]
    out = np.empty_like(series.data)
    out[:-1] = (np.roll(body, -1, axis=0) - np.roll(body, 1, axis=0)) / (2.0 * series.dt)
    out[-1] = out[0]
    return out


def duhamel_integral(F, t_index, op):
    """int_0^{t_index h} e^{-(t-s)A} F(s) ds with F piecewise linear in time."""
    if not 0 <= t_index <= F.n_steps:
        raise IndexError(f"t_index {t_index} out of range 0..{F.n_steps}")
    I = np.empty((t_index + 1,) + F.data.shape[1:], dtype=complex)
    _integrate_into(I, F.data, *_step_coefficients(op, F.dt))
    return SpectralField(F.grid, I[t_index])


def periodic_initial_data(F, op, zero_mode_tol=1e-10):
    """u(0) = (1 - e^{-TA})^{-1} int_0^T e^{-(T-s)A} F(s) ds."""
    check_zero_mode(F.data, zero_mode_tol)
    I_T = duhamel_integral(F, F.n_steps, op).data
    return SpectralField(F.grid, period_inverse_symbol(op) * I_T * F.grid.keep_nyquist_free)


def cubic_rhs(U, G, grid):
    """dealias(|u|^2 u) + g of frequency-stacked U and G, all nodes at once."""
    axes = tuple(range(1, grid.dim + 1))
    phys = np.fft.ifftn(U, axes=axes)
    C = np.fft.fftn(phys * (phys.real ** 2 + phys.imag ** 2), axes=axes)
    C *= grid.dealias
    return C + G


def picard_step(u, g, op, nonlinearity=True):
    """One fixed-point update: the periodic response of dealias(|u|^2 u) + g."""
    F = G = g.frequency_rows(slice(None))
    if nonlinearity:
        F = _cubic_difference_data(None, u.data, u.grid)
        F += G
    return FieldSeries(u.grid, _linear_period_map_data(F, op, u.dt), u.period)


def whole_lattice_solve(g, op, cutoffs, opts=None):
    """solve_periodic's iteration on the whole lattice, for any mean-free g:
    the series it holds (u, delta) and the order of its kernel calls are
    those of solve_periodic, on all n planes of g whatever its parities.
    For an antiperiodic g the norms take nodes 0..m_t/2 (an
    antiperiodic FieldSeries), as the solve's do; the period maps run over
    the whole period."""
    opts = opts or SolveOptions()
    grid = g.grid
    G = g.frequency_rows(slice(None))
    sym = Symmetry(antiperiodic=is_antiperiodic(G, grid))
    nodes = (len(g) + 1) // 2 if sym.antiperiodic else len(g)
    bracket = forcing_bracket(FieldSeries(grid, G[:nodes], g.period, sym))
    delta_cutoffs = replace(cutoffs, chi_inf=cutoffs.chi_inf * grid.dealias)
    u = _linear_period_map_data(G, op, g.dt)
    del G
    if opts.nonlinearity_enabled:
        delta = _cubic_difference_data(None, u, grid)
        _linear_period_map_data(delta, op, g.dt, out=delta)
    else:
        delta = np.zeros_like(u)
    history, converged, diverged, reason = [], False, False, None
    while True:
        res = z_norm(FieldSeries(grid, delta[:nodes], g.period, sym), delta_cutoffs)
        history.append(res)
        if not math.isfinite(res):
            raise NonFiniteField(_NON_FINITE)
        if res <= opts.z_tolerance:
            converged = True
        elif len(history) >= 4 and all(history[-k] > history[-k - 1] for k in (1, 2, 3)):
            diverged = True
            reason = (f"residual grew for 3 consecutive iterations "
                      f"(last {history[-1]:.3e}); forcing outside the contraction regime")
        last = converged or diverged or len(history) == opts.max_iterations
        if last:
            u += delta
        else:
            _cubic_difference_data(u, delta, grid, advance=True)
        if not _all_finite(u):
            raise NonFiniteField(_NON_FINITE)
        if last:
            break
        _linear_period_map_data(delta, op, g.dt, out=delta)
    del delta
    z_final = z_norm(FieldSeries(grid, u[:nodes], g.period, sym), cutoffs)
    scale = max(float(_node_l2_chunked(FieldSeries(grid, u, g.period)).max()),
                np.finfo(float).tiny)
    periodicity = float(np.sqrt(np.sum(np.abs(u[-1] - u[0]) ** 2)
                                * grid.parseval_factor) / scale)
    factor, factor_reason = _contraction_factor(history)
    report = PeriodicSolveReport(
        converged=converged, iterations=len(history), residual_history=history,
        periodicity_residual=periodicity, z_norm=z_final, g_bracket=bracket,
        c_estimate=(z_final / bracket) if bracket > 0 else None,
        contraction_factor=factor, diverged=diverged, divergence_reason=reason,
        contraction_factor_reason=factor_reason,
        layout={**asdict(sym), "nodes_held": nodes, "modes_per_node": u[0].size})
    return FieldSeries(grid, u, g.period), report


def is_antiperiodic(G, grid):
    """The solve's antiperiodicity rule on whole frequency data G of every node:
    an even m_t and a periodic part (G[m] + G[m + m_t/2])/2 of at most
    ODDNESS_TOL of the peak (the test Grid.symmetry_of makes node pair by
    node pair), on whole arrays."""
    half = (len(G) - 1) // 2
    return len(G) % 2 == 1 and (float(np.abs(G[:half + 1] + G[half:]).max()) / 2
                                <= ODDNESS_TOL * float(np.abs(G).max()))


def antiperiodicity_bound(F, op):
    """Bound on max_m |u[m + m_t/2] + u[m]| / max |u| for u the period map of
    an antiperiodic F (zero in exact arithmetic). The recurrence rounds I at
    about 2 eps per step over m_t steps, and u0 = I(T) / (1 - e^{-T lambda})
    multiplies that by kappa = max 1/|1 - e^{-T lambda}| over F's modes (the
    low modes'). Measured: at most 0.26 of this bound on 660 random series
    (dims 1-3, m_t 2-12), 0.21 at the reference config."""
    m_t = len(F) - 1
    held = tuple(map(slice, F.shape[1:]))  # the leading planes F holds (Symmetry.held)
    kappa = np.abs(period_inverse_symbol(op)[held])[np.abs(F).max(axis=0) > 0].max()
    return 2 * (m_t + 4) * np.finfo(float).eps * kappa


def whole_series(series):
    """Every node of a series read by frequency_rows, as a FieldSeries: the
    whole-lattice, whole-period data of the solve's u or of the realized
    forcing, for tests that state identities on whole arrays."""
    return FieldSeries(series.grid, series.frequency_rows(slice(None)), series.period)


def whole_lattice(grid, held, nodes=None, parity=None):
    """Frequency data of every node from the data a FieldSeries holds, one
    node at a time: in the octant (`parity` set), axis after axis, planes
    n/2+1..n-1 of an axis are its parity times planes n/2-1..1, and planes 0
    and n/2 of an odd axis are 0 (they hold nothing of data odd there); with
    `nodes` = 2 len(held) - 1, node m + m_t/2 is minus node m. The reference
    expansion that FieldSeries.frequency_rows is held against, bit for bit."""
    out, h = np.empty((nodes or len(held),) + grid.shape, complex), grid.n // 2 + 1
    out[(slice(len(held)),) + tuple(map(slice, held.shape[1:]))] = held
    for node in out[:len(held)]:
        for axis, p in enumerate(parity or ()):
            lead = (slice(None),) * axis
            mirror = node[lead + (slice(h - 2, 0, -1),)]
            node[lead + (slice(h, None),)] = mirror if p > 0 else -mirror
            if p < 0:
                node[lead + (slice(0, h, h - 1),)] = 0
    np.negative(out[1:len(out) - len(held) + 1], out=out[len(held):])
    return out


def multi_indices(dim, k):
    """Every multi-index alpha of `dim` axes with |alpha| <= k, by |alpha|."""
    return [alpha for total in range(k + 1)
            for alpha in itertools.product(range(total + 1), repeat=dim) if sum(alpha) == total]


def split_series(u, cutoffs):
    """The low and high frequency parts of a series."""
    keep = u.grid.keep_nyquist_free
    return tuple(FieldSeries(u.grid, u.data * (chi * keep), u.period)
                 for chi in (cutoffs.chi1, cutoffs.chi_inf))


def split_equation_residual(u, g, op, cutoffs):
    """Residuals of the sub-systems D_t u_j + A u_j = P_j (dealias(|u|^2 u) + g),
    j = low, high, normalized as equation_residual normalizes the full one."""
    U = u.data
    F = cubic_rhs(U, g.data, u.grid)
    keep = u.grid.keep_nyquist_free
    scale = 1.0 + float(_node_l2(U, u.grid).max())
    out = []
    for chi in (cutoffs.chi1, cutoffs.chi_inf):
        Uj, Fj = U * (chi * keep), F * (chi * keep)
        R = (Uj[2:] - Uj[:-2]) / (2.0 * u.dt) + op.symbol * Uj[1:-1] - Fj[1:-1]
        out.append(float(_node_l2(R, u.grid).max()) / scale)
    return tuple(out)


class WholeLatticeStepper(_Stepper):
    """_Stepper on all n planes of frequency data and physical values on the
    whole lattice: the same coefficients, buffers and step, with the
    nonlinear term transformed by ifftn and fftn over all axes."""

    def __init__(self, grid, op, h):
        z = -h * op.symbol
        keep = grid.keep_nyquist_free
        self.kept = slice(None)
        self.decay = np.exp(z) * keep
        self.h_phi1 = h * phi1(z) * keep * grid.dealias
        self.h_phi2 = h * phi2(z) * keep * grid.dealias
        self.axes = tuple(range(grid.dim))
        self.w_phys, self.rhs, self.f_now, self.f_prev, self.spare = (
            np.empty(grid.shape, complex) for _ in range(5))
        self.work = _rhs_work(grid.shape)
        self.has_prev = False
        self.rhs_evals = 0

    def _nonlinear_hat(self, w_hat, v_phys, out):
        self.rhs_evals += 1
        np.fft.ifftn(w_hat, axes=self.axes, out=self.w_phys)
        return np.fft.fftn(_rhs_data(self.w_phys, v_phys, self.rhs, self.work),
                           axes=self.axes, out=out)


def exp_step(w, v_at_t, h, op, order=1, v_next=None, include_rhs=True):
    """One perturbation step of a fresh WholeLatticeStepper on a copy of w:
    exponential Euler at order 1, one ETD2RK step at order 2, the pure
    semigroup with include_rhs=False. The base v is given by its physical
    values on the whole lattice."""
    if not h > 0 or order not in (1, 2):
        raise ValueError(f"need h > 0 and order 1 or 2; got h={h}, order={order}")
    v_nxt = v_at_t if v_next is None else v_next
    out = WholeLatticeStepper(w.grid, op, h).step(w.data.copy(), v_at_t, v_nxt, order,
                                                  include_rhs)
    return SpectralField(w.grid, out)


def direct_step(u, g_at_t, g_next, h, op, order=2, nonlinearity=True):
    """One exponential step of the full forced flow
    du/dt + A u = dealias(|u|^2 u) + g: exponential Euler, or ETD2RK."""
    grid = u.grid
    z, keep = -h * op.symbol, grid.keep_nyquist_free
    decay, h_phi1, h_phi2 = np.exp(z) * keep, h * phi1(z) * keep, h * phi2(z) * keep

    def forcing_hat(u_hat, g_hat):
        return cubic_rhs(u_hat[None], g_hat, grid)[0] if nonlinearity else g_hat

    f_now = forcing_hat(u.data, g_at_t.data)
    out = decay * u.data + h_phi1 * f_now
    if order != 1:
        out = out + h_phi2 * (forcing_hat(out, g_next.data) - f_now)
    return SpectralField(grid, out)


def random_band_field(grid, rng, band, cutoffs, odd=False):
    """One battery draw: a random frequency-space field with unit L2 norm
    under the battery's envelope for band 'low', 'high' or 'full'; with `odd`
    the draw is antisymmetrized under xi -> -xi (mean mode zeroed) before
    it is normalized."""
    envelope = _band_envelope(grid, band, cutoffs)
    if not odd:
        return SpectralField(grid, _band_data(grid, rng, envelope))
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data = data * envelope * grid.keep_nyquist_free
    data = 0.5 * (data - grid.reflect(data))
    data.flat[0] = 0.0
    return SpectralField(grid, data / np.sqrt((data.real ** 2 + data.imag ** 2).sum()
                                              * grid.parseval_factor))


def octant_fft_every_plane(grid, phys, parity):
    """Planes 0..n/2 of every axis of the frequency data of physical data held
    on the octant of `parity` (stacked along axis 0): its whole-lattice
    expansion (whole_lattice; the reflections act alike on physical data),
    one fftn over every spatial axis, then the octant's planes."""
    whole = np.fft.fftn(whole_lattice(grid, phys, parity=parity), axes=grid.series_axes)
    return whole[(slice(None),) + (slice(grid.n // 2 + 1),) * grid.dim]


def odd_residual(f):
    """max |f(x) + f(-x)| / (1 + max |f|) over the physical nodes of a field
    off the seam (index 0 on some axis, whose mirror exists only by periodic
    identification)."""
    phys = np.fft.ifftn(f.data)
    resid = np.abs(phys + f.grid.reflect(phys))[(slice(1, None),) * f.grid.dim]
    return float(resid.max() / (1.0 + np.abs(phys).max()))


def physical_forcing_bracket(g):
    """[g] = ||g||_{L2(0,T;L1_w)} + ||g||_{L2(0,T;H1_w)} read in physical
    space, as the package computed it from a physical forcing series: the
    L1_w and alpha = 0 sums from the values, the first derivatives from the
    Nyquist-free multipliers, each node on its own."""
    grid, axes = g.grid, g.grid.series_axes
    weight = 1.0 + grid.x_abs
    phys = np.fft.ifftn(g.data, axes=axes)
    l1w = (weight * np.abs(phys)).sum(axis=axes) * grid.quad_weight
    h1w_sq = (weight ** 2 * np.abs(phys) ** 2).sum(axis=axes) * grid.quad_weight
    for axis in range(grid.dim):
        d = np.fft.ifftn(g.data * (1j * grid.xi[axis] * grid.keep_nyquist_free), axes=axes)
        h1w_sq += (weight ** 2 * np.abs(d) ** 2).sum(axis=axes) * grid.quad_weight
    return float(np.sqrt(np.trapezoid(l1w ** 2, dx=g.dt))
                 + np.sqrt(np.trapezoid(h1w_sq, dx=g.dt)))


def write_physical_snapshot(field, path):
    """write_snapshot's file for a field held as physical values: flag 0 and
    the values ifftn(field.data) as the payload."""
    write_snapshot(field, path)
    with open(path, "r+b") as fh:  # the flag, then the payload, after the 24-byte prefix
        fh.seek(24)
        fh.write((0).to_bytes(4, "little"))
        fh.write(np.ascontiguousarray(np.fft.ifftn(field.data), dtype="<c16").tobytes())
