"""Lebesgue, weighted Sobolev and space-time norms against independent
quadrature and assembly oracles."""

import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from glperiod import (FieldSeries, ForcingSpec, GridConfig, NormSuite, SpectralField,
                      auto_cutoffs, forcing_bracket, lp_norm, make_grid, norms,
                      realize_forcing, sobolev_norm, spacetime_norm, spectral,
                      x_weighted_gradient_norm, z_norm)
from glperiod.norms import _weighted_sq, weighted_hk_node_sq, x_gradient_node_sq
from glperiod.spectral import map_chunks, node_chunks

from conftest import (antiperiodic_series, dipole_symmetry, held_series, on_workers,
                      parity_part, random_field, random_physical_field, raw_odd_series,
                      raw_random_series)
from oracles import multi_indices, physical_forcing_bracket, time_derivative, whole_series


def _field(grid, values):
    """The field of physical values (its frequency data)."""
    return SpectralField(grid, np.fft.fftn(values))


def _series(grid, values, period):
    """The series of physical values stacked along axis 0."""
    return FieldSeries(grid, np.fft.fftn(values, axes=grid.series_axes), period)


class TestWeight:
    def test_at_least_one_and_even(self, grid3d):
        from glperiod import NormSuite
        suite = NormSuite.for_grid(grid3d)
        assert suite.weight.min() >= 1.0
        # even under the lattice reflection
        np.testing.assert_array_equal(grid3d.reflect(suite.weight), suite.weight)


class TestLpNorm:
    def test_constant_unweighted_l1_is_box_measure(self):
        grid = make_grid(GridConfig(dim=1, n_per_axis=16, box_length=2.0))
        f = _field(grid, np.ones(16))
        assert lp_norm(f, 1) == pytest.approx(2.0, rel=1e-14)

    def test_constant_weighted_l1_closed_form(self):
        # integral of (1+|x|) over [-1,1) is 3; the symmetric lattice
        # evaluates the piecewise-linear weight exactly
        grid = make_grid(GridConfig(dim=1, n_per_axis=64, box_length=2.0))
        f = _field(grid, np.ones(64))
        assert lp_norm(f, 1, weighted=True) == pytest.approx(3.0, rel=1e-12)

    def test_gaussian_l2_high_resolution_oracle(self):
        # ||exp(-x^2)||_L2 = (pi/2)^(1/4) on a box large enough to kill the tail
        cfg = GridConfig(dim=1, n_per_axis=256, box_length=40.0)
        grid = make_grid(cfg)
        f = _field(grid, np.exp(-grid.x1d ** 2))
        value = lp_norm(f, 2)
        fine = make_grid(GridConfig(dim=1, n_per_axis=1024, box_length=40.0))
        oracle = lp_norm(_field(fine, np.exp(-fine.x1d ** 2)), 2)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-12)

    def test_infinity_norm_is_max_modulus(self, grid3d, rng):
        f = random_field(grid3d, rng)
        assert lp_norm(f, math.inf) == np.abs(np.fft.ifftn(f.data)).max()

    def test_rejects_unsupported_exponent(self, grid1d):
        f = _field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match="exponent"):
            lp_norm(f, 4)

    def test_homogeneity_and_triangle(self, grid3d, rng):
        f = random_field(grid3d, rng)
        g = random_field(grid3d, rng)
        for p in (1, 2, 3, 6, math.inf):
            for weighted in (False, True):
                n_f = lp_norm(f, p, weighted)
                scaled = lp_norm(SpectralField(f.grid, 2.5 * f.data), p, weighted)
                assert scaled == pytest.approx(2.5 * n_f, rel=1e-10)
                n_sum = lp_norm(SpectralField(f.grid, f.data + g.data), p, weighted)
                assert n_sum <= n_f + lp_norm(g, p, weighted) + 1e-10

    def test_unweighted_below_weighted(self, grid3d, rng):
        f = random_field(grid3d, rng)
        for p in (1, 2, 3, 6, math.inf):
            assert lp_norm(f, p) <= lp_norm(f, p, weighted=True)


class TestSobolevNorm:
    def test_constant_field_any_order(self, grid1d):
        f = _field(grid1d, np.full(grid1d.shape, 2.0))
        l2 = lp_norm(f, 2)
        for k in (0, 1, 2, 3):
            assert sobolev_norm(f, k) == pytest.approx(l2, rel=1e-13)

    def test_single_mode_order_one(self, grid1d):
        k = 3
        f = _field(grid1d, np.exp(1j * grid1d.xi1d[k] * grid1d.x1d))
        expected = lp_norm(f, 2) * np.sqrt(1.0 + grid1d.xi1d[k] ** 2)
        assert sobolev_norm(f, 1) == pytest.approx(expected, rel=1e-12)

    def test_h1_assembled_from_l2_pieces(self, grid3d, rng):
        f = random_field(grid3d, rng)
        total = lp_norm(f, 2) ** 2
        for axis in range(3):
            d = f.data * (1j * grid3d.xi[axis]) * grid3d.keep_nyquist_free
            total += lp_norm(SpectralField(grid3d, d), 2) ** 2
        assert sobolev_norm(f, 1) == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_weighted_matches_bruteforce(self, grid3d, rng):
        f = random_field(grid3d, rng)
        fhat = f.data
        w = 1.0 + grid3d.x_abs
        total = 0.0
        for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            sym = np.ones(grid3d.shape, dtype=complex)
            for axis, p in enumerate(alpha):
                if p:
                    sym = sym * (1j * grid3d.xi[axis]) ** p
            if sum(alpha):
                sym = sym * grid3d.keep_nyquist_free
            phys = np.fft.ifftn(fhat * sym)
            total += ((w * np.abs(phys)) ** 2).sum() * grid3d.quad_weight
        assert sobolev_norm(f, 1, weighted=True) == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_rejects_large_k(self, grid1d):
        with pytest.raises(ValueError):
            sobolev_norm(_field(grid1d, np.ones(grid1d.shape)), 4)


class TestXWeightedGradient:
    def test_constant_gives_zero(self, grid3d):
        f = _field(grid3d, np.ones(grid3d.shape))
        assert x_weighted_gradient_norm(f) == 0.0

    def test_sine_against_quadrature_oracle(self):
        # f = sin(x) on the 2*pi box: || x cos x ||_L2 with closed form
        # sqrt(pi^3/3 + pi/2); lattice quadrature converges at second order
        value_n = {}
        for n in (64, 256):
            grid = make_grid(GridConfig(dim=1, n_per_axis=n, box_length=2 * np.pi))
            value_n[n] = x_weighted_gradient_norm(_field(grid, np.sin(grid.x1d)))
        closed = np.sqrt(np.pi ** 3 / 3.0 + np.pi / 2.0)
        assert value_n[64] == pytest.approx(value_n[256], rel=2e-3)
        assert value_n[256] == pytest.approx(closed, rel=2e-4)

    def test_reflection_invariance(self, grid3d, rng):
        f = random_field(grid3d, rng)
        mirrored = SpectralField(grid3d, grid3d.reflect(f.data))
        assert x_weighted_gradient_norm(f) == pytest.approx(
            x_weighted_gradient_norm(mirrored), rel=1e-12)


def _cosine_series(grid, f_data, m_t, period):
    t = np.arange(m_t + 1)
    phase = np.cos(2 * np.pi * (t % m_t) / m_t)
    data = phase[(slice(None),) + (None,) * grid.dim] * f_data
    return _series(grid, data, period)


class TestSpaceTimeNorms:
    def test_zero_series(self, grid3d):
        s = _series(grid3d,
                        np.zeros((9,) + grid3d.shape, dtype=complex), 1.0)
        assert spacetime_norm(s, "X") == 0.0
        assert spacetime_norm(s, "Y") == 0.0

    def test_time_constant_x_norm(self, grid3d, rng):
        T, m_t = 1.0, 16
        phys = random_physical_field(grid3d, rng)
        f = _field(grid3d, phys)
        s = _series(grid3d, np.broadcast_to(phys, (m_t + 1,) + grid3d.shape), T)
        expected = (np.sqrt(T) * lp_norm(f, 2)
                    + np.sqrt(T) * x_weighted_gradient_norm(f))
        assert spacetime_norm(s, "X") == pytest.approx(expected, rel=1e-10)

    def test_cosine_series_x_norm_closed_form(self, grid3d, rng):
        T, m_t = 2.0, 16
        h = T / m_t
        omega = 2 * np.pi / T
        omega_d = np.sin(omega * h) / h  # centered-difference symbol
        phys = random_physical_field(grid3d, rng)
        f, s = _field(grid3d, phys), _cosine_series(grid3d, phys, m_t, T)
        expected = (np.sqrt(T / 2 * (1 + omega_d ** 2)) * lp_norm(f, 2)
                    + np.sqrt(T / 2 * (1 + omega_d ** 2)) * x_weighted_gradient_norm(f)
                    + np.sqrt(T / 2) * omega_d * lp_norm(f, 2, weighted=True))
        assert spacetime_norm(s, "X") == pytest.approx(expected, rel=1e-12)

    def test_cosine_series_y_norm_closed_form(self, grid3d, rng):
        T, m_t = 2.0, 16
        h = T / m_t
        omega = 2 * np.pi / T
        omega_d = np.sin(omega * h) / h
        phys = random_physical_field(grid3d, rng)
        f, s = _field(grid3d, phys), _cosine_series(grid3d, phys, m_t, T)
        h1, h2, h3 = (sobolev_norm(f, k, weighted=True) for k in (1, 2, 3))
        expected = (h2  # max over nodes of |cos| * H2_w
                    + np.sqrt(T / 2) * h3
                    + np.sqrt(T / 2 * (1 + omega_d ** 2)) * h1)
        assert spacetime_norm(s, "Y") == pytest.approx(expected, rel=1e-12)

    def test_needs_three_nodes(self, grid3d):
        s = _series(grid3d,
                        np.zeros((2,) + grid3d.shape, dtype=complex), 1.0)
        with pytest.raises(ValueError, match="time nodes"):
            spacetime_norm(s, "X")

    def test_z_norm_is_x_plus_y(self, grid3d, cutoffs3d, rng):
        data = np.stack([random_physical_field(grid3d, rng) for _ in range(9)])
        s = _series(grid3d, data, 1.0)
        z = z_norm(s, cutoffs3d)
        assert z == pytest.approx(spacetime_norm(s, "X", cutoffs3d)
                                  + spacetime_norm(s, "Y", cutoffs3d), rel=1e-14)


class TestForcingBracket:
    def test_zero(self, grid3d):
        s = _series(grid3d, np.zeros((9,) + grid3d.shape, dtype=complex), 1.0)
        assert forcing_bracket(s) == 0.0

    def test_homogeneity(self, grid3d, rng):
        data = np.stack([random_physical_field(grid3d, rng) for _ in range(9)])
        s = _series(grid3d, data, 1.0)
        s2 = _series(grid3d, 3.0 * data, 1.0)
        assert forcing_bracket(s2) == pytest.approx(3.0 * forcing_bracket(s), rel=1e-12)

    def test_separable_assembly(self, grid3d, rng):
        # [a(t) G(x)] = ||a||_{L2(0,T)} (||G||_{L1_w} + ||G||_{H1_w})
        T, m_t = 1.0, 16
        phys = random_physical_field(grid3d, rng)
        G = _field(grid3d, phys)
        t = np.arange(m_t + 1)
        a = np.sin(2 * np.pi * (t % m_t) / m_t)
        data = a[(slice(None),) + (None,) * 3] * phys
        s = _series(grid3d, data, T)
        a_l2 = np.sqrt(T / 2.0)  # trapezoid of sin^2 over one period
        expected = a_l2 * (lp_norm(G, 1, weighted=True)
                           + sobolev_norm(G, 1, weighted=True))
        assert forcing_bracket(s) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("m_t", [16, 64])
    def test_matches_the_physical_space_reference(self, grid3d, m_t):
        # [g] of the forcing, with L1_w read through chunked inverse
        # transforms, and [g] as the solve reads it, from the octant that it
        # takes after Grid.symmetry_of (planes 0..n/2 of every axis, planes 0
        # and n/2 of the odd axis zeroed) on half the period: each the
        # physical-space formula of its series to roundoff
        g = whole_series(realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, m_t))
        sym = grid3d.symmetry_of(g, "forcing")
        assert sym == dipole_symmetry(grid3d, antiperiodic=True)
        held = g.data[(slice(m_t // 2 + 1),) + sym.held(grid3d)].copy()
        octant = FieldSeries(grid3d, grid3d.clear_odd_planes(held, sym.parity), g.period, sym)
        assert forcing_bracket(g) == pytest.approx(physical_forcing_bracket(g), rel=1e-14, abs=0)
        assert forcing_bracket(octant) == pytest.approx(
            physical_forcing_bracket(whole_series(octant)), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# Per-multi-index reference: one full inverse transform of the whole series
# per alpha, time derivatives by transforming the centered difference.
# ---------------------------------------------------------------------------


def _ref_alpha_symbol(grid, alpha):
    """Frequency multiplier of d^alpha, Nyquist-zeroed for |alpha| >= 1."""
    sym = np.ones(grid.shape, dtype=complex)
    for axis, power in enumerate(alpha):
        if power:
            sym = sym * (1j * grid.xi[axis]) ** power
    if sum(alpha) >= 1:
        sym = sym * grid.keep_nyquist_free
    return sym


def _ref_axes(grid):
    return tuple(range(1, grid.dim + 1))


def _ref_node_l2(data, grid):
    abs_sq = data.real ** 2 + data.imag ** 2
    return np.sqrt(abs_sq.sum(axis=_ref_axes(grid)) * grid.parseval_factor)


def _ref_hk(data, grid, k_max):
    suite = NormSuite.for_grid(grid)
    axes = _ref_axes(grid)
    cums = {k: np.zeros(data.shape[0]) for k in range(k_max + 1)}
    for alpha in multi_indices(grid.dim, k_max):
        phys = np.fft.ifftn(data * _ref_alpha_symbol(grid, alpha), axes=axes)
        contrib = ((phys.real ** 2 + phys.imag ** 2) * suite.weight_sq).sum(axis=axes) \
            * grid.quad_weight
        for k in range(sum(alpha), k_max + 1):
            cums[k] += contrib
    return {k: np.sqrt(v) for k, v in cums.items()}


def _ref_x_grad(data, grid):
    suite = NormSuite.for_grid(grid)
    axes = _ref_axes(grid)
    grad_sq = np.zeros(data.shape[0:1] + grid.shape)
    for axis in range(grid.dim):
        alpha = tuple(1 if a == axis else 0 for a in range(grid.dim))
        phys = np.fft.ifftn(data * _ref_alpha_symbol(grid, alpha), axes=axes)
        grad_sq += phys.real ** 2 + phys.imag ** 2
    return np.sqrt((grad_sq * suite.x_abs_sq).sum(axis=axes) * grid.quad_weight)


def _ref_x_norm(series):
    grid, h = series.grid, series.dt
    axes = _ref_axes(grid)
    data = series.data
    dt_data = time_derivative(series)
    l2, l2_dt = _ref_node_l2(data, grid), _ref_node_l2(dt_data, grid)
    xg, xg_dt = _ref_x_grad(data, grid), _ref_x_grad(dt_data, grid)
    dt_phys = np.fft.ifftn(dt_data, axes=axes)
    l2w_dt = np.sqrt(((dt_phys.real ** 2 + dt_phys.imag ** 2)
                      * NormSuite.for_grid(grid).weight_sq).sum(axis=axes)
                     * grid.quad_weight)
    return float(np.sqrt(np.trapezoid(l2 ** 2 + l2_dt ** 2, dx=h))
                 + np.sqrt(np.trapezoid(xg ** 2 + xg_dt ** 2, dx=h))
                 + np.sqrt(np.trapezoid(l2w_dt ** 2, dx=h)))


def _ref_y_norm(series):
    grid, h = series.grid, series.dt
    hk = _ref_hk(series.data, grid, 3)
    h1_dt = _ref_hk(time_derivative(series), grid, 1)[1]
    return float(hk[2].max()
                 + np.sqrt(np.trapezoid(hk[3] ** 2, dx=h))
                 + np.sqrt(np.trapezoid(hk[1] ** 2 + h1_dt ** 2, dx=h)))


def _ref_spacetime_norm(series, kind, cutoffs=None):
    if cutoffs is not None:
        chi = cutoffs.chi1 if kind == "X" else cutoffs.chi_inf
        series = FieldSeries(series.grid, series.data * (chi * series.grid.keep_nyquist_free),
                             series.period)
    return _ref_x_norm(series) if kind == "X" else _ref_y_norm(series)


def _ref_forcing_bracket(g):
    grid, h = g.grid, g.dt
    axes = _ref_axes(grid)
    data = g.data
    phys = np.fft.ifftn(data, axes=axes)
    l1w = (np.abs(phys) * NormSuite.for_grid(grid).weight).sum(axis=axes) * grid.quad_weight
    h1w = _ref_hk(data, grid, 1)[1]
    return float(np.sqrt(np.trapezoid(l1w ** 2, dx=h)) + np.sqrt(np.trapezoid(h1w ** 2, dx=h)))


def _ref_sobolev_norm(f, k, weighted=True):
    """Weighted (or plain) H^k norm of one field: one full inverse transform
    per multi-index |alpha| <= k."""
    grid = f.grid
    w2 = NormSuite.for_grid(grid).weight_sq if weighted else 1.0
    freq = f.data
    total = 0.0
    for alpha in multi_indices(grid.dim, k):
        phys = np.fft.ifftn(freq * _ref_alpha_symbol(grid, alpha))
        total += (w2 * (phys.real ** 2 + phys.imag ** 2)).sum() * grid.quad_weight
    return float(np.sqrt(total))


def _ref_x_weighted_gradient_norm(f):
    """|| |x| |grad f| ||_{L2} of one field: one full inverse transform per
    axis."""
    grid, suite = f.grid, NormSuite.for_grid(f.grid)
    freq = f.data
    grad_sq = np.zeros(grid.shape)
    for axis in range(grid.dim):
        alpha = tuple(1 if a == axis else 0 for a in range(grid.dim))
        phys = np.fft.ifftn(freq * _ref_alpha_symbol(grid, alpha))
        grad_sq += phys.real ** 2 + phys.imag ** 2
    return float(np.sqrt((suite.x_abs_sq * grad_sq).sum() * grid.quad_weight))


# ---------------------------------------------------------------------------
# Allocating tree reference: the derivative tree and node sums as they were
# before the passes moved into task-owned buffers, with whole halo chunks and
# no pruned lines. The buffered tree must reproduce its node sums bit for bit.
# ---------------------------------------------------------------------------


def _ref_derivative_tree(block, grid, k, nyquist_free, skip_zero=False):
    dim = grid.dim
    symbols = NormSuite.for_grid(grid).axis_symbols
    if not nyquist_free:
        if not skip_zero:
            yield (0,) * dim, np.fft.ifftn(block, axes=tuple(range(1, dim + 1)))
        block = block * grid.keep_nyquist_free
        skip_zero = True

    def walk(field, alpha):
        axis = len(alpha)
        first = int(skip_zero and axis == dim - 1 and not any(alpha))
        for a in range(first, k - sum(alpha) + 1):
            phys = np.fft.ifftn(field * symbols[axis][a] if a else field, axes=(axis + 1,))
            if axis == dim - 1:
                yield alpha + (a,), phys
            else:
                yield from walk(phys, alpha + (a,))

    yield from walk(block, ())


def _ref_node_sums(data, grid, k, chi, n_sums, add, halo=True, skip_zero=False):
    NormSuite.for_grid(grid)
    m_t = data.shape[0] - 1
    mask = None if chi is None else chi * grid.keep_nyquist_free

    def task(rows):
        if halo:
            block = data[np.r_[(rows.start - 1) % m_t, rows, rows.stop % m_t]]
            if mask is not None:
                block *= mask
        else:
            block = data[rows] if mask is None else data[rows] * mask
        out = np.zeros((n_sums, rows.stop - rows.start))
        for alpha, d_alpha in _ref_derivative_tree(block, grid, k, mask is not None,
                                                   skip_zero):
            add(out, alpha, d_alpha)
        return out

    chunks = [*node_chunks(m_t), slice(m_t, m_t + 1)] if halo else node_chunks(m_t + 1)
    return np.concatenate(map_chunks(task, chunks), axis=1)


def _ref_adds(grid, h):
    """The reference's add callbacks: (block of d^alpha with its halo) ->
    node sums, for X, Y and the weighted H^k / |x| gradient sums."""
    suite = NormSuite.for_grid(grid)

    def x_add(out, alpha, phys):
        node, diff = phys[1:-1], phys[2:] - phys[:-2]
        if any(alpha):
            out[1] += (_weighted_sq(node, suite.flat("x_abs_sq"))
                       + _weighted_sq(diff, suite.flat("x_abs_sq")) / (4 * h * h))
        else:
            out[0] = (_weighted_sq(node, suite.flat("quad"))
                      + _weighted_sq(diff, suite.flat("quad")) / (4 * h * h))
            out[2] = _weighted_sq(diff, suite.flat("weight_sq")) / (4 * h * h)

    def y_add(out, alpha, phys):
        out[sum(alpha)] += _weighted_sq(phys[1:-1], suite.flat("weight_sq"))
        if sum(alpha) <= 1:
            out[4] += _weighted_sq(phys[2:] - phys[:-2], suite.flat("weight_sq")) / (4 * h * h)

    def hk_add(out, alpha, phys):
        out[sum(alpha)] += _weighted_sq(phys, suite.flat("weight_sq"))

    def xg_add(out, alpha, phys):
        out[0] += _weighted_sq(phys, suite.flat("x_abs_sq"))

    return x_add, y_add, hk_add, xg_add


def _ref_node_sums_for(data, grid, k, chi, n_sums, add, dt_order=-1, skip_zero=False,
                       symmetry=spectral.WHOLE):
    """norms._node_sums computed by the reference tree, for a buffered-style
    add(out, alpha, node, diff): the reference's allocations, same results
    (full lattice only; an antiperiodic series' nodes take the sums of
    nodes 0..m_t/2 - 1, as the fold does)."""
    assert not symmetry.held(grid)
    halo = dt_order >= 0

    def block_add(out, alpha, phys):
        if halo and sum(alpha) <= dt_order:
            add(out, alpha, phys[1:-1], phys[2:] - phys[:-2])
        else:
            add(out, alpha, phys[1:-1] if halo else phys, None)

    sums = _ref_node_sums(data, grid, k, chi, n_sums, block_add, halo, skip_zero)
    m_t = len(data) - 1
    return sums[:, np.arange(m_t + 1) % (m_t // 2)] if symmetry.antiperiodic else sums


_ORACLE_GRIDS = {1: 32, 2: 16, 3: 16}


class TestFieldNormOracle:
    """Single-field norms and their stacked forms on the derivative tree
    against the per-multi-index and per-axis references, on raw random
    fields (Nyquist modes populated)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fields", [1, 8, 21])
    def test_stacks_match_reference(self, dim, fields):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        data = raw_random_series(grid, fields - 1, np.random.default_rng(31 * dim + fields))
        singles = [SpectralField(grid, d) for d in data]
        hk = weighted_hk_node_sq(data, grid, 3)
        for k in range(4):
            ref = [_ref_sobolev_norm(f, k) for f in singles]
            np.testing.assert_allclose(np.sqrt(hk[k]), ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(np.sqrt(weighted_hk_node_sq(data, grid, k)[k]), ref,
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose([sobolev_norm(f, k, weighted=True) for f in singles],
                                       ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose([sobolev_norm(f, k) for f in singles],
                                       [_ref_sobolev_norm(f, k, False) for f in singles],
                                       rtol=1e-13, atol=0)
        ref = [_ref_x_weighted_gradient_norm(f) for f in singles]
        np.testing.assert_allclose(np.sqrt(x_gradient_node_sq(data, grid)), ref,
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose([x_weighted_gradient_norm(f) for f in singles], ref,
                                   rtol=1e-13, atol=0)

    def test_physical_input(self, grid3d, rng):
        f = _field(grid3d, raw_random_series(grid3d, 0, rng)[0])
        for k in range(4):
            assert sobolev_norm(f, k, weighted=True) == pytest.approx(
                _ref_sobolev_norm(f, k), rel=1e-13)
        assert x_weighted_gradient_norm(f) == pytest.approx(
            _ref_x_weighted_gradient_norm(f), rel=1e-13)


class TestPerMultiIndexOracle:
    """The chunked derivative tree against the per-multi-index reference on
    raw random series (Nyquist modes present, node m_t unrelated to node 0)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [8, 21, 64])
    def test_norms_match_reference(self, dim, m_t):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        cutoffs = auto_cutoffs(grid, 1.3)
        rng = np.random.default_rng(1000 * dim + m_t)
        shape = (m_t + 1,) + grid.shape
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = _series(grid, data, 1.3)
        ref = {kind: _ref_spacetime_norm(s, kind, cutoffs) for kind in "XY"}
        assert z_norm(s, cutoffs) == pytest.approx(ref["X"] + ref["Y"], rel=1e-13)
        for kind in "XY":
            assert spacetime_norm(s, kind, cutoffs) == pytest.approx(ref[kind], rel=1e-13)
            assert spacetime_norm(s, kind) == pytest.approx(
                _ref_spacetime_norm(s, kind), rel=1e-13)
        assert forcing_bracket(s) == pytest.approx(_ref_forcing_bracket(s), rel=1e-13)


class TestWorkerCount:
    """Every series norm is the same, bit for bit, on one or two workers and
    for any chunk size (chunk counts uneven: m_t 8 and 21 with 8-node
    chunks)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [8, 21])
    def test_one_and_two_workers_agree(self, monkeypatch, dim, m_t):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        cutoffs = auto_cutoffs(grid, 1.3)
        data = raw_random_series(grid, m_t, np.random.default_rng(7 * dim + m_t))
        s = _series(grid, data, 1.3)

        def norms():
            return ([z_norm(s, cutoffs),
                     *(spacetime_norm(s, kind, cutoffs) for kind in "XY"),
                     *(spacetime_norm(s, kind) for kind in "XY"),
                     forcing_bracket(s)],
                    weighted_hk_node_sq(s.data, grid, 3, cutoffs.chi_inf))

        one = on_workers(monkeypatch, 1, norms)
        two = on_workers(monkeypatch, 2, norms)
        assert one[0] == two[0]
        assert np.array_equal(one[1], two[1])
        # node sums reduce each row on its own, so the chunk size is free too
        for chunk_nodes in (1, 3):
            monkeypatch.setattr(spectral, "CHUNK_NODES", chunk_nodes)
            other = on_workers(monkeypatch, 2, norms)
            assert one[0] == other[0]
            assert np.array_equal(one[1], other[1])


class TestBufferedTree:
    """The buffered tree (task-owned buffers, halo trimmed above the orders
    whose time differences are read) against the allocating reference:
    every per-node sum bit for bit, on raw fields with Nyquist modes, for
    chunk sizes 1, 3 and 8 and 1 or 2 workers, with every whole-lattice pass
    over all lines whatever the mask. A mask set only on Nyquist lines
    (chi_inf when r1 exceeds every other |xi|) is zero once projected, and
    must give zero sums."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("mask", ["chi1", "chi_inf", "nyquist_only", None])
    def test_node_sums_match_reference(self, monkeypatch, dim, mask):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        m_t, period = 10, 1.3
        h = period / m_t
        if mask == "nyquist_only":
            chi = 1.0 - grid.keep_nyquist_free
        else:
            chi = None if mask is None else getattr(auto_cutoffs(grid, period), mask)
        data = raw_random_series(grid, m_t, np.random.default_rng(11 * dim + len(str(mask))))
        x_add, y_add, hk_add, xg_add = _ref_adds(grid, h)
        ref = {
            "x": _ref_node_sums(data, grid, 1, chi, 3, x_add),
            "y": _ref_node_sums(data, grid, 3, chi, 5, y_add),
            "xg": _ref_node_sums(data, grid, 1, None, 1, xg_add, halo=False,
                                 skip_zero=True)[0],
            **{("hk", k): np.cumsum(_ref_node_sums(data, grid, k, chi, k + 1, hk_add,
                                                   halo=False), axis=0)
               for k in range(4)},
        }
        if mask is None:  # the bracket's H1_w sums, unmasked, a row per order
            ref["bracket"] = _ref_node_sums(data, grid, 1, None, 2, hk_add, halo=False)
        node_sums = norms._node_sums

        def buffered():
            got = {}

            def recording(name):
                def call(*args, **kwargs):
                    got[name] = node_sums(*args, **kwargs)
                    return got[name]
                return call

            monkeypatch.setattr(norms, "_node_sums", recording("x"))
            norms._x_norm(data, grid, chi, h)
            monkeypatch.setattr(norms, "_node_sums", recording("y"))
            norms._y_norm(data, grid, chi, h)
            if mask is None:
                monkeypatch.setattr(norms, "_node_sums", recording("bracket"))
                forcing_bracket(FieldSeries(grid, data, period))
            monkeypatch.setattr(norms, "_node_sums", node_sums)
            got["xg"] = x_gradient_node_sq(data, grid)
            for k in range(4):
                got["hk", k] = weighted_hk_node_sq(data, grid, k, chi)
            return got

        for chunk_nodes in (1, 3, 8):
            monkeypatch.setattr(spectral, "CHUNK_NODES", chunk_nodes)
            for workers in (1, 2):
                got = on_workers(monkeypatch, workers, buffered)
                assert got.keys() == ref.keys()
                for key in ref:
                    assert np.array_equal(got[key], ref[key]), (key, chunk_nodes, workers)
        if mask == "nyquist_only":
            assert not any(np.any(ref[key]) for key in ref if key != "xg")


class TestHalfLattice:
    """The folded path of X and Y on octant series (planes 0..n/2, half of
    every axis, of data odd in x_0 and even in the later axes) against the
    allocating full-lattice reference, to rtol 1e-13 per node sum, for
    chunk sizes 1, 3 and 8 and 1 or 2 workers; X with chi1 prunes planes,
    Y with chi_inf does not."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["X", "Y"])
    def test_node_sums_match_reference(self, monkeypatch, dim, kind):
        self.check_node_sums(monkeypatch, dim, kind, "chi1" if kind == "X" else "chi_inf")

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind, mask", [("X", "chi_inf"), ("X", None), ("Y", "chi1"),
                                            ("Y", None)])
    def test_node_sums_match_reference_on_other_masks(self, monkeypatch, dim, kind, mask):
        # no mask: the alpha = 0 fields keep their Nyquist modes
        self.check_node_sums(monkeypatch, dim, kind, mask)

    @staticmethod
    def check_node_sums(monkeypatch, dim, kind, mask):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        m_t, period = 10, 1.3
        h = period / m_t
        cutoffs = auto_cutoffs(grid, period)
        chi = None if mask is None else getattr(cutoffs, mask)
        sym = dipole_symmetry(grid)
        data = parity_part(grid, raw_odd_series(grid, m_t, np.random.default_rng(
            17 * dim + len(kind))), sym.parity)
        x_add, y_add, _, _ = _ref_adds(grid, h)
        k, n_sums, ref_add = (1, 3, x_add) if kind == "X" else (3, 5, y_add)
        ref = _ref_node_sums(data, grid, k, chi, n_sums, ref_add)
        norm = norms._x_norm if kind == "X" else norms._y_norm
        node_sums = norms._node_sums
        octant = held_series(grid, data, period, sym)

        def folded():
            got = []

            def recording(*args, **kwargs):
                assert kwargs["symmetry"] == sym
                got.append(node_sums(*args, **kwargs))
                return got[-1]

            monkeypatch.setattr(norms, "_node_sums", recording)
            norm(octant.data, grid, chi, h, sym)
            monkeypatch.setattr(norms, "_node_sums", node_sums)
            return got[0]

        s = FieldSeries(grid, data, period)
        if mask in (None, "chi1" if kind == "X" else "chi_inf"):  # spacetime_norm's pairing
            band = None if mask is None else cutoffs
            assert spacetime_norm(octant, kind, band) == pytest.approx(
                spacetime_norm(s, kind, band), rel=1e-13)
        for chunk_nodes in (1, 3, 8):
            monkeypatch.setattr(spectral, "CHUNK_NODES", chunk_nodes)
            for workers in (1, 2):
                np.testing.assert_allclose(on_workers(monkeypatch, workers, folded), ref,
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_norms_are_those_of_the_odd_part(self, dim):
        # data with no parity: an octant series of planes 0..n/2 of its part
        # of the dipole's parities has that part's norms, and an octant view
        # of an array holding those planes and others reads those planes only
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        cutoffs = auto_cutoffs(grid, 1.3)
        sym = dipole_symmetry(grid)
        data = raw_random_series(grid, 8, np.random.default_rng(dim))
        part_data = parity_part(grid, data, sym.parity)
        part = FieldSeries(grid, part_data, 1.3)
        octant = FieldSeries(grid, part_data[(slice(None),) + sym.held(grid)].copy(), 1.3, sym)
        assert octant.data.shape[1:] == (grid.n // 2 + 1,) * dim
        assert z_norm(octant, cutoffs) == pytest.approx(z_norm(part, cutoffs), rel=1e-13)
        for kind in "XY":
            assert spacetime_norm(octant, kind) == pytest.approx(
                spacetime_norm(part, kind), rel=1e-13)
        data[(slice(None),) + sym.held(grid)] = octant.data  # other planes: no parity
        view = FieldSeries(grid, data[(slice(None),) + sym.held(grid)], 1.3, sym)
        assert z_norm(view, cutoffs) == z_norm(octant, cutoffs)

    def test_mask_must_be_even(self, grid3d, cutoffs3d):
        sym = dipole_symmetry(grid3d)
        s = held_series(grid3d, parity_part(grid3d, raw_odd_series(
            grid3d, 4, np.random.default_rng(0)), sym.parity), 1.0, sym)
        chi = cutoffs3d.chi1.copy()
        chi[1, 0, 0] = 0.5
        with pytest.raises(ValueError, match="even"):
            norms._x_norm(s.data, grid3d, chi, s.dt, sym)


def _half_period(s):
    """Nodes 0..m_t/2 of an antiperiodic series, held as such."""
    return FieldSeries(s.grid, s.data[:s.n_steps // 2 + 1], s.period,
                       replace(s.symmetry, antiperiodic=True))


class TestHalfPeriod:
    """Z-norms and [g] of an antiperiodic series held and summed on one half
    period (FieldSeries.antiperiodic) against every node, on the whole
    lattice and on the octant."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("m_t", [2, 10, 32])
    def test_folded_norms_match_every_node(self, dim, odd, m_t):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_ORACLE_GRIDS[dim],
                                    box_length=32.0))
        cutoffs = auto_cutoffs(grid, 1.3)
        rng = np.random.default_rng(7 * dim + m_t + odd)
        sym = dipole_symmetry(grid)
        data = antiperiodic_series(parity_part(grid, raw_odd_series(grid, m_t, rng), sym.parity)
                                   if odd else raw_random_series(grid, m_t, rng))
        whole = FieldSeries(grid, data, 1.3)
        s = held_series(grid, data, 1.3, sym) if odd else whole
        for norm in (partial(z_norm, cutoffs=cutoffs), partial(spacetime_norm, kind="X"),
                     partial(spacetime_norm, kind="Y")):
            assert norm(_half_period(s)) == pytest.approx(norm(s), rel=1e-13)
        for g in (whole, s):  # on the octant too, L1_w on its planes
            assert forcing_bracket(_half_period(g)) == pytest.approx(forcing_bracket(whole),
                                                                     rel=1e-13)

    @pytest.mark.parametrize("odd", [False, True])
    def test_fold_runs_half_the_tasks(self, monkeypatch, grid3d, cutoffs3d, odd):
        # m_t 32: X and Y each run 4 halo chunks of 8 nodes + node m_t every
        # node, 2 chunks folded, and the fold computes nodes 0..15 only
        m_t = 32
        sym = dipole_symmetry(grid3d)
        data = antiperiodic_series(parity_part(grid3d, raw_odd_series(
            grid3d, m_t, np.random.default_rng(3)), sym.parity))
        s = held_series(grid3d, data, 1.0, sym) if odd else FieldSeries(grid3d, data, 1.0)
        map_chunks = norms.map_chunks

        def tasks(series=s):
            items = []

            def recording(task, chunks):
                items.extend(chunks)
                return map_chunks(task, chunks)

            with monkeypatch.context() as m:
                m.setattr(norms, "map_chunks", recording)
                z_norm(series, cutoffs3d)
            return items

        every, folded = tasks(), tasks(_half_period(s))
        assert len(every) == 2 * (len(node_chunks(m_t)) + 1) == 10
        assert folded == 2 * node_chunks(m_t // 2) and len(folded) == 4
        assert max(c.stop for c in folded) == m_t // 2


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("odd", [False, True])
def test_dealiased_series_take_the_dealias_support(monkeypatch, dim, odd):
    # chi_inf on the dealias support (11 of 16 lines per axis at n = 16)
    # prunes Y's tree in the octant to leading planes 0..5 of every axis,
    # from 0..7 (plane 8 is Nyquist); the whole lattice runs on all lines.
    # On dealiased data the Z-norm is the same bits
    grid = make_grid(GridConfig(dim=dim, n_per_axis=16, box_length=32.0))
    cutoffs = auto_cutoffs(grid, 1.3)
    series = (raw_odd_series if odd else raw_random_series)(grid, 10,
                                                             np.random.default_rng(dim))
    sym = dipole_symmetry(grid)
    data = (parity_part(grid, series, sym.parity) if odd else series) * grid.dealias
    s = held_series(grid, data, 1.3, sym) if odd else FieldSeries(grid, data, 1.3)
    dealiased = replace(cutoffs, chi_inf=cutoffs.chi_inf * grid.dealias)
    tree = norms._derivative_tree

    def z_norm_and_y_support(c):
        supports = []

        def recording(block, grid, k, nyquist_free, skip_zero, support, *rest):
            if k == 3:  # Y's tree
                supports.append(tuple(support))
            return tree(block, grid, k, nyquist_free, skip_zero, support, *rest)

        with monkeypatch.context() as m:
            m.setattr(norms, "_derivative_tree", recording)
            value = z_norm(s, c)
        assert len(set(supports)) == 1
        return value, supports[0]

    pruned, support = z_norm_and_y_support(dealiased)
    full, undealiased = z_norm_and_y_support(cutoffs)
    assert support == ((6,) if odd else (16,)) * dim
    assert undealiased == ((8,) if odd else (16,)) * dim
    assert pruned == full


def test_z_norm_transforms_only_needed_nodes(monkeypatch, grid3d, cutoffs3d, rng):
    # Points handed to np.fft.ifftn by one z_norm (dim 3, n 16, m_t 16: halo
    # chunks of 8, 8 and 1 nodes, so 10, 10 and 3 rows). Every whole-lattice
    # pass runs over all lines. X runs 2 + 3 + 4 whole passes, all with the
    # halo. Y runs 34 whole passes, of which 2 + 3 + 4 keep the halo. The
    # reference runs 43 whole halo passes.
    n, m_t = grid3d.n, 16
    rows = [c.stop - c.start + 2 for c in node_chunks(m_t)] + [3]
    x_points = sum(9 * r * n ** 3 for r in rows)
    y_points = sum(n ** 3 * (9 * r + 25 * (r - 2)) for r in rows)
    series = FieldSeries(grid3d, raw_random_series(grid3d, m_t, rng), 1.0)
    points = []
    ifftn = np.fft.ifftn

    def counting(a, *args, **kwargs):
        points.append(a.size)
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    z_norm(series, cutoffs3d)
    assert len(points) == 9 * len(rows) + 34 * len(rows)
    assert sum(points) == x_points + y_points
    assert sum(points) < 0.85 * 43 * n ** 3 * sum(rows)  # 0.848 of the reference


def test_odd_z_norm_transforms_half_the_planes_after_the_first_axis(monkeypatch, grid3d,
                                                                   cutoffs3d, rng):
    # As above on an octant series (planes 0..n/2 of every axis, p = 9 of 16):
    # the levels run from the last axis to the first, each pass on all n
    # planes of its own axis, on planes 0..n/2 of the axes already passed and
    # on the mask's leading planes of the others: chi1's s_x = (s + 1)/2 = 4,
    # chi_inf's s_y = n/2 (plane n/2 is Nyquist). X: 2 last-axis passes over
    # s_x*s_x, 3 over s_x*p and 4 over p*p. Y: 4 over s_y*s_y (2 with the
    # halo), 10 over s_y*p (3) and 20 over p*p (4). Same number of calls as
    # the full lattice.
    n, m_t, p = grid3d.n, 16, grid3d.n // 2 + 1
    s = int(np.count_nonzero(np.abs(grid3d.xi1d) < cutoffs3d.r_inf))
    sx, sy = (s + 1) // 2, n // 2
    rows = [c.stop - c.start + 2 for c in node_chunks(m_t)] + [3]
    x_points = sum(r * n * (2 * sx * sx + 3 * sx * p + 4 * p * p) for r in rows)
    y_points = sum(n * (sy * sy * (2 * r + 2 * (r - 2)) + sy * p * (3 * r + 7 * (r - 2))
                        + p * p * (4 * r + 16 * (r - 2))) for r in rows)
    sym = dipole_symmetry(grid3d)
    series = held_series(grid3d, parity_part(grid3d, raw_odd_series(grid3d, m_t, rng),
                                               sym.parity), 1.0, sym)
    points = []
    ifftn = np.fft.ifftn

    def counting(a, *args, **kwargs):
        points.append(a.size)
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    z_norm(series, cutoffs3d)
    assert len(points) == 9 * len(rows) + 34 * len(rows)
    assert sum(points) == x_points + y_points
    full_lattice = sum(r * (2 * n * s * s + 3 * n * n * s + 4 * n ** 3)
                       + n ** 3 * (9 * r + 25 * (r - 2)) for r in rows)
    assert sum(points) < 0.31 * full_lattice  # 0.301


def test_z_norm_memory_not_above_allocating_tree(monkeypatch, grid3d, cutoffs3d, rng):
    # Warmed tracemalloc peaks at dim 3, n 16, m_t 64: the buffered tree
    # against the allocating reference's chunk temporaries.
    _z_norm_peak_bytes(grid3d, cutoffs3d, 8, rng)
    buffered = _z_norm_peak_bytes(grid3d, cutoffs3d, 64, rng)
    monkeypatch.setattr(norms, "_node_sums", _ref_node_sums_for)
    _z_norm_peak_bytes(grid3d, cutoffs3d, 8, rng)
    reference = _z_norm_peak_bytes(grid3d, cutoffs3d, 64, rng)
    assert buffered <= reference


def _z_norm_peak_bytes(grid, cutoffs, m_t, rng):
    shape = (m_t + 1,) + grid.shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = FieldSeries(grid, data, 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z_norm(s, cutoffs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_z_norm_memory_does_not_grow_with_series_length(grid3d, cutoffs3d, rng):
    # a frequency series is streamed as given; warm the per-grid caches first
    _z_norm_peak_bytes(grid3d, cutoffs3d, 8, rng)
    short = _z_norm_peak_bytes(grid3d, cutoffs3d, 32, rng)
    long = _z_norm_peak_bytes(grid3d, cutoffs3d, 128, rng)
    assert long <= 1.25 * short


def test_z_norm_memory_does_not_grow_with_pool_size(monkeypatch, grid3d, cutoffs3d, rng):
    # one map keeps IN_FLIGHT chunks running however many workers the pool has
    _z_norm_peak_bytes(grid3d, cutoffs3d, 8, rng)
    short, long = (on_workers(monkeypatch, 8, _z_norm_peak_bytes, grid3d, cutoffs3d, m_t, rng)
                   for m_t in (32, 128))
    assert long <= 1.25 * short
    assert long <= 1.25 * on_workers(monkeypatch, 2, _z_norm_peak_bytes,
                                     grid3d, cutoffs3d, 128, rng)
