"""Duhamel quadrature, the periodic linear response, the fixed-point
iteration, and the equation-residual certificate."""

import math
import sys
import threading
from dataclasses import replace
import time
import tracemalloc

import numpy as np
import pytest

from glperiod import (FieldSeries, GridConfig, NonFiniteField, ForcingSpec,
                      OddnessViolation, PerturbationSpec, periodic_solver, SolveOptions,
                      SpectralField, StabilityRunConfig, equation_residual, make_grid,
                      make_operator, realize_forcing, realize_perturbation, run_stability,
                      solve_periodic, spectral)
from glperiod.norms import _node_l2
from glperiod.operators import auto_cutoffs
from glperiod.phi import phi1
from glperiod.spectral import ODDNESS_TOL, Grid, Symmetry
from glperiod.periodic_solver import (_contraction_factor, _cubic_difference_data,
                                      _cubic_rows, _decay_table, _linear_period_map_data)

from conftest import (dipole_symmetry, held_series, octant_of, on_workers, parity_part,
                      point_odd_forcing, random_odd_field, raw_odd_series, raw_random_series)
from oracles import (antiperiodicity_bound, cubic_rhs, duhamel_integral, odd_residual,
                     periodic_initial_data, picard_step, split_equation_residual,
                     split_series, whole_lattice, whole_lattice_solve, whole_series)


def _odd_part(g):
    """g's exact odd part (g - Rg)/2 as a frequency series: the forcing the
    solve takes for an odd g."""
    data = g.frequency_rows(slice(None))
    return FieldSeries(g.grid, 0.5 * (data - g.grid.reflect(data)), g.period)


def _not_antiperiodic(monkeypatch):
    """Have the solve take its forcing as not antiperiodic (every node held)."""
    measure = Grid.symmetry_of
    monkeypatch.setattr(Grid, "symmetry_of", lambda grid, g, what: replace(
        measure(grid, g, what), antiperiodic=False))


def _mode_series(grid, k_index, values, period):
    data = np.zeros((len(values),) + grid.shape, dtype=complex)
    data[(slice(None),) + k_index] = values
    return FieldSeries(grid, data, period)


def linear_period_map(F, op):
    """The period map of a series, as an array."""
    return _linear_period_map_data(F.frequency_rows(slice(None)), op, F.dt)


@pytest.fixture(scope="module")
def grid1():
    return make_grid(GridConfig(dim=1, n_per_axis=16, box_length=2 * np.pi))


@pytest.fixture(scope="module")
def op1(grid1):
    return make_operator(grid1, 1.0)


class TestDuhamelIntegral:
    def test_zero_forcing(self, grid1, op1):
        F = _mode_series(grid1, (3,), np.zeros(17), 1.0)
        out = duhamel_integral(F, 16, op1)
        assert np.all(out.data == 0)

    def test_time_constant_closed_form(self, grid1, op1):
        k = 3
        c = 0.8 - 0.1j
        lam = (1 + 1j) * grid1.xi1d[k] ** 2
        F = _mode_series(grid1, (k,), np.full(17, c), 1.0)
        for m in (1, 7, 16):
            t = m / 16
            out = duhamel_integral(F, m, op1)
            expected = c * (1 - np.exp(-lam * t)) / lam
            assert out.data[k] == pytest.approx(expected, rel=1e-13)

    def test_zero_frequency_mode_integrates_to_ct(self, grid1, op1):
        c = 1.5 + 0.5j
        F = _mode_series(grid1, (0,), np.full(17, c), 1.0)
        out = duhamel_integral(F, 8, op1)
        assert out.data[0] == pytest.approx(c * 0.5, rel=1e-14)

    def test_oscillatory_against_oversampled_quadrature(self, grid1, op1):
        # 64x-oversampled quadrature of the exact integrand; the difference
        # is the piecewise-linear interpolation bias, O(h^2)
        k = 3
        m_t = 32
        lam = (1 + 1j) * grid1.xi1d[k] ** 2
        omega = 2 * np.pi
        t = np.arange(m_t + 1) / m_t
        F = _mode_series(grid1, (k,), np.exp(1j * omega * t), 1.0)
        out = duhamel_integral(F, m_t, op1)
        ts = np.linspace(0.0, 1.0, 64 * m_t + 1)
        oracle = np.trapezoid(np.exp(-(1.0 - ts) * lam) * np.exp(1j * omega * ts), ts)
        # forcing has unit amplitude over a unit period; the gap is the
        # piecewise-linear interpolation bias, ~(omega*h)^2/12 here
        assert abs(out.data[k] - oracle) <= 1e-3

    def test_oscillatory_second_order_convergence(self, grid1, op1):
        k = 3
        lam = (1 + 1j) * grid1.xi1d[k] ** 2
        omega = 2 * np.pi
        closed = (np.exp(1j * omega) - np.exp(-lam)) / (lam + 1j * omega)
        errs = []
        for m_t in (16, 32, 64):
            t = np.arange(m_t + 1) / m_t
            F = _mode_series(grid1, (k,), np.exp(1j * omega * t), 1.0)
            errs.append(abs(duhamel_integral(F, m_t, op1).data[k] - closed))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0

    def test_index_out_of_range(self, grid1, op1):
        F = _mode_series(grid1, (3,), np.zeros(17), 1.0)
        with pytest.raises(IndexError):
            duhamel_integral(F, 17, op1)


class TestPeriodicInitialData:
    def test_zero(self, grid1, op1):
        F = _mode_series(grid1, (3,), np.zeros(17), 1.0)
        assert np.all(periodic_initial_data(F, op1).data == 0)

    def test_time_constant_algebra_collapses(self, grid1, op1):
        k = 5
        c = -0.2 + 0.9j
        lam = (1 + 1j) * grid1.xi1d[k] ** 2
        F = _mode_series(grid1, (k,), np.full(17, c), 1.0)
        u0 = periodic_initial_data(F, op1)
        assert u0.data[k] == pytest.approx(c / lam, rel=1e-12)

    def test_fixed_point_identity_random_odd(self, grid3d, op3d, rng):
        m_t = 16
        data = np.stack([random_odd_field(grid3d, rng).data for _ in range(m_t + 1)])
        data[-1] = data[0]
        F = FieldSeries(grid3d, data, 1.0)
        u0 = periodic_initial_data(F, op3d)
        evolved = np.exp(-op3d.period * op3d.symbol) * u0.data \
            + duhamel_integral(F, m_t, op3d).data
        scale = np.abs(u0.data).max()
        assert np.abs(evolved * grid3d.keep_nyquist_free - u0.data).max() <= 1e-11 * scale

    def test_rejects_mean_carrying_forcing(self, grid1, op1):
        values = np.full(17, 1.0 + 0j)
        F = _mode_series(grid1, (0,), values, 1.0)
        with pytest.raises(ValueError, match="not mean-free"):
            periodic_initial_data(F, op1)


class TestLinearPeriodMap:
    def test_zero(self, grid1, op1):
        F = _mode_series(grid1, (3,), np.zeros(17), 1.0)
        assert np.all(linear_period_map(F, op1) == 0)

    def test_time_harmonic_closed_form(self, grid1, op1):
        k = 2
        c = 1.1 + 0.3j
        lam = (1 + 1j) * grid1.xi1d[k] ** 2
        omega = 2 * np.pi
        m_t = 64
        t = np.arange(m_t + 1) / m_t
        F = _mode_series(grid1, (k,), c * np.exp(1j * omega * t), 1.0)
        u = linear_period_map(F, op1)
        expected = c * np.exp(1j * omega * t) / (lam + 1j * omega)
        err = np.abs(u[:, k] - expected).max() / np.abs(expected).max()
        assert err <= 1e-3  # quadrature bias at m_t = 64

    def test_periodic_by_construction(self, grid3d, op3d, rng):
        m_t = 16
        data = np.stack([random_odd_field(grid3d, rng).data for _ in range(m_t + 1)])
        data[-1] = data[0]
        F = FieldSeries(grid3d, data, 1.0)
        u = linear_period_map(F, op3d)
        num = np.sqrt((np.abs(u[0] - u[-1]) ** 2).sum())
        den = np.sqrt((np.abs(u) ** 2).sum(axis=tuple(range(1, 4))).max())
        assert num / den <= 1e-9


class TestDecayTable:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 16)])
    def test_equals_full_lattice_exponentials(self, dim, n):
        op = make_operator(make_grid(GridConfig(dim=dim, n_per_axis=n, box_length=32.0)), 1.3)
        m_t, h = 21, 1.3 / 21
        values, index = _decay_table(op, h, m_t)
        assert values.shape[1] < op.symbol.size
        for m in range(m_t + 1):
            assert np.array_equal(values[m][index], np.exp(-(m * h) * op.symbol))


class TestPicardStep:
    def test_zero_everything(self, grid3d, op3d):
        zero = FieldSeries(grid3d, np.zeros((17,) + grid3d.shape, dtype=complex), 1.0)
        out = picard_step(zero, zero, op3d)
        assert np.all(out.data == 0)

    def test_zero_u_reduces_to_linear_response(self, grid3d, op3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        zero = FieldSeries(grid3d, np.zeros((17,) + grid3d.shape, complex), 1.0)
        stepped = picard_step(zero, g, op3d)
        np.testing.assert_allclose(stepped.data, linear_period_map(g, op3d), atol=1e-15)

    def test_linear_mode_ignores_u(self, grid3d, op3d, rng):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u1 = FieldSeries(grid3d, np.stack([random_odd_field(grid3d, rng).data
                                   for _ in range(17)]), 1.0)
        zero = FieldSeries(grid3d, np.zeros_like(u1.data), 1.0)
        out1 = picard_step(u1, g, op3d, nonlinearity=False)
        out0 = picard_step(zero, g, op3d, nonlinearity=False)
        np.testing.assert_array_equal(out1.data, out0.data)


class TestSolvePeriodic:
    def test_zero_forcing_converges_immediately(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=0.0, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
        assert rep.converged and rep.iterations == 1
        assert np.all(whole_series(u).data == 0)
        assert rep.c_estimate is None

    def test_time_nodes_are_not_an_option(self):
        # the forcing series fixes the time grid; no option can disagree with it
        with pytest.raises(TypeError):
            SolveOptions(m_t=8)

    def test_linear_oracle_time_constant_modes(self, grid3d, op3d, cutoffs3d):
        # closed form u = g_hat / lambda for per-mode constant forcing, through
        # the solve: criterion 2's modes, each as the odd pair c at k, -c at -k
        m_t = 16
        opts = SolveOptions(nonlinearity_enabled=False)
        rng = np.random.default_rng(2024)
        candidates = np.argwhere((grid3d.xi_sq.ravel() > 0)
                                 & ~grid3d.nyquist_mask.ravel()).ravel()
        for flat in rng.choice(candidates, size=20, replace=False):
            idx = np.unravel_index(flat, grid3d.shape)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            data = np.zeros((m_t + 1,) + grid3d.shape, dtype=complex)
            data[(slice(None),) + idx] = c
            data[(slice(None),) + tuple(-np.array(idx) % grid3d.n)] = -c
            g = FieldSeries(grid3d, data, 1.0)
            u, rep = solve_periodic(g, op3d, cutoffs3d, opts)
            lam = (1 + 1j) * grid3d.xi_sq[idx]
            err = np.abs(whole_series(u).data[(slice(None),) + idx] - c / lam).max() / abs(c / lam)
            assert rep.converged
            assert err <= 1e-10

    def test_scaling_self_consistency(self, grid3d, op3d, cutoffs3d):
        cs = []
        for eps in (5e-3, 1e-2):
            g = realize_forcing(ForcingSpec(amplitude=eps, period=1.0), grid3d, 16)
            _, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
            assert rep.converged
            cs.append(rep.c_estimate)
        assert abs(cs[1] / cs[0] - 1.0) <= 0.1

    def test_oddness_of_converged_solution(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
        assert rep.converged
        for m in (0, 5, 11, 16):
            node, = u.frequency_rows(slice(m, m + 1))
            assert odd_residual(SpectralField(grid3d, node)) <= 1e-10

    def test_divergence_raises_or_reports(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=40.0, period=1.0), grid3d, 16)
        try:
            _, rep = solve_periodic(g, op3d, cutoffs3d,
                                    SolveOptions(max_iterations=12))
            assert not rep.converged
        except NonFiniteField:
            pass  # escape by overflow is the other sanctioned outcome

    def test_split_consistency(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
        full = equation_residual(u, g, op3d)
        u, g = whole_series(u), whole_series(g)
        low, high = split_series(u, cutoffs3d)
        recombined = low.data + high.data
        err = np.abs(recombined - u.data).max() / np.abs(u.data).max()
        assert err <= 1e-14
        res_low, res_high = split_equation_residual(u, g, op3d, cutoffs3d)
        # sub-system residuals at the same discretization order
        assert res_low <= 2.0 * full and res_high <= 2.0 * full


class TestEquationResidual:
    def test_zero_solution_zero_forcing(self, grid3d, op3d):
        zero = FieldSeries(grid3d, np.zeros((17,) + grid3d.shape, dtype=complex), 1.0)
        assert equation_residual(zero, zero, op3d) == 0.0

    def test_second_order_in_time_resolution(self, grid3d, op3d, cutoffs3d, rng):
        # exactly band-limited separable forcing: the only residual source is
        # the time discretization, which must drop 4x per m_t doubling
        profile = 1e-2 * random_odd_field(grid3d, rng).data
        resid = {}
        for m_t in (16, 32, 64):
            t = np.arange(m_t + 1)
            a = np.sin(2 * np.pi * (t % m_t) / m_t)
            data = a[(slice(None),) + (None,) * 3] * profile
            g = FieldSeries(grid3d, data, 1.0)
            u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
            assert rep.converged
            resid[m_t] = equation_residual(u, g, op3d)
        assert 3.0 <= resid[16] / resid[32] <= 5.0
        assert 3.0 <= resid[32] / resid[64] <= 5.0

    def test_noise_sensitivity_linear(self, grid3d, op3d, cutoffs3d, rng):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, _ = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
        base = equation_residual(u, g, op3d)
        noise = np.stack([random_odd_field(grid3d, rng).data for _ in range(17)])
        node_l2 = np.sqrt((np.abs(noise) ** 2).sum(axis=(1, 2, 3))
                          * grid3d.parseval_factor)
        noise /= node_l2.max()
        grown = []
        for delta in (1e-3, 1e-2):  # noise-dominated, normalization-stable regime
            u_noisy = FieldSeries(grid3d, whole_series(u).data + delta * noise, 1.0)
            resid = equation_residual(u_noisy, g, op3d)
            assert resid > 3.0 * base
            grown.append(resid)
        assert grown[1] / grown[0] == pytest.approx(10.0, rel=0.3)


class TestContractionEstimate:
    def test_geometric_history(self):
        factor, reason = _contraction_factor([1.0, 0.1, 0.01, 0.001])
        assert factor == pytest.approx(0.1, rel=1e-12) and reason is None

    def test_requires_three_residuals(self):
        for n in range(3):
            assert _contraction_factor([1.0, 0.1, 0.01][:n]) == (
                None, f"fewer than 3 residuals (got {n})")

    def test_contraction_below_one_when_converged(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        _, rep = solve_periodic(g, op3d, cutoffs3d,
                                SolveOptions(z_tolerance=1e-25))
        assert rep.converged
        assert rep.contraction_factor is not None
        assert rep.contraction_factor < 1.0
        assert rep.contraction_factor_reason is None

    def test_null_factor_says_why(self):
        assert _contraction_factor([1.0, 0.1]) == (None, "fewer than 3 residuals (got 2)")
        assert _contraction_factor([1.0, 0.1, 0.0]) == (None, "a residual is not positive")

    def test_residual_ratios_geometric_regime(self, grid3d, op3d, cutoffs3d):
        # below the documented default amplitude the residual ratios stay
        # within 50% of their geometric mean (clean contraction)
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        _, rep = solve_periodic(g, op3d, cutoffs3d,
                                SolveOptions(z_tolerance=1e-38,
                                             max_iterations=7))
        hist = rep.residual_history
        assert len(hist) >= 4
        ratios = np.array([hist[i + 1] / hist[i] for i in range(1, len(hist) - 1)])
        gm = np.exp(np.mean(np.log(ratios)))
        assert np.all(np.abs(ratios / gm - 1.0) < 0.5)


_POOL_GRIDS = {1: 32, 2: 16, 3: 16}


class TestSeriesKernelsOnThePool:
    """The pooled series kernels give the same bits on one or two workers
    (uneven chunk counts: m_t 8 and 21 with 8-node chunks)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m_t", [8, 21])
    def test_one_and_two_workers_agree(self, monkeypatch, dim, m_t):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_POOL_GRIDS[dim], box_length=32.0))
        op = make_operator(grid, 1.3)
        rng = np.random.default_rng(11 * dim + m_t)
        v, w, g = (raw_random_series(grid, m_t, rng) for _ in range(3))
        F = raw_random_series(grid, m_t, rng)
        F.reshape(m_t + 1, -1)[:, 0] = 0.0  # the period map needs a mean-free forcing

        def kernels():
            return (_cubic_difference_data(v, w, grid), _cubic_difference_data(None, g, grid),
                    _linear_period_map_data(F, op, 1.3 / m_t))

        one = on_workers(monkeypatch, 1, kernels)
        two = on_workers(monkeypatch, 2, kernels)
        for a, b in zip(one, two):
            assert np.array_equal(a, b)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch, grid3d, op3d):
        # tasks share only the output array, each writing its own rows or slab
        rng = np.random.default_rng(5)
        v, w, F = (raw_random_series(grid3d, 64, rng) for _ in range(3))
        F.reshape(65, -1)[:, 0] = 0.0

        def kernels():
            return (_cubic_difference_data(v, w, grid3d),
                    _linear_period_map_data(F, op3d, 1 / 64))

        one = on_workers(monkeypatch, 1, kernels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = on_workers(monkeypatch, 8, kernels)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(one, many):
            assert np.array_equal(a, b)

    def test_one_map_keeps_a_fixed_window_of_tasks(self, monkeypatch):
        running, most = [0], [0]
        lock = threading.Lock()

        def task(i):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return i

        assert on_workers(monkeypatch, 8, spectral.map_chunks, task, range(24)) == list(range(24))
        assert most[0] == spectral.IN_FLIGHT

    def test_task_exception_keeps_its_type(self, monkeypatch):
        class Boom(Exception):
            pass

        def task(i):
            if i == 3:
                raise Boom(i)
            return i

        with pytest.raises(Boom):
            on_workers(monkeypatch, 2, spectral.map_chunks, task, range(6))

    def test_kernel_error_inside_a_slab_reaches_the_caller(self, monkeypatch, grid3d, op3d):
        # a series with more planes than the lattice fails to broadcast
        # against the operator's modes inside the period map's slab tasks
        F = np.zeros((9,) + grid3d.shape[:-1] + (grid3d.n + 2,), dtype=complex)
        with pytest.raises(ValueError, match="broadcast"):
            on_workers(monkeypatch, 2, _linear_period_map_data, F, op3d, 1 / 8)


def _ref_equation_residual(u, g, op, include_nonlinearity=True):
    """The full-series equation residual: G, F, D_t u and R built for every
    node at once (the form the streamed equation_residual replaced)."""
    U = u.frequency_rows(slice(None))
    G = g.frequency_rows(slice(None))
    if U.shape != G.shape:
        raise ValueError("solution and forcing series are not aligned")
    grid = u.grid
    h = u.dt
    F = cubic_rhs(U, G, grid) if include_nonlinearity else G
    dt = (U[2:] - U[:-2]) / (2.0 * h)
    R = dt + op.symbol * U[1:-1] - F[1:-1]
    res = float(_node_l2(R, grid).max())
    scale = 1.0 + float(_node_l2(U, grid).max())
    return res / scale


def _series_bytes(grid, m_t):
    return (m_t + 1) * grid.n ** grid.dim * np.dtype(complex).itemsize


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc sees allocated during fn(*args), results included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestInPlaceSeriesKernels:
    """The solve updates its iterate and correction in place; every in-place
    form gives the bits of the allocating one."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_period_map_into_its_input_equals_out_of_place(self, monkeypatch, dim, workers):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_POOL_GRIDS[dim], box_length=32.0))
        op = make_operator(grid, 1.3)
        F = raw_random_series(grid, 21, np.random.default_rng(40 + dim))
        F.reshape(22, -1)[:, 0] = 0.0
        expected = _linear_period_map_data(F, op, 1.3 / 21)
        same = F.copy()
        got = on_workers(monkeypatch, workers, _linear_period_map_data,
                         same, op, 1.3 / 21, same)
        assert got is same
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m_t", [8, 21])
    def test_advancing_cubic_difference_equals_allocating(self, monkeypatch, grid3d, m_t):
        rng = np.random.default_rng(m_t)
        v, w = (raw_random_series(grid3d, m_t, rng) for _ in range(2))
        expected = _cubic_difference_data(v, w, grid3d)
        u, delta = v.copy(), w.copy()
        got = on_workers(monkeypatch, 2, _cubic_difference_data, u, delta, grid3d, True)
        assert got is delta
        assert np.array_equal(delta, expected)
        assert np.array_equal(u, v + w)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cubic_term_plus_forcing_is_the_allocating_rhs(self, dim):
        # the trajectory batteries' F = dealias(|u|^2 u) + g, bit for bit
        grid = make_grid(GridConfig(dim=dim, n_per_axis=_POOL_GRIDS[dim], box_length=32.0))
        rng = np.random.default_rng(70 + dim)
        U, G = (raw_random_series(grid, 32, rng) for _ in range(2))
        F = _cubic_difference_data(None, U, grid)
        F += G
        assert np.array_equal(F.view(np.uint64), cubic_rhs(U, G, grid).view(np.uint64))

    def test_cubic_term_without_a_zero_series(self, grid3d):
        w = raw_random_series(grid3d, 8, np.random.default_rng(9))
        zero = np.zeros_like(w)
        assert np.array_equal(_cubic_difference_data(None, w, grid3d),
                              _cubic_difference_data(zero, w, grid3d))


class TestSolveKeepsCallerData:
    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)

    def test_caller_forcing_is_unchanged(self, grid3d, op3d, cutoffs3d, forcing):
        before = forcing.frequency_rows(slice(None)).tobytes()
        solve_periodic(forcing, op3d, cutoffs3d, SolveOptions())
        assert forcing.frequency_rows(slice(None)).tobytes() == before

    def test_max_iterations_ends_with_the_last_correction_added(self, grid3d, op3d,
                                                                 cutoffs3d, forcing):
        # one iteration adds delta^(0) to the linear response: picard_step of 0.
        # The whole-lattice reference runs the oracle's transforms; the solve
        # holds g's octant, which drops g's even part, so it meets the oracle
        # on g's odd part to roundoff.
        linear = linear_period_map(forcing, op3d)
        stepped = picard_step(FieldSeries(grid3d, linear, 1.0), forcing, op3d)
        u, rep = whole_lattice_solve(forcing, op3d, cutoffs3d, SolveOptions(max_iterations=1))
        assert rep.iterations == 1 and not rep.converged
        np.testing.assert_allclose(u.data, stepped.data, rtol=0, atol=1e-15)
        g_odd = _odd_part(forcing)
        linear = _linear_period_map_data(g_odd.data, op3d, g_odd.dt)
        stepped = picard_step(FieldSeries(grid3d, linear, 1.0), g_odd, op3d)
        u, rep = solve_periodic(forcing, op3d, cutoffs3d, SolveOptions(max_iterations=1))
        assert rep.iterations == 1 and not rep.converged
        np.testing.assert_allclose(whole_series(u).data, stepped.data, rtol=0,
                                   atol=1e-13 * np.abs(stepped.data).max())


class TestStreamedEquationResidual:
    """equation_residual against the full-series form, ==, on uneven node
    chunks (m_t 16 and 21: 15 and 20 interior nodes in chunks of 6, read with
    a halo node either side)."""

    @pytest.mark.parametrize("m_t", [16, 21])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_random_series(self, grid3d, op3d, m_t, nonlinear):
        rng = np.random.default_rng(m_t)
        u = FieldSeries(grid3d, raw_random_series(grid3d, m_t, rng), 1.0)
        g = FieldSeries(grid3d, raw_random_series(grid3d, m_t, rng), 1.0)
        assert (equation_residual(u, g, op3d, nonlinear)
                == _ref_equation_residual(u, g, op3d, nonlinear))

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_converged_solution(self, grid3d, op3d, cutoffs3d, nonlinear):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 21)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions())
        assert rep.converged
        assert (equation_residual(u, g, op3d, nonlinear)
                == _ref_equation_residual(u, g, op3d, nonlinear))

    def test_tasks_read_one_chunk_of_u(self, grid3d, op3d):
        # a task's interior nodes and their two halo nodes are CHUNK_NODES - 2
        # rows of u (ten rows faulted in fresh pages on every task at the
        # reference scale, and so did eight once the solve held the octant)
        reads = []

        class Recording(FieldSeries):
            def frequency_rows(self, rows):
                reads.append(len(self.data[rows]))
                return super().frequency_rows(rows)

        rng = np.random.default_rng(3)
        u = Recording(grid3d, raw_random_series(grid3d, 21, rng), 1.0)
        equation_residual(u, FieldSeries(grid3d, raw_random_series(grid3d, 21, rng), 1.0), op3d)
        assert max(reads) == spectral.CHUNK_NODES - 2 and sum(reads) == 20 + 2 * len(reads)

    def test_misaligned_series_rejected(self, grid3d, op3d, cutoffs3d):
        # series of different lengths or grids, whatever holds them
        rng = np.random.default_rng(1)
        u = FieldSeries(grid3d, raw_random_series(grid3d, 16, rng), 1.0)
        other = make_grid(GridConfig(dim=3, n_per_axis=16, box_length=16.0))
        solved, _ = solve_periodic(realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0),
                                                   grid3d, 16), op3d, cutoffs3d)
        for a, b in ((u, FieldSeries(grid3d, raw_random_series(grid3d, 8, rng), 1.0)),
                     (u, FieldSeries(other, raw_random_series(other, 16, rng), 1.0)),
                     (solved, realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0),
                                              grid3d, 8))):
            with pytest.raises(ValueError, match="not aligned"):
                equation_residual(a, b, op3d)


class TestHalfLatticeZNorm:
    """The solve runs every Z-norm on the octant (planes 0..n/2, half of
    every axis), which moves the norms by roundoff only against the
    whole-lattice reference solve."""

    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)

    @staticmethod
    def with_even_part(g, size):
        """g plus an even, mean-free, T-periodic series whose largest
        coefficient is `size` times g's (frequency data)."""
        grid = g.grid
        g_data = g.frequency_rows(slice(None))
        bump = grid.x[0] * grid.x[1] * np.exp(-grid.x_abs ** 2 / 8.0)
        even = np.fft.fftn(bump)
        even.flat[0] = 0.0
        a = np.sin(2.0 * np.pi * np.arange(len(g)) / g.n_steps)
        even = a[:, None, None, None] * even / np.abs(even).max()
        return FieldSeries(grid, g_data + size * np.abs(g_data).max() * even,
                           g.period)

    @staticmethod
    def solve(monkeypatch, g, op, cutoffs):
        """solve_periodic with the layout of every Z-norm call recorded
        (its series' symmetry record)."""
        flags = []
        z_norm = periodic_solver.z_norm

        def recording(series, cutoffs, **kwargs):
            flags.append(series.symmetry)
            return z_norm(series, cutoffs, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(periodic_solver, "z_norm", recording)
            u, rep = solve_periodic(g, op, cutoffs, SolveOptions())
        return u, rep, flags

    def test_oddness_is_measured_against_the_tolerance(self, grid3d, forcing):
        # the solve's one pass over g: an even part of 0.5 ODDNESS_TOL of the
        # peak passes, one of 2 ODDNESS_TOL raises
        assert grid3d.symmetry_of(forcing, "forcing").parity == (-1, 1, 1)
        g = self.with_even_part(forcing, 0.5 * ODDNESS_TOL)
        assert grid3d.symmetry_of(g, "forcing").parity == (-1, 1, 1)
        g = self.with_even_part(forcing, 2.0 * ODDNESS_TOL)
        with pytest.raises(OddnessViolation, match="^forcing is not odd on the lattice"):
            grid3d.symmetry_of(g, "forcing")

    def test_odd_forcing_moves_norms_by_roundoff(self, monkeypatch, grid3d, op3d,
                                                 cutoffs3d, forcing):
        u, rep, flags = self.solve(monkeypatch, forcing, op3d, cutoffs3d)
        u_full, rep_full = whole_lattice_solve(forcing, op3d, cutoffs3d)
        assert rep.converged and rep.iterations == rep_full.iterations
        assert flags == [Symmetry(parity=(-1, 1, 1), antiperiodic=True)] * (rep.iterations + 1)
        # the solve takes g's odd part: u within 1e-13 of its peak of the
        # whole-lattice solve of (g - Rg)/2
        u_odd, rep_odd = whole_lattice_solve(_odd_part(forcing), op3d, cutoffs3d)
        np.testing.assert_allclose(whole_series(u).data, u_odd.data, rtol=0,
                                   atol=1e-13 * np.abs(u_odd.data).max())
        np.testing.assert_allclose(rep.residual_history, rep_full.residual_history,
                                   rtol=1e-13, atol=0)
        assert rep.z_norm == pytest.approx(rep_full.z_norm, rel=1e-13)
        # [g] is read from g's octant, its L1_w on the octant: the
        # whole-lattice bracket of g's odd part to roundoff, and g's own within
        # g's even part (the dipole's seam rows)
        assert rep.c_estimate == pytest.approx(rep_odd.c_estimate, rel=1e-13)
        assert rep.g_bracket == pytest.approx(rep_odd.g_bracket, rel=1e-14)
        assert rep.g_bracket == pytest.approx(rep_full.g_bracket, rel=1e-12)


class TestOddnessPrecondition:
    """The solve takes odd forcings only: one whose even part Grid.parity
    rejects raises OddnessViolation before any series is solved or the
    caller's data written."""

    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)

    @staticmethod
    def rejected(monkeypatch, g, op, cutoffs):
        """Whether the solve rejects g before its first period map, with g's
        data unchanged."""
        def no_period_map(*args, **kwargs):
            raise AssertionError("the period map ran")

        before = g.data.tobytes()
        with monkeypatch.context() as m:
            m.setattr(periodic_solver, "_linear_period_map_data", no_period_map)
            with pytest.raises(OddnessViolation, match="forcing is not odd on the lattice"):
                solve_periodic(g, op, cutoffs, SolveOptions())
        return g.data.tobytes() == before

    def test_even_part_above_the_tolerance_is_rejected(self, monkeypatch, grid3d, op3d,
                                                       cutoffs3d, forcing):
        g = TestHalfLatticeZNorm.with_even_part(forcing, 2.0 * ODDNESS_TOL)
        assert self.rejected(monkeypatch, g, op3d, cutoffs3d)
        g = TestHalfLatticeZNorm.with_even_part(forcing, 0.5 * ODDNESS_TOL)
        assert solve_periodic(g, op3d, cutoffs3d, SolveOptions())[1].converged

    def test_even_part_of_one_millionth_is_rejected(self, monkeypatch, grid3d, op3d,
                                                    cutoffs3d, forcing):
        # the even part that the solve once took on the whole lattice
        g = TestHalfLatticeZNorm.with_even_part(forcing, 1e-6)
        assert self.rejected(monkeypatch, g, op3d, cutoffs3d)

    def test_mean_carrying_forcing_is_rejected_before_writing(self, monkeypatch, grid3d,
                                                              op3d, cutoffs3d, forcing):
        # the mean mode is even: a forcing that carries one is not odd
        data = forcing.frequency_rows(slice(None))
        data[:, 0, 0, 0] = 1e-3 * np.abs(data).max()
        assert self.rejected(monkeypatch, FieldSeries(grid3d, data, 1.0), op3d, cutoffs3d)


class TestHalfLatticeSolve:
    """An odd forcing's solve holds g's frequency data, u and delta on planes
    0..n/2 of every axis (the octant) if g has a parity per axis, else on the
    whole lattice."""

    M_T = 64

    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, self.M_T)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_odd_cubic_rows_keep_the_every_plane_bits(self, monkeypatch, dim):
        # the octant's forward transform pruned to the dealias planes changes no
        # kept value: the every-plane form's bits there, and zeros where that
        # form's masked products are +-0
        grid = make_grid(GridConfig(dim=dim, n_per_axis={1: 32, 2: 16, 3: 16}[dim],
                                    box_length=16.0))
        rng, sym = np.random.default_rng(dim), dipole_symmetry(grid)
        v, w = (held_series(grid, parity_part(grid, raw_odd_series(grid, 3, rng), sym.parity),
                              1.0, sym).data for _ in range(2))
        pair = grid.transform(sym)
        kept = (slice(None),) + (slice(pair.dealias_planes),) * dim
        for base in (v, None):
            pruned = _cubic_rows(base, w, grid, sym)
            with monkeypatch.context() as m:
                m.setattr(pair, "dealias_planes", grid.n // 2 + 1)
                every = _cubic_rows(base, w, grid, sym)
            assert pruned[kept].tobytes() == every[kept].tobytes()
            assert np.array_equal(pruned, every) and np.abs(every[kept]).max() > 0
            pruned[kept] = 0
            assert not pruned.any()

    def test_point_odd_series_are_held_on_the_whole_lattice(self, monkeypatch, grid3d, op3d,
                                                           cutoffs3d):
        # every series the period map and the cubic terms see has every plane
        # of a forcing with no parity on any one axis
        self.check_held(monkeypatch, point_odd_forcing(grid3d, self.M_T), op3d, cutoffs3d,
                        grid3d.shape, None)

    def test_dipole_series_are_held_on_the_octant(self, monkeypatch, grid3d, op3d, cutoffs3d,
                                                  forcing):
        # the dipole, odd in x_0 and even in x_1, x_2: planes 0..n/2 of every axis
        self.check_held(monkeypatch, forcing, op3d, cutoffs3d, (grid3d.n // 2 + 1,) * 3,
                        (-1, 1, 1))

    def test_dim_1_keeps_the_half_lattice(self, grid1, op1):
        # in 1D the axis parity is the point parity: the octant is the planes
        # 0..n/2 that the half lattice held
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0, sigma=0.4), grid1, 16)
        u, rep = solve_periodic(g, op1, auto_cutoffs(grid1, 1.0), SolveOptions())
        assert rep.converged and rep.layout["parity"] == (-1,) and rep.layout["odd"]
        assert u.data.shape[1:] == (grid1.n // 2 + 1,)

    def check_held(self, monkeypatch, g, op, cutoffs, held, parity):
        shapes = []
        for name in ("_linear_period_map_data", "_cubic_difference_data"):
            def recording(*args, _f=getattr(periodic_solver, name), **kwargs):
                shapes.extend(a.shape[1:] for a in args if isinstance(a, np.ndarray))
                return _f(*args, **kwargs)
            monkeypatch.setattr(periodic_solver, name, recording)
        u, rep = solve_periodic(g, op, cutoffs, SolveOptions())
        assert u.data.shape[1:] == held and set(shapes) == {held}
        assert u.frequency_rows(slice(0, 1)).shape[1:] == g.grid.shape
        assert rep.layout == {"odd": parity is not None, "parity": parity, "antiperiodic": True,
                              "nodes_held": self.M_T // 2 + 1, "modes_per_node": math.prod(held)}

    def test_odd_solve_holds_six_tenths_of_the_whole_lattice(self, monkeypatch, grid3d,
                                                              op3d, cutoffs3d, forcing):
        # warmed tracemalloc peaks (dim 3, n 16, m_t 64) on a pool of two
        # workers: 2.17 series against 3.67 for the whole-lattice reference,
        # 0.592 (0.585 on one worker; the pool is pinned because the peak is a
        # delta Z-norm's task buffers beside u and delta)
        opts = SolveOptions()

        def peak_of(solve):
            solve(forcing, op3d, cutoffs3d, opts)
            return _traced_peak(solve, forcing, op3d, cutoffs3d, opts)

        half = on_workers(monkeypatch, 2, peak_of, solve_periodic)
        full = on_workers(monkeypatch, 2, peak_of, whole_lattice_solve)
        assert half <= 0.6 * full

    def test_correction_z_norms_read_the_dealias_support(self, monkeypatch, grid3d, op3d,
                                                        cutoffs3d, forcing):
        # delta is dealiased, so its Y-norm takes chi_inf on the dealias
        # support; the final Z-norm of u (not dealiased) takes the cutoffs as given
        masks = []
        z_norm = periodic_solver.z_norm

        def recording(series, cutoffs, **kwargs):
            masks.append((cutoffs.chi1, cutoffs.chi_inf))
            return z_norm(series, cutoffs, **kwargs)

        monkeypatch.setattr(periodic_solver, "z_norm", recording)
        _, rep = solve_periodic(forcing, op3d, cutoffs3d, SolveOptions())
        assert len(masks) == rep.iterations + 1
        for chi1, chi_inf in masks[:-1]:
            assert np.array_equal(chi1, cutoffs3d.chi1)
            assert np.array_equal(chi_inf, cutoffs3d.chi_inf * grid3d.dealias)
        assert masks[-1][1] is cutoffs3d.chi_inf


class TestHalfPeriodSolve:
    """The solve measures its forcing antiperiodic, g(t + T/2) = -g(t), and
    then holds its series and sums each Z-norm and [g] on one half period:
    u and the norms move by roundoff only. Any other forcing keeps every node."""

    M_T = 16

    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, self.M_T)

    @staticmethod
    def with_periodic_part(g, size):
        """g plus an odd series of period T/2 whose largest coefficient is
        `size` times g's: cos(4 pi t/T) times g's peak node, sin(2 pi t/T) = 1
        (frequency data)."""
        data = g.frequency_rows(slice(None))
        a = np.cos(4.0 * np.pi * np.arange(len(g)) / g.n_steps)
        part = a[:, None, None, None] * data[g.n_steps // 4]
        assert np.abs(part).max() == np.abs(data).max()
        return FieldSeries(g.grid, data + size * part, g.period)

    @staticmethod
    def solve(monkeypatch, g, op, cutoffs, measured=True):
        """solve_periodic with the antiperiodic flag of the series of every
        Z-norm and forcing bracket recorded; with measured=False the forcing
        is taken as not antiperiodic."""
        flags = []
        with monkeypatch.context() as m:
            for name in ("z_norm", "forcing_bracket"):
                def recording(*args, _f=getattr(periodic_solver, name), **kwargs):
                    flags.append(args[0].antiperiodic)
                    return _f(*args, **kwargs)
                m.setattr(periodic_solver, name, recording)
            if not measured:
                _not_antiperiodic(m)
            u, rep = solve_periodic(g, op, cutoffs, SolveOptions())
        return u, rep, flags

    def test_antiperiodicity_is_measured_against_the_tolerance(self, grid3d, forcing):
        for size, antiperiodic in ((0.0, True), (0.5 * ODDNESS_TOL, True),
                                   (2.0 * ODDNESS_TOL, False)):
            data = self.with_periodic_part(forcing, size).data
            for g in (FieldSeries(grid3d, data, 1.0),
                      held_series(grid3d, data, 1.0, dipole_symmetry(grid3d))):
                assert grid3d.symmetry_of(g, "forcing").antiperiodic is antiperiodic

    def test_antiperiodic_forcing_moves_norms_by_roundoff(self, monkeypatch, op3d,
                                                         cutoffs3d, forcing):
        u, rep, flags = self.solve(monkeypatch, forcing, op3d, cutoffs3d)
        u_every, rep_every, flags_every = self.solve(monkeypatch, forcing, op3d, cutoffs3d,
                                                     measured=False)
        assert rep.converged and rep.iterations == rep_every.iterations
        assert rep.layout["antiperiodic"] and not rep_every.layout["antiperiodic"]
        assert flags == [True] * (rep.iterations + 2)
        assert flags_every == [False] * (rep.iterations + 2)
        # the half-period map moves u within the full map's antiperiodicity
        # bound (measured: 0.10 of it), and u's second half is minus its first
        F = octant_of(forcing)
        u, u_every = whole_series(u).data, whole_series(u_every).data
        assert np.abs(u - u_every).max() <= antiperiodicity_bound(F, op3d) * np.abs(u_every).max()
        half = self.M_T // 2
        assert u[half + 1:].tobytes() == (-u[1:half + 1]).tobytes()
        np.testing.assert_allclose(rep.residual_history, rep_every.residual_history,
                                   rtol=1e-13, atol=0)
        for key in ("z_norm", "c_estimate", "g_bracket"):
            assert getattr(rep, key) == pytest.approx(getattr(rep_every, key), rel=1e-13)

    @pytest.mark.parametrize("case", ["harmonic-2", "odd-m_t", "periodic-part"])
    def test_other_forcings_sum_every_node(self, monkeypatch, grid3d, op3d, cutoffs3d,
                                           forcing, case):
        # harmonic 2 has period T/2 (g(t + T/2) = +g(t)); m_t 15 has no half
        # period on its nodes; a periodic part of twice the tolerance
        if case == "periodic-part":
            g = self.with_periodic_part(forcing, 2.0 * ODDNESS_TOL)
        else:
            spec = (ForcingSpec(amplitude=1e-2, period=1.0, temporal_profile="harmonic",
                                harmonic=2) if case == "harmonic-2"
                    else ForcingSpec(amplitude=1e-2, period=1.0))
            g = realize_forcing(spec, grid3d, 15 if case == "odd-m_t" else self.M_T)
        u, rep, flags = self.solve(monkeypatch, g, op3d, cutoffs3d)
        u_every, rep_every, _ = self.solve(monkeypatch, g, op3d, cutoffs3d, measured=False)
        assert rep.converged and not rep.layout["antiperiodic"]
        assert flags == [False] * (rep.iterations + 2)
        assert u.data.tobytes() == u_every.data.tobytes()
        assert rep.to_json() == rep_every.to_json()


class TestPeriodMapOrder:
    """The period map is second order in h = T/m_t: on a small dim-2 grid (the
    dipole's quadrant layout) at m_t = 16, 32 and 64, the observed order of
    c_estimate and of u at the nodes the three share, log2 of the ratio of
    successive differences, lies in [1.8, 2.2] (measured: 1.98 and 2.00). With
    F held constant on each step (exponential Euler) u's order is 1.03, and
    the test fails."""

    BAND = (1.8, 2.2)

    @staticmethod
    def orders():
        grid = make_grid(GridConfig(dim=2, n_per_axis=16, box_length=16.0))
        op, cutoffs = make_operator(grid, 1.0), auto_cutoffs(grid, 1.0)
        c, u = [], []
        for m_t in (16, 32, 64):
            g = realize_forcing(ForcingSpec(amplitude=0.1, period=1.0), grid, m_t)
            solved, rep = solve_periodic(g, op, cutoffs, SolveOptions())
            assert rep.converged and rep.layout["parity"] == (-1, 1)
            c.append(rep.c_estimate)
            u.append(solved.frequency_rows(slice(None))[::m_t // 16])
        return (math.log2(abs(c[0] - c[1]) / abs(c[1] - c[2])),
                math.log2(np.abs(u[0] - u[1]).max() / np.abs(u[1] - u[2]).max()))

    def in_band(self):
        return all(self.BAND[0] <= order <= self.BAND[1] for order in self.orders())

    def test_second_order_in_the_step(self):
        assert self.in_band()

    def test_exponential_euler_fails(self, monkeypatch):
        def euler(op, h, held=()):  # I(t_{m+1}) = e^{-h lambda} I(t_m) + h phi1 F_m
            z = -h * op.symbol[held]
            return np.exp(z), h * phi1(z), np.zeros_like(z)

        monkeypatch.setattr(periodic_solver, "_step_coefficients", euler)
        assert not self.in_band()


class TestHalfLayoutSeries:
    """A FieldSeries holding planes 0..n/2 of every axis of data with a
    parity per axis (the octant), and nodes 0..m_t/2 when antiperiodic, is a
    Series like any other: its rows, the equation residual, the symmetry
    pass, the solve (as g) and the stability run (as base) give the bits of
    the whole-lattice, whole-period series it stands for."""

    M_T = 16

    @pytest.fixture(scope="class", params=[False, True], ids=["periodic", "antiperiodic"])
    def layouts(self, request, grid3d):
        # the forcing's part of exactly the dipole's parities, held as its
        # octant (of nodes 0..m_t/2), and its expansion one node at a time
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, self.M_T)
        sym = dipole_symmetry(grid3d, antiperiodic=request.param)
        half = held_series(grid3d, parity_part(grid3d, g.frequency_rows(slice(None)),
                                                 sym.parity), g.period, sym)
        whole = FieldSeries(grid3d, whole_lattice(grid3d, half.data, self.M_T + 1, sym.parity),
                            g.period)
        return half, whole

    def test_rows_and_oddness(self, grid3d, layouts):
        half, whole = layouts
        assert len(half) == len(whole) and half.dt == whole.dt
        assert half.frequency_rows(slice(None)).tobytes() == whole.data.tobytes()
        assert (grid3d.symmetry_of(half, "forcing") == grid3d.symmetry_of(whole, "forcing")
                == replace(half.symmetry, antiperiodic=True))
        assert octant_of(half).tobytes() == octant_of(whole).tobytes()

    def test_solve_residual_and_stability(self, grid3d, op3d, cutoffs3d, layouts):
        half, whole = layouts
        assert equation_residual(half, half, op3d) == equation_residual(whole, whole, op3d)
        (u_half, rep_half), (u_whole, rep_whole) = (
            solve_periodic(g, op3d, cutoffs3d, SolveOptions()) for g in (half, whole))
        assert rep_half.converged and rep_half.to_json() == rep_whole.to_json()
        assert u_half.data.tobytes() == u_whole.data.tobytes()
        assert (equation_residual(u_half, half, op3d)
                == equation_residual(u_whole, whole, op3d))
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid3d)
        half_run, whole_run = (
            run_stability(StabilityRunConfig(t_max=10.0, v_per=base, w0=w0, record_stride=8),
                          op3d, cutoffs3d) for base in (half, whole))
        assert half_run.to_json() == whole_run.to_json()
        assert np.array_equal(half_run.n_series, whole_run.n_series)


class TestSolveMemory:
    """tracemalloc peaks in units of one series (dim 3, n 16, m_t 64): the
    solve holds the iterate and the correction, the residual streams."""

    M_T = 64

    @pytest.fixture(scope="class")
    def forcing(self, grid3d):
        return realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, self.M_T)

    def test_solve_holds_two_series(self, grid3d, op3d, cutoffs3d, forcing):
        # 3.86 series on two workers (3.0 on one); the allocating loop read
        # 7.86, and one extra series per iteration (a fresh iterate, or a
        # zero series for the first cubic term) reads 4.48
        opts = SolveOptions()
        solve_periodic(forcing, op3d, cutoffs3d, opts)  # warm the per-grid caches
        peak = _traced_peak(solve_periodic, forcing, op3d, cutoffs3d, opts)
        assert peak <= 4.2 * _series_bytes(grid3d, self.M_T)

    def test_antiperiodic_solve_holds_half_the_period(self, monkeypatch, op3d, cutoffs3d,
                                                      forcing):
        # warmed tracemalloc peaks on a pool of two workers (pinned as in
        # test_odd_solve_holds_six_tenths_of_the_whole_lattice): 2.69 series
        # for nodes 0..m_t/2 against 3.67 for every node, 0.73; the bound
        # leaves 0.07 of margin (on the whole lattice of a point-odd forcing: in
        # the octant the series are small beside the Z-norm's task buffers,
        # test_octant_solve_holds_less_than_the_whole_lattice)
        opts, forcing = SolveOptions(), point_odd_forcing(forcing.grid, self.M_T)

        def peak_of():
            solve_periodic(forcing, op3d, cutoffs3d, opts)
            return _traced_peak(solve_periodic, forcing, op3d, cutoffs3d, opts)

        half = on_workers(monkeypatch, 2, peak_of)
        _not_antiperiodic(monkeypatch)
        every = on_workers(monkeypatch, 2, peak_of)
        assert half <= 0.8 * every

    def test_u_owns_exactly_its_held_nodes(self, op3d, cutoffs3d, forcing):
        # the antiperiodic dipole's u is nodes 0..m_t/2 of the octant in an
        # array of its own: no buffer of every node stays behind it
        u, rep = solve_periodic(forcing, op3d, cutoffs3d, SolveOptions())
        assert rep.layout["antiperiodic"] and u.data.shape == (self.M_T // 2 + 1,) + (9,) * 3
        assert u.data.base is None or u.data.base.nbytes <= u.data.nbytes

    def test_octant_solve_holds_less_than_the_whole_lattice(self, monkeypatch, grid3d, op3d,
                                                            cutoffs3d, forcing):
        # warmed tracemalloc peaks on a pool of two workers: the dipole's
        # octant solve against a point-odd forcing's whole-lattice one, 0.33
        # (0.90 against 2.69 series)
        opts, point_odd = SolveOptions(), point_odd_forcing(grid3d, self.M_T)

        def peak_of(g):
            solve_periodic(g, op3d, cutoffs3d, opts)
            return _traced_peak(solve_periodic, g, op3d, cutoffs3d, opts)

        octant = on_workers(monkeypatch, 2, peak_of, forcing)
        whole = on_workers(monkeypatch, 2, peak_of, point_odd)
        assert octant <= 0.4 * whole

    def test_no_whole_period_series_from_forcing_to_residual(self, grid3d, op3d, cutoffs3d):
        # realization, solve and residual, as solve-periodic runs them: 1.97
        # series on two workers (3.11 when g and the returned u were
        # whole-period series)
        spec, opts = ForcingSpec(amplitude=1e-2, period=1.0), SolveOptions()

        def run():
            g = realize_forcing(spec, grid3d, self.M_T)
            u, _ = solve_periodic(g, op3d, cutoffs3d, opts)
            equation_residual(u, g, op3d)

        run()  # warm the per-grid caches
        assert _traced_peak(run) <= 2.5 * _series_bytes(grid3d, self.M_T)

    def test_equation_residual_streams(self, grid3d, op3d, cutoffs3d, forcing):
        u, _ = solve_periodic(forcing, op3d, cutoffs3d, SolveOptions())
        equation_residual(u, forcing, op3d)
        peak = _traced_peak(equation_residual, u, forcing, op3d)
        assert peak <= 2.0 * _series_bytes(grid3d, self.M_T)
