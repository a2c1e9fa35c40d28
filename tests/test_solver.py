"""Duhamel quadrature, the periodic linear response, the fixed-point
iteration, and the equation-residual certificate."""

import sys
import threading
import time

import numpy as np
import pytest

from glperiod import (FieldSeries, GridConfig, NonFiniteField, PeriodicSolveReport,
                      ForcingSpec, SolveOptions, ZeroModeViolation,
                      check_oddness, contraction_estimate, duhamel_integral,
                      equation_residual, linear_period_map, make_grid,
                      make_operator, periodic_initial_data,
                      picard_step, realize_forcing, solve_periodic,
                      spectral, split_equation_residual, split_series)
from glperiod.periodic_solver import (_contraction_factor, _cubic_difference_data,
                                      _decay_table, _linear_period_map_data,
                                      _rhs_series_data)

from conftest import on_workers, random_odd_field, raw_random_series

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _mode_series(grid, k_index, values, period):
    data = np.zeros((len(values),) + grid.shape, dtype=complex)
    data[(slice(None),) + k_index] = values
    return FieldSeries(grid, "frequency", data, period)


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
        oracle = _trapz(np.exp(-(1.0 - ts) * lam) * np.exp(1j * omega * ts), ts)
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
        F = FieldSeries(grid3d, "frequency", data, 1.0)
        u0 = periodic_initial_data(F, op3d)
        evolved = np.exp(-op3d.period * op3d.symbol) * u0.data \
            + duhamel_integral(F, m_t, op3d).data
        scale = np.abs(u0.data).max()
        assert np.abs(evolved * grid3d.keep_nyquist_free - u0.data).max() <= 1e-11 * scale

    def test_rejects_mean_carrying_forcing(self, grid1, op1):
        values = np.full(17, 1.0 + 0j)
        F = _mode_series(grid1, (0,), values, 1.0)
        with pytest.raises(ZeroModeViolation):
            periodic_initial_data(F, op1)


class TestLinearPeriodMap:
    def test_zero(self, grid1, op1):
        F = _mode_series(grid1, (3,), np.zeros(17), 1.0)
        assert np.all(linear_period_map(F, op1).data == 0)

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
        err = np.abs(u.data[:, k] - expected).max() / np.abs(expected).max()
        assert err <= 1e-3  # quadrature bias at m_t = 64

    def test_periodic_by_construction(self, grid3d, op3d, rng):
        m_t = 16
        data = np.stack([random_odd_field(grid3d, rng).data for _ in range(m_t + 1)])
        data[-1] = data[0]
        F = FieldSeries(grid3d, "frequency", data, 1.0)
        u = linear_period_map(F, op3d)
        num = np.sqrt((np.abs(u.data[0] - u.data[-1]) ** 2).sum())
        den = np.sqrt((np.abs(u.data) ** 2).sum(axis=tuple(range(1, 4))).max())
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
    def test_zero_everything(self, grid3d, op3d, cutoffs3d):
        zero = FieldSeries(grid3d, "frequency",
                           np.zeros((17,) + grid3d.shape, dtype=complex), 1.0)
        out = picard_step(zero, zero, op3d, cutoffs3d, SolveOptions(m_t=16))
        assert np.all(out.data == 0)

    def test_zero_u_reduces_to_linear_response(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        g_freq = g.to_frequency()
        zero = FieldSeries(grid3d, "frequency",
                           np.zeros_like(g_freq.data), 1.0)
        stepped = picard_step(zero, g_freq, op3d, cutoffs3d, SolveOptions(m_t=16))
        linear = linear_period_map(g_freq, op3d)
        np.testing.assert_allclose(stepped.data, linear.data, atol=1e-15)

    def test_linear_mode_ignores_u(self, grid3d, op3d, cutoffs3d, rng):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        g_freq = g.to_frequency()
        opts = SolveOptions(m_t=16, nonlinearity_enabled=False)
        u1 = FieldSeries(grid3d, "frequency",
                         np.stack([random_odd_field(grid3d, rng).data
                                   for _ in range(17)]), 1.0)
        zero = FieldSeries(grid3d, "frequency", np.zeros_like(u1.data), 1.0)
        out1 = picard_step(u1, g_freq, op3d, cutoffs3d, opts)
        out0 = picard_step(zero, g_freq, op3d, cutoffs3d, opts)
        np.testing.assert_array_equal(out1.data, out0.data)


class TestSolvePeriodic:
    def test_zero_forcing_converges_immediately(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=0.0, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=16))
        assert rep.converged and rep.iterations == 1
        assert np.all(u.data == 0)
        assert rep.c_estimate is None

    def test_linear_oracle_time_constant_modes(self, grid3d, op3d, cutoffs3d, rng):
        # closed form u = g_hat / lambda for per-mode constant forcing
        m_t = 16
        opts = SolveOptions(m_t=m_t, nonlinearity_enabled=False)
        nz = np.argwhere(grid3d.xi_sq.ravel() > 0).ravel()
        for _ in range(5):
            flat_idx = nz[rng.integers(0, nz.size)]
            idx = np.unravel_index(flat_idx, grid3d.shape)
            if grid3d.nyquist_mask[idx]:
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            data = np.zeros((m_t + 1,) + grid3d.shape, dtype=complex)
            data[(slice(None),) + idx] = c
            g = FieldSeries(grid3d, "frequency", data, 1.0)
            u, rep = solve_periodic(g, op3d, cutoffs3d, opts)
            lam = (1 + 1j) * grid3d.xi_sq[idx]
            err = np.abs(u.data[(slice(None),) + idx] - c / lam).max() / abs(c / lam)
            assert rep.converged
            assert err <= 1e-10

    def test_scaling_self_consistency(self, grid3d, op3d, cutoffs3d):
        cs = []
        for eps in (5e-3, 1e-2):
            g = realize_forcing(ForcingSpec(amplitude=eps, period=1.0), grid3d, 16)
            _, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=16))
            assert rep.converged
            cs.append(rep.c_estimate)
        assert abs(cs[1] / cs[0] - 1.0) <= 0.1

    def test_oddness_of_converged_solution(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=16))
        assert rep.converged
        for m in (0, 5, 11, 16):
            assert check_oddness(u.field(m).to_physical()) <= 1e-10

    def test_divergence_raises_or_reports(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=40.0, period=1.0), grid3d, 16)
        try:
            _, rep = solve_periodic(g, op3d, cutoffs3d,
                                    SolveOptions(m_t=16, max_iterations=12))
            assert not rep.converged
        except NonFiniteField:
            pass  # escape by overflow is the other sanctioned outcome

    def test_split_consistency(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=16))
        low, high = split_series(u, cutoffs3d)
        recombined = low.data + high.data
        err = np.abs(recombined - u.data).max() / np.abs(u.data).max()
        assert err <= 1e-14
        full = equation_residual(u, g, op3d)
        res_low, res_high = split_equation_residual(u, g, op3d, cutoffs3d)
        # sub-system residuals at the same discretization order
        assert res_low <= 2.0 * full and res_high <= 2.0 * full


class TestEquationResidual:
    def test_zero_solution_zero_forcing(self, grid3d, op3d):
        zero = FieldSeries(grid3d, "frequency",
                           np.zeros((17,) + grid3d.shape, dtype=complex), 1.0)
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
            g = FieldSeries(grid3d, "frequency", data, 1.0)
            u, rep = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=m_t))
            assert rep.converged
            resid[m_t] = equation_residual(u, g, op3d)
        assert 3.0 <= resid[16] / resid[32] <= 5.0
        assert 3.0 <= resid[32] / resid[64] <= 5.0

    def test_noise_sensitivity_linear(self, grid3d, op3d, cutoffs3d, rng):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        u, _ = solve_periodic(g, op3d, cutoffs3d, SolveOptions(m_t=16))
        base = equation_residual(u, g, op3d)
        noise = np.stack([random_odd_field(grid3d, rng).data for _ in range(17)])
        node_l2 = np.sqrt((np.abs(noise) ** 2).sum(axis=(1, 2, 3))
                          * grid3d.parseval_factor)
        noise /= node_l2.max()
        grown = []
        for delta in (1e-3, 1e-2):  # noise-dominated, normalization-stable regime
            u_noisy = FieldSeries(grid3d, "frequency", u.data + delta * noise, 1.0)
            resid = equation_residual(u_noisy, g, op3d)
            assert resid > 3.0 * base
            grown.append(resid)
        assert grown[1] / grown[0] == pytest.approx(10.0, rel=0.3)


class TestContractionEstimate:
    def test_geometric_history(self):
        rep = PeriodicSolveReport(converged=True, iterations=4,
                                  residual_history=[1.0, 0.1, 0.01, 0.001],
                                  periodicity_residual=0.0, z_norm=1.0,
                                  g_bracket=1.0, c_estimate=1.0,
                                  contraction_factor=None)
        assert contraction_estimate(rep) == pytest.approx(0.1, rel=1e-12)

    def test_requires_three_residuals(self):
        rep = PeriodicSolveReport(converged=True, iterations=2,
                                  residual_history=[1.0, 0.1],
                                  periodicity_residual=0.0, z_norm=1.0,
                                  g_bracket=1.0, c_estimate=1.0,
                                  contraction_factor=None)
        with pytest.raises(ValueError, match="at least 3"):
            contraction_estimate(rep)

    def test_contraction_below_one_when_converged(self, grid3d, op3d, cutoffs3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        _, rep = solve_periodic(g, op3d, cutoffs3d,
                                SolveOptions(m_t=16, z_tolerance=1e-25))
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
                                SolveOptions(m_t=16, z_tolerance=1e-38,
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
            return (_cubic_difference_data(v, w, grid), _rhs_series_data(v, g, grid),
                    _linear_period_map_data(F, op, 1.3 / m_t, 1e-10))

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
                    _linear_period_map_data(F, op3d, 1 / 64, 1e-10))

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
        # a series whose spatial shape does not match the operator fails to
        # broadcast inside the period map's slab tasks
        F = np.zeros((9,) + grid3d.shape[:-1] + (grid3d.n // 2,), dtype=complex)
        with pytest.raises(ValueError, match="broadcast"):
            on_workers(monkeypatch, 2, _linear_period_map_data, F, op3d, 1 / 8, 1e-10)
