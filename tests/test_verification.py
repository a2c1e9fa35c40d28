"""Check batteries: reproducibility, pass behavior, fault injection."""

import math
import tracemalloc

import numpy as np
import pytest
from test_norms import (_ref_alpha_symbol, _ref_sobolev_norm,
                        _ref_x_weighted_gradient_norm)

from glperiod import (CutoffSpec, ForcingSpec, NormSuite, SolveOptions, SpectralField,
                      lp_norm, realize_forcing, solve_periodic)
from glperiod.verification import (STACK_SAMPLES, _band_envelope, _band_stack,
                                   _high_freq_decay_norms,
                                   check_bernstein, check_energy_inequality,
                                   check_hardy, check_high_freq_decay,
                                   check_high_freq_weighted_poincare,
                                   check_low_freq_smoothing,
                                   check_nonlinear_bound,
                                   check_period_inverse_bound,
                                   check_projection_completeness,
                                   random_band_field, reports_to_json,
                                   run_all_checks, sample_rngs)


@pytest.fixture(scope="module")
def solved(grid3d_module, op3d_module, cutoffs3d_module):
    grid, op, cut = grid3d_module, op3d_module, cutoffs3d_module
    g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid, 16)
    u, rep = solve_periodic(g, op, cut, SolveOptions(m_t=16))
    assert rep.converged
    return u, g


@pytest.fixture(scope="module")
def grid3d_module():
    from glperiod import GridConfig, make_grid
    return make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))


@pytest.fixture(scope="module")
def op3d_module(grid3d_module):
    from glperiod import make_operator
    return make_operator(grid3d_module, 1.0)


@pytest.fixture(scope="module")
def cutoffs3d_module(grid3d_module):
    from glperiod import auto_cutoffs
    return auto_cutoffs(grid3d_module, 1.0)


class TestRandomBandFields:
    def test_low_band_support(self, grid3d_module, cutoffs3d_module):
        rng = np.random.default_rng(1)
        f = random_band_field(grid3d_module, rng, "low", cutoffs3d_module)
        assert np.all(f.data[grid3d_module.xi_abs > cutoffs3d_module.r_inf] == 0)

    def test_high_band_support(self, grid3d_module, cutoffs3d_module):
        rng = np.random.default_rng(1)
        f = random_band_field(grid3d_module, rng, "high", cutoffs3d_module)
        assert np.all(f.data[grid3d_module.xi_abs < cutoffs3d_module.r1] == 0)

    def test_odd_symmetrization(self, grid3d_module, cutoffs3d_module):
        rng = np.random.default_rng(2)
        f = random_band_field(grid3d_module, rng, "low", cutoffs3d_module, odd=True)
        reflected = grid3d_module.reflect(f.data)
        np.testing.assert_allclose(reflected, -f.data, atol=1e-16)
        assert f.data.flat[0] == 0

    @pytest.mark.parametrize("band, odd", [("low", False), ("high", False),
                                           ("full", False), ("full", True)])
    def test_shared_envelope_draws_unchanged(self, grid3d_module, cutoffs3d_module,
                                             band, odd):
        # one envelope per battery draws, in order, the fields that the
        # per-call envelope drew: same RNG stream, same bits
        grid, cut = grid3d_module, cutoffs3d_module
        scale = {"low": cut.r_inf, "high": 4.0 * cut.r1, "full": 2.0 * cut.r_inf}[band]
        weight = {"low": cut.chi1, "high": cut.chi_inf, "full": 1.0}[band]
        refs = []
        for rng in sample_rngs(5, 3):
            data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            data = data * (np.exp(-((grid.xi_abs / scale) ** 2)) * weight) * grid.keep_nyquist_free
            if odd:
                data = 0.5 * (data - grid.reflect(data))
                data.flat[0] = 0.0
            refs.append(data / np.sqrt((data.real ** 2 + data.imag ** 2).sum()
                                       * grid.parseval_factor))
        singles = [random_band_field(grid, rng, band, cut, odd=odd).data
                   for rng in sample_rngs(5, 3)]
        assert [f.tobytes() for f in singles] == [f.tobytes() for f in refs]
        if not odd:
            stack = _band_stack(grid, sample_rngs(5, 3), _band_envelope(grid, band, cut))
            assert stack.tobytes() == np.array(refs).tobytes()

    def test_seed_split_reproducible(self):
        a = [r.standard_normal() for r in sample_rngs(42, 4)]
        b = [r.standard_normal() for r in sample_rngs(42, 4)]
        assert a == b


class TestBatteries:
    def test_completeness_passes(self, grid3d_module, cutoffs3d_module):
        rep = check_projection_completeness(grid3d_module, cutoffs3d_module,
                                            samples=20, seed=0)
        assert rep.passed
        assert rep.fitted_constant <= 1e-14

    def test_completeness_fails_on_tampered_cutoff(self, grid3d_module,
                                                   cutoffs3d_module):
        band = (cutoffs3d_module.chi1 > 0) & (cutoffs3d_module.chi1 < 1)
        tampered_chi_inf = cutoffs3d_module.chi_inf.copy()
        tampered_chi_inf[band] += 1e-3
        bad = CutoffSpec(r1=cutoffs3d_module.r1, r_inf=cutoffs3d_module.r_inf,
                         chi1=cutoffs3d_module.chi1, chi_inf=tampered_chi_inf)
        rep = check_projection_completeness(grid3d_module, bad, samples=20, seed=0)
        assert not rep.passed

    def test_low_freq_smoothing_constant_bounded(self, op3d_module, cutoffs3d_module):
        rep = check_low_freq_smoothing(op3d_module, cutoffs3d_module,
                                       samples=200, seed=3)
        assert rep.passed
        hint = 1.0 + cutoffs3d_module.r_inf ** 2 * op3d_module.period
        assert rep.fitted_constant <= hint

    def test_period_inverse_bound_scale_invariant(self, op3d_module, cutoffs3d_module):
        rep = check_period_inverse_bound(op3d_module, cutoffs3d_module,
                                         samples=50, seed=4)
        assert rep.passed and math.isfinite(rep.fitted_constant)

    def test_high_freq_decay_cap(self, op3d_module, cutoffs3d_module):
        rep = check_high_freq_decay(op3d_module, cutoffs3d_module, samples=50, seed=5)
        assert rep.passed
        assert rep.fitted_constant <= 4.0

    def test_bernstein(self, grid3d_module, cutoffs3d_module):
        rep = check_bernstein(grid3d_module, cutoffs3d_module, samples=50, seed=6)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + 1e-12

    def test_hardy(self, grid3d_module):
        rep = check_hardy(grid3d_module, samples=50, seed=7)
        assert rep.passed and math.isfinite(rep.fitted_constant)

    def test_weighted_poincare(self, grid3d_module, cutoffs3d_module):
        rep = check_high_freq_weighted_poincare(grid3d_module, cutoffs3d_module,
                                                samples=50, seed=8)
        assert rep.passed

    def test_energy_inequality_on_solved_run(self, solved, op3d_module,
                                             cutoffs3d_module):
        u, g = solved
        rep = check_energy_inequality(u, g, op3d_module, cutoffs3d_module)
        assert rep.passed
        assert rep.extras["d"] > 0

    def test_energy_inequality_rejects_zero_trajectory(self, grid3d_module,
                                                       op3d_module,
                                                       cutoffs3d_module):
        from glperiod import FieldSeries
        zero = FieldSeries(grid3d_module, "frequency",
                           np.zeros((17,) + grid3d_module.shape, complex), 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            check_energy_inequality(zero, zero, op3d_module, cutoffs3d_module)

    def test_nonlinear_bound_unit_constant_at_zero_solution(self, grid3d_module,
                                                            op3d_module,
                                                            cutoffs3d_module):
        from glperiod import FieldSeries
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0),
                            grid3d_module, 16)
        zero = FieldSeries(grid3d_module, "frequency",
                           np.zeros((17,) + grid3d_module.shape, complex), 1.0)
        reports = check_nonlinear_bound(zero, g, op3d_module, cutoffs3d_module)
        for rep in reports:
            assert rep.fitted_constant == pytest.approx(1.0, rel=1e-10)

    def test_nonlinear_bound_on_solved_run(self, solved, op3d_module,
                                           cutoffs3d_module):
        u, g = solved
        for rep in check_nonlinear_bound(u, g, op3d_module, cutoffs3d_module):
            assert rep.passed and math.isfinite(rep.fitted_constant)

    def test_zero_sample_battery_rejected(self, op3d_module, cutoffs3d_module):
        with pytest.raises(ValueError, match="zero-sample"):
            check_low_freq_smoothing(op3d_module, cutoffs3d_module,
                                     samples=0, seed=0)


class TestRunAllChecks:
    def test_all_pass_and_deterministic(self, grid3d_module, op3d_module,
                                        cutoffs3d_module, solved):
        u, g = solved
        first = run_all_checks(grid3d_module, op3d_module, cutoffs3d_module,
                               samples=40, seed=99, u_series=u, g_series=g)
        second = run_all_checks(grid3d_module, op3d_module, cutoffs3d_module,
                                samples=40, seed=99, u_series=u, g_series=g)
        assert all(r.passed for r in first)
        assert reports_to_json(first) == reports_to_json(second)
        names = [r.check_name for r in first]
        assert "projection_completeness" in names
        assert "energy_inequality" in names

    def test_seed_change_keeps_verdicts(self, grid3d_module, op3d_module,
                                        cutoffs3d_module):
        a = run_all_checks(grid3d_module, op3d_module, cutoffs3d_module,
                           samples=40, seed=1)
        b = run_all_checks(grid3d_module, op3d_module, cutoffs3d_module,
                           samples=40, seed=2)
        assert [r.passed for r in a] == [r.passed for r in b]
        assert any(ra.fitted_constant != rb.fitted_constant
                   for ra, rb in zip(a, b))


# ---------------------------------------------------------------------------
# Stacked batteries against per-sample references: the batteries evaluate
# bounded stacks of sample fields; the references below evaluate one field
# at a time with the per-multi-index and per-axis norms of test_norms.
# ---------------------------------------------------------------------------


def _ref_completeness(grid, cutoffs, samples, seed):
    worst = float(np.abs(cutoffs.chi1 + cutoffs.chi_inf - 1.0).max())
    for rng in sample_rngs(seed, samples):
        f = random_band_field(grid, rng, "full", cutoffs)
        recombined = cutoffs.chi1 * f.data + cutoffs.chi_inf * f.data
        resid = np.sqrt(np.sum(np.abs(recombined - f.data) ** 2) * grid.parseval_factor)
        worst = max(worst, float(resid))
    return worst


def _ref_low_freq_smoothing(op, cutoffs, samples, seed):
    pf = op.grid.parseval_factor
    ratios = []
    for rng in sample_rngs(seed, samples):
        u = random_band_field(op.grid, rng, "low", cutoffs)
        evolved = np.exp(-rng.uniform(0.0, op.period) * op.symbol) * u.data
        num = (np.sqrt(np.sum(np.abs(evolved) ** 2) * pf)
               + np.sqrt(np.sum(np.abs(-op.symbol * evolved) ** 2) * pf))
        ratios.append(num / np.sqrt(np.sum(np.abs(u.data) ** 2) * pf))
    return max(ratios)


def _ref_period_inverse_bound(op, cutoffs, samples, seed):
    from glperiod.forcing import gauss_dipole
    from glperiod.operators import period_inverse_symbol
    grid = op.grid
    inv, keep, L = period_inverse_symbol(op), grid.keep_nyquist_free, grid.box_length
    ratios = []
    for rng in sample_rngs(seed, samples):
        profile = np.zeros(grid.shape, dtype=complex)
        for _ in range(3):
            sigma = rng.uniform(L / 32.0, L / 10.0)
            axis = int(rng.integers(0, grid.dim))
            coeff = rng.standard_normal() + 1j * rng.standard_normal()
            profile += coeff * gauss_dipole(grid, sigma, axis)
        f_hat = np.fft.fftn(profile) * cutoffs.chi1 * keep
        f_hat = 0.5 * (f_hat - grid.reflect(f_hat))
        f_hat.flat[0] = 0.0
        F = SpectralField(grid, "frequency", f_hat)
        u = SpectralField(grid, "frequency", inv * f_hat * keep)
        num = lp_norm(u, 2) + _ref_x_weighted_gradient_norm(u)
        den = lp_norm(F, 1, weighted=True)
        if den > 0:
            ratios.append(num / den)
    return max(ratios)


def _ref_high_freq_decay_norms(op, cutoffs, samples, seed, n_times):
    grid = op.grid
    t_grid = np.linspace(0.0, op.period, n_times + 1)
    for rng in sample_rngs(seed, samples):
        u = random_band_field(grid, rng, "high", cutoffs)
        yield [_ref_sobolev_norm(SpectralField(grid, "frequency",
                                               np.exp(-t * op.symbol) * u.data), 2)
               for t in t_grid]


def _ref_bernstein(grid, cutoffs, samples, seed):
    grad_ratios, lp_consts = [], {3: 0.0, 6: 0.0, math.inf: 0.0}
    for rng in sample_rngs(seed, samples):
        f = random_band_field(grid, rng, "low", cutoffs)
        l2 = lp_norm(f, 2)
        grad = math.sqrt(float((grid.xi_sq * np.abs(f.data) ** 2).sum())
                         * grid.parseval_factor)
        grad_ratios.append(grad / (cutoffs.r_inf * l2))
        for p in lp_consts:
            lp_consts[p] = max(lp_consts[p], lp_norm(f, p) / l2)
    return max(grad_ratios), lp_consts


def _ref_hardy(grid, samples, seed):
    window = np.exp(-grid.x_abs ** 2 / (2.0 * (grid.box_length / 8.0) ** 2))
    inv_x = np.where(grid.x_abs > 0, 1.0 / np.where(grid.x_abs > 0, grid.x_abs, 1.0), 0.0)
    ratios = []
    for rng in sample_rngs(seed, samples):
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        envelope = np.exp(-((grid.xi_abs * grid.box_length / (8.0 * np.pi)) ** 2))
        f_phys = np.fft.ifftn(raw * envelope * grid.keep_nyquist_free) * window
        f_hat = np.fft.fftn(f_phys)
        num_sq = ((np.abs(f_phys) * inv_x) ** 2).sum() * grid.quad_weight
        grad_sq = 0.0
        for axis in range(grid.dim):
            alpha = tuple(1 if a == axis else 0 for a in range(grid.dim))
            d = np.fft.ifftn(f_hat * _ref_alpha_symbol(grid, alpha))
            grad_sq += (np.abs(d) ** 2).sum() * grid.quad_weight
        ratios.append(math.sqrt(num_sq / grad_sq))
    return max(ratios)


def _ref_weighted_poincare_deficits(grid, cutoffs, samples, seed):
    deficits = []
    for rng in sample_rngs(seed, samples):
        f = random_band_field(grid, rng, "high", cutoffs)
        phys = np.fft.ifftn(f.data)
        x_f_sq = ((np.abs(phys) * grid.x_abs) ** 2).sum() * grid.quad_weight
        deficits.append((cutoffs.r1 ** 2 / 2.0) * x_f_sq
                        - _ref_x_weighted_gradient_norm(f) ** 2)
    return deficits


@pytest.mark.parametrize("seed", [11, 12])
class TestStackedBatteriesMatchPerSample:
    """Sample counts straddle the stack size, so the last stack is partial."""

    samples = STACK_SAMPLES + 5

    def test_high_freq_decay_norms(self, seed, op3d_module, cutoffs3d_module):
        # the fitted constant is exactly 1.0 (t = 0) on both sides, so the
        # per-sample norms are what shows a bad stack; 17 time points as in
        # `verify`, so a sample's stack runs as chunks of 8, 8 and 1 fields
        t_grid = np.linspace(0.0, op3d_module.period, 17)
        got = list(_high_freq_decay_norms(op3d_module, cutoffs3d_module, t_grid, 3, seed))
        ref = list(_ref_high_freq_decay_norms(op3d_module, cutoffs3d_module, 3, seed, 16))
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        rep = check_high_freq_decay(op3d_module, cutoffs3d_module, samples=3, seed=seed)
        a = cutoffs3d_module.r1 ** 2 / 2.0
        assert rep.fitted_constant == pytest.approx(
            max(max(math.exp(a * t) * n / norms[0] for t, n in zip(t_grid, norms))
                for norms in ref), rel=1e-12)

    def test_projection_completeness(self, seed, grid3d_module, cutoffs3d_module):
        rep = check_projection_completeness(grid3d_module, cutoffs3d_module,
                                            self.samples, seed)
        assert rep.fitted_constant == pytest.approx(
            _ref_completeness(grid3d_module, cutoffs3d_module, self.samples, seed),
            rel=1e-12)

    def test_low_freq_smoothing(self, seed, op3d_module, cutoffs3d_module):
        rep = check_low_freq_smoothing(op3d_module, cutoffs3d_module, self.samples, seed)
        assert rep.fitted_constant == pytest.approx(
            _ref_low_freq_smoothing(op3d_module, cutoffs3d_module, self.samples, seed),
            rel=1e-12)

    def test_period_inverse_bound(self, seed, op3d_module, cutoffs3d_module):
        rep = check_period_inverse_bound(op3d_module, cutoffs3d_module, self.samples, seed)
        assert rep.fitted_constant == pytest.approx(
            _ref_period_inverse_bound(op3d_module, cutoffs3d_module, self.samples, seed),
            rel=1e-12)

    def test_bernstein(self, seed, grid3d_module, cutoffs3d_module):
        rep = check_bernstein(grid3d_module, cutoffs3d_module, self.samples, seed)
        worst, consts = _ref_bernstein(grid3d_module, cutoffs3d_module, self.samples, seed)
        assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
        assert rep.fitted_constant == pytest.approx(consts[math.inf], rel=1e-12)
        assert rep.extras["c_l3"] == pytest.approx(consts[3], rel=1e-12)
        assert rep.extras["c_l6"] == pytest.approx(consts[6], rel=1e-12)

    def test_hardy(self, seed, grid3d_module):
        rep = check_hardy(grid3d_module, self.samples, seed)
        assert rep.fitted_constant == pytest.approx(
            _ref_hardy(grid3d_module, self.samples, seed), rel=1e-12)

    def test_weighted_poincare(self, seed, grid3d_module, cutoffs3d_module):
        rep = check_high_freq_weighted_poincare(grid3d_module, cutoffs3d_module,
                                                self.samples, seed)
        deficits = _ref_weighted_poincare_deficits(grid3d_module, cutoffs3d_module,
                                                   self.samples, seed)
        # on this grid every deficit is clipped to 0, with a margin (about
        # -360 for unit-L2 fields) far above roundoff, on both sides
        assert max(deficits) < -1.0
        assert rep.fitted_constant == 0.0

    def test_nonlinear_bound(self, seed, solved, op3d_module, cutoffs3d_module):
        # the trajectory battery's weighted L1 node norms now come from the
        # shared L^p helper; this reference is the per-node formula
        from glperiod.norms import _trapz
        from glperiod.periodic_solver import _rhs_series_data
        u, g = solved
        grid, keep = u.grid, u.grid.keep_nyquist_free
        axes = (1, 2, 3)
        F = _rhs_series_data(u.to_frequency().data, g.to_frequency().data, grid, True)
        phys = np.fft.ifftn(F * (cutoffs3d_module.chi1 * keep), axes=axes)
        node = (np.abs(phys) * NormSuite.for_grid(grid).weight).sum(axis=axes) \
            * grid.quad_weight
        low = check_nonlinear_bound(u, g, op3d_module, cutoffs3d_module)[0]
        assert low.extras["lhs"] == pytest.approx(
            float(np.sqrt(_trapz(node ** 2, dx=u.dt))), rel=1e-12)


def _decay_battery_peak_bytes(op, cutoffs, samples):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_high_freq_decay(op, cutoffs, samples=samples, seed=4)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_high_freq_decay_memory_does_not_grow_with_samples(op3d_module, cutoffs3d_module):
    # one sample's evolved fields are one stack; warm the per-grid caches first
    _decay_battery_peak_bytes(op3d_module, cutoffs3d_module, 2)
    few = _decay_battery_peak_bytes(op3d_module, cutoffs3d_module, 10)
    many = _decay_battery_peak_bytes(op3d_module, cutoffs3d_module, 40)
    assert many <= 1.25 * few
