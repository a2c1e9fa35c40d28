"""Cutoff construction, projections, the semigroup and the inverse period
multiplier."""

import numpy as np
import pytest

from glperiod import CutoffSpec, SpectralField, auto_cutoffs, make_cutoffs, make_operator
from glperiod.operators import smooth_step

from conftest import random_field, random_odd_field
from oracles import (check_zero_mode, inverse_multiplier_ratio, multiplier_bound,
                     odd_residual, period_inverse_apply, project, semigroup_apply)


class TestCutoffs:
    def test_plateaus(self, grid3d, cutoffs3d):
        inside = grid3d.xi_abs <= cutoffs3d.r1 / 2
        outside = grid3d.xi_abs >= 2 * cutoffs3d.r_inf
        assert np.all(cutoffs3d.chi1[inside] == 1.0)
        assert np.all(cutoffs3d.chi1[outside] == 0.0)
        assert np.all(cutoffs3d.chi_inf[outside] == 1.0)

    def test_midpoint_is_half(self):
        assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_complement_exact(self, cutoffs3d):
        assert np.all(cutoffs3d.chi_inf == 1.0 - cutoffs3d.chi1)

    def test_range(self, cutoffs3d):
        assert cutoffs3d.chi1.min() >= 0.0 and cutoffs3d.chi1.max() <= 1.0

    def test_rejects_bad_radii(self, grid3d):
        with pytest.raises(ValueError):
            make_cutoffs(1.0, 0.5, grid3d)
        with pytest.raises(ValueError):
            make_cutoffs(-1.0, 0.5, grid3d)

    def test_auto_respects_period_constraint(self, grid3d):
        for T in (0.5, 1.0, 4.0):
            cut = auto_cutoffs(grid3d, T)
            assert T * cut.r_inf ** 2 <= 1.0 + 1e-12
            assert cut.r1 == pytest.approx(cut.r_inf / 2)

    def test_validate_flags_tampering(self, grid3d, cutoffs3d):
        bad = CutoffSpec(r1=cutoffs3d.r1, r_inf=cutoffs3d.r_inf,
                         chi1=cutoffs3d.chi1,
                         chi_inf=cutoffs3d.chi_inf + 1e-6)
        with pytest.raises(ValueError, match="1 - chi1"):
            bad.validate(grid3d)


class TestProjections:
    def test_low_mode_passes_untouched(self, grid3d, cutoffs3d):
        idx = np.unravel_index(
            np.argmin(np.where(grid3d.xi_abs > 0, grid3d.xi_abs, np.inf)),
            grid3d.shape)
        data = np.zeros(grid3d.shape, dtype=complex)
        data[idx] = 2.0 - 1.0j
        f = SpectralField(grid3d, data)
        low = project(f, "low", cutoffs3d)
        high = project(f, "high", cutoffs3d)
        np.testing.assert_array_equal(low.data, data)
        assert np.all(high.data == 0)

    def test_completeness(self, grid3d, cutoffs3d, rng):
        f = random_field(grid3d, rng)
        total = project(f, "low", cutoffs3d).data + project(f, "high", cutoffs3d).data
        resid = np.abs(total - f.data).max() / np.abs(f.data).max()
        assert resid <= 1e-14

    def test_projection_not_idempotent_only_in_band(self, grid3d, cutoffs3d, rng):
        f = random_field(grid3d, rng)
        once = project(f, "low", cutoffs3d)
        twice = project(once, "low", cutoffs3d)
        # mode-by-mode the second application multiplies by chi1 again
        expected = (f.data * cutoffs3d.chi1) * cutoffs3d.chi1 * grid3d.keep_nyquist_free
        np.testing.assert_allclose(twice.data, expected, rtol=1e-13, atol=1e-14)
        band = (cutoffs3d.chi1 > 0) & (cutoffs3d.chi1 < 1)
        outside = ~band
        np.testing.assert_array_equal(twice.data[outside], once.data[outside])

    def test_support(self, grid3d, cutoffs3d, rng):
        f = random_field(grid3d, rng)
        low = project(f, "low", cutoffs3d).data
        high = project(f, "high", cutoffs3d).data
        assert np.all(low[grid3d.xi_abs > cutoffs3d.r_inf] == 0)
        assert np.all(high[grid3d.xi_abs < cutoffs3d.r1] == 0)

    def test_preserves_oddness(self, grid3d, cutoffs3d, rng):
        f = random_odd_field(grid3d, rng)
        assert odd_residual(project(f, "low", cutoffs3d)) <= 1e-12


class TestSemigroup:
    def test_t_zero_is_identity(self, grid3d, op3d, rng):
        f = random_field(grid3d, rng)
        out = semigroup_apply(f, 0.0, op3d)
        np.testing.assert_allclose(out.data, f.data * grid3d.keep_nyquist_free,
                                   atol=1e-16)

    def test_single_mode_closed_form(self, grid1d):
        op = make_operator(grid1d, 1.0)
        k = 1  # xi = 1 on the 2*pi box
        data = np.zeros(grid1d.shape, dtype=complex)
        data[k] = 1.0
        f = SpectralField(grid1d, data)
        t = np.log(2.0)
        out = semigroup_apply(f, t, op)
        assert abs(out.data[k]) == pytest.approx(0.5, rel=1e-13)
        assert np.angle(out.data[k]) == pytest.approx(-np.log(2.0), rel=1e-12)

    def test_composition(self, grid3d, op3d, rng):
        f = random_field(grid3d, rng)
        t1, t2 = 0.13, 0.29
        composed = semigroup_apply(semigroup_apply(f, t1, op3d), t2, op3d)
        direct = semigroup_apply(f, t1 + t2, op3d)
        err = np.abs(composed.data - direct.data).max() / np.abs(direct.data).max()
        assert err <= 1e-12

    def test_rejects_negative_time(self, grid3d, op3d, rng):
        f = random_field(grid3d, rng)
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_apply(f, -0.1, op3d)

    def test_high_band_contraction(self, grid3d, op3d, cutoffs3d, rng):
        f = project(random_field(grid3d, rng),
                    "high", cutoffs3d)
        norm0 = np.sqrt((np.abs(f.data) ** 2).sum())
        for t in (0.1, 0.5, 1.0):
            evolved = semigroup_apply(f, t, op3d)
            bound = np.exp(-cutoffs3d.r1 ** 2 * t) * norm0
            assert np.sqrt((np.abs(evolved.data) ** 2).sum()) <= bound * (1 + 1e-12)


class TestPeriodInverse:
    def test_single_mode_scalar_value(self, grid1d):
        # choose T so that T*(1+i)*xi^2 = pi*(1+i) at the mode: modulus factor
        # 1/|1+e^{-pi}| = 0.958577...
        k = 1
        xi_sq = grid1d.xi1d[k] ** 2
        T = np.pi / xi_sq
        op = make_operator(grid1d, T)
        data = np.zeros(grid1d.shape, dtype=complex)
        data[k] = 1.0
        out = period_inverse_apply(SpectralField(grid1d, data), op)
        expected_modulus = 1.0 / abs(1.0 - np.exp(-np.pi * (1 + 1j)))
        assert expected_modulus == pytest.approx(0.95858, abs=2e-5)
        assert abs(out.data[k]) == pytest.approx(expected_modulus, rel=1e-12)

    def test_zero_mode_forced_to_zero(self, grid3d, op3d, rng):
        f = random_odd_field(grid3d, rng)
        out = period_inverse_apply(f, op3d)
        assert out.data.flat[0] == 0

    def test_round_trip_on_odd_fields(self, grid3d, op3d, rng):
        f = random_odd_field(grid3d, rng)
        inv = period_inverse_apply(f, op3d)
        forward = (1.0 - np.exp(-op3d.period * op3d.symbol)) * inv.data
        nonzero = grid3d.xi_sq > 0
        err = np.abs(forward[nonzero] - f.data[nonzero]).max() / np.abs(f.data).max()
        assert err <= 1e-12

    def test_rejects_nonzero_mean(self, grid3d, op3d):
        data = np.zeros(grid3d.shape, dtype=complex)
        data.flat[0] = 1.0
        data.flat[5] = 0.5
        with pytest.raises(ValueError, match="not mean-free"):
            period_inverse_apply(SpectralField(grid3d, data), op3d)

    def test_preserves_oddness(self, grid3d, op3d, rng):
        f = random_odd_field(grid3d, rng)
        assert odd_residual(period_inverse_apply(f, op3d)) <= 1e-12


class TestZeroModeCheck:
    """The oracles' mean-mode guard, one check for fields and series: a field
    is a series of one node; the threshold is tol times the largest per-node
    coefficient l2 norm."""

    @pytest.mark.parametrize("nodes", [1, 5])
    def test_threshold(self, grid3d, rng, nodes):
        tol = 1e-10
        data = rng.standard_normal((nodes,) + grid3d.shape) + 0j
        data[:, 0, 0, 0] = 0.0
        flat = data.reshape(nodes, -1)
        total = float(np.sqrt((flat.real ** 2 + flat.imag ** 2).sum(axis=1).max()))
        data[-1, 0, 0, 0] = tol * total * (1.0 - 1e-9)
        check_zero_mode(data, tol)
        data[-1, 0, 0, 0] = tol * total * (1.0 + 1e-9)
        with pytest.raises(ValueError, match="not mean-free"):
            check_zero_mode(data, tol)

    def test_zero_data_passes(self, grid3d):
        check_zero_mode(np.zeros((3,) + grid3d.shape, dtype=complex), 1e-10)


class TestMultiplierBound:
    def test_small_theta_limit(self):
        assert inverse_multiplier_ratio(1e-9) == pytest.approx(1 / np.sqrt(2), rel=1e-6)

    def test_theta_one_closed_form(self):
        expected = 1.0 / abs(1.0 - np.exp(-(1 + 1j)))
        assert inverse_multiplier_ratio(1.0) == pytest.approx(expected, rel=1e-14)

    def test_scan_below_one_for_default_cutoffs(self, grid3d, op3d, cutoffs3d):
        # theta_max = T*r_inf^2 ~ 0.617 at the auto cutoffs on this grid
        c_mult = multiplier_bound(op3d, cutoffs3d, samples=512)
        assert np.isfinite(c_mult)
        assert c_mult <= 1.0

    def test_provable_cap_for_theta_up_to_one(self):
        theta = np.linspace(1e-6, 1.0, 4096)
        cap = np.exp(1.0) / np.sin(1.0)
        assert inverse_multiplier_ratio(theta).max() <= cap

    def test_rejects_zero_samples(self, op3d, cutoffs3d):
        with pytest.raises(ValueError):
            multiplier_bound(op3d, cutoffs3d, samples=0)
