"""Forcing realization: periodicity, oddness, seam decay, scaling."""

import numpy as np
import pytest

from glperiod import (ForcingSpec, PerturbationSpec, SeamDecayViolation,
                      SpectralField, forcing_bracket, realize_forcing,
                      realize_perturbation, spectral)
from glperiod.errors import OddnessViolation
from glperiod.forcing import (check_seam_decay, gauss_dipole, spatial_profile,
                              temporal_values)

from oracles import odd_residual, whole_series


class TestRealizeForcing:
    def test_zero_amplitude_gives_zero_series(self, grid3d):
        # the profile is built and checked at amplitude 0 too; the rows are zero by value
        spec = ForcingSpec(amplitude=0.0, period=1.0)
        g = realize_forcing(spec, grid3d, 8)
        np.testing.assert_array_equal(g.profile, spatial_profile(spec, grid3d))
        assert np.all(g.frequency_rows(slice(None)) == 0)

    def test_dipole_vanishes_at_origin(self, grid3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 8)
        phys = np.fft.ifftn(whole_series(g).data, axes=grid3d.series_axes)
        origin = (grid3d.n // 2,) * 3
        for m in range(9):  # zero to the roundoff of the inverse transform
            assert abs(phys[(m,) + origin]) <= 8 * np.finfo(float).eps * 1e-2

    def test_exact_time_periodicity(self, grid3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        data = g.frequency_rows(slice(None))
        np.testing.assert_array_equal(data[0], data[16])

    def test_oddness_at_every_node(self, grid3d):
        g = whole_series(realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 8))
        for m in range(9):
            assert odd_residual(SpectralField(grid3d, g.data[m])) <= 1e-12

    def test_bracket_scales_linearly(self, grid3d):
        g1, g2 = (whole_series(realize_forcing(ForcingSpec(amplitude=eps, period=1.0), grid3d, 16))
                  for eps in (1e-2, 2e-2))
        assert forcing_bracket(g2) / forcing_bracket(g1) == pytest.approx(2.0, rel=1e-12)

    def test_peak_amplitude_equals_epsilon(self, grid3d):
        eps = 3.7e-3
        g = realize_forcing(ForcingSpec(amplitude=eps, period=1.0,
                                        temporal_profile="cos_fundamental"),
                            grid3d, 8)
        g0, = g.frequency_rows(slice(0, 1))
        assert np.abs(np.fft.ifftn(g0)).max() == pytest.approx(eps, rel=1e-12)

    def test_bracket_matches_separable_closed_form(self, grid3d):
        import glperiod as gl
        m_t = 16
        eps = 1e-2
        g = realize_forcing(ForcingSpec(amplitude=eps, period=1.0), grid3d, m_t)
        # sin profile peaks at node m_t/4; recover the spatial factor there
        peak_node = m_t // 4
        profile = SpectralField(grid3d, whole_series(g).data[peak_node] / eps)
        closed = eps * np.sqrt(0.5) * (gl.lp_norm(profile, 1, weighted=True)
                                       + gl.sobolev_norm(profile, 1, weighted=True))
        assert forcing_bracket(whole_series(g)) == pytest.approx(closed, rel=1e-8)

    def test_wide_profile_rejected_at_seam(self, grid3d):
        wide = ForcingSpec(amplitude=1e-2, period=1.0, sigma=grid3d.box_length / 4.0)
        with pytest.raises(SeamDecayViolation):
            realize_forcing(wide, grid3d, 8)

    def test_even_custom_profile_rejected(self, grid3d):
        even = SpectralField(grid3d, np.fft.fftn(np.exp(-grid3d.x_abs ** 2 / 8.0)))
        spec = ForcingSpec(amplitude=1e-2, period=1.0, custom_profile=even)
        with pytest.raises(OddnessViolation):
            realize_forcing(spec, grid3d, 8)

    @pytest.mark.parametrize("even_part", [0.0, 1e-6])
    def test_custom_profile_takes_the_solves_rule(self, grid3d, even_part):
        # an odd dipole is the default profile; an even part of 1e-6 of it is not odd
        odd = gauss_dipole(grid3d, 2.0)
        profile = odd + even_part * np.abs(odd).max() * np.exp(-grid3d.x_abs ** 2 / 8.0)
        spec = ForcingSpec(amplitude=1e-2, period=1.0,
                           custom_profile=SpectralField(grid3d, np.fft.fftn(profile)))
        if even_part:
            with pytest.raises(OddnessViolation):
                realize_forcing(spec, grid3d, 8)
        else:  # the custom peak is read through an inverse transform: roundoff
            default = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0, sigma=2.0),
                                      grid3d, 8).frequency_rows(slice(None))
            custom = realize_forcing(spec, grid3d, 8).frequency_rows(slice(None))
            np.testing.assert_allclose(custom, default,
                                       rtol=0, atol=8 * np.finfo(float).eps * np.abs(default).max())

    def test_dipole_that_decays_but_is_not_odd_rejected(self, grid3d):
        # sigma = L/14 passes the seam check, yet its seam rows leave an even
        # part above ODDNESS_TOL: the solve would not take it as odd
        sigma = grid3d.box_length / 14.0
        assert check_seam_decay(gauss_dipole(grid3d, sigma), grid3d) < 1e-8
        with pytest.raises(OddnessViolation, match="not odd"):
            realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0, sigma=sigma), grid3d, 8)

    def test_profile_checked_once(self, monkeypatch, grid3d):
        # eps * a(t) * G is odd exactly when G is: one test, not one per node
        calls = []
        is_odd = spectral.Grid.is_odd

        def counting(grid, data, keep=None):
            calls.append(len(data))
            return is_odd(grid, data, keep)

        monkeypatch.setattr(spectral.Grid, "is_odd", counting)
        realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid3d, 16)
        assert calls == [1]

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -1e-2])
    def test_amplitude_must_be_finite_and_nonnegative(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            ForcingSpec(amplitude=amplitude, period=1.0)

    def test_harmonic_profile(self, grid3d):
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0,
                                        temporal_profile="harmonic", harmonic=2),
                            grid3d, 16)
        # second harmonic vanishes at t = T/4 and T/2
        g4, = g.frequency_rows(slice(4, 5))
        assert np.abs(np.fft.ifftn(g4)).max() == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("temporal_profile", ["sin_fundamental", "cos_fundamental"])
    def test_frequency_samples_match_transformed_physical_samples(self, grid3d,
                                                                  temporal_profile):
        # eps a(t_m) G_hat against the node-by-node transform of the physical
        # samples eps a(t_m) G / max|G|
        spec = ForcingSpec(amplitude=3e-2, period=1.0, temporal_profile=temporal_profile)
        profile = gauss_dipole(grid3d, grid3d.box_length / 16.0).astype(complex)
        profile = profile / np.abs(profile).max()
        a = temporal_values(spec, 16)
        expected = np.array([np.fft.fftn(spec.amplitude * a_m * profile) for a_m in a])
        got = realize_forcing(spec, grid3d, 16).frequency_rows(slice(None))
        assert np.abs(got - expected).max() <= 8 * np.finfo(float).eps * np.abs(expected).max()


    @pytest.mark.parametrize("amplitude", [0.0, 3e-2])
    def test_rows_are_the_product_of_the_factors(self, grid3d, amplitude):
        # the forcing holds a(t_m) and G_hat only; any row range is
        # amplitude * a * G_hat bit for bit, at amplitude 0 zero by value
        spec = ForcingSpec(amplitude=amplitude, period=1.0)
        g = realize_forcing(spec, grid3d, 16)
        a = temporal_values(spec, 16)
        expected = amplitude * a[:, None, None, None] * spatial_profile(spec, grid3d)
        assert np.any(expected != 0) == (amplitude != 0)
        for rows in (slice(None), slice(3, 11), slice(16, 17), slice(5, 5)):
            assert g.frequency_rows(rows).tobytes() == expected[rows].tobytes()
        held = [v.nbytes for v in vars(g).values() if isinstance(v, np.ndarray)]
        assert sum(held) <= (17 + grid3d.n ** 3) * 16


class TestPerturbation:
    def test_dipole_default(self, grid3d):
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid3d)
        assert np.abs(np.fft.ifftn(w0.data)).max() == pytest.approx(1e-2, rel=1e-12)
        assert odd_residual(w0) <= 1e-12

    def test_even_profile_rejected(self):
        # the stability run steps odd perturbations only: a spec names no
        # profile, so none but the odd dipole can be asked for
        with pytest.raises(TypeError, match="profile"):
            PerturbationSpec(amplitude=1e-2, profile="gauss", sigma=2.0)

    @pytest.mark.parametrize("divisor", [13, 14, 15])
    def test_dipole_that_is_not_odd_on_the_lattice_rejected(self, grid3d, divisor):
        # widths L/13 to L/15 pass the seam check but not Grid.is_odd
        spec = PerturbationSpec(amplitude=1e-2, sigma=grid3d.box_length / divisor)
        with pytest.raises(OddnessViolation, match="^perturbation profile "
                                                   "is not odd on the lattice"):
            realize_perturbation(spec, grid3d)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="finite"):
            PerturbationSpec(amplitude=amplitude)
