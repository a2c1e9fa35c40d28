"""Perturbation dynamics: the expanded right-hand side, the exponential
steppers, the decay recorder and the slope fit."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from glperiod import (FieldSeries, ForcingSpec, GridConfig,
                      PerturbationSpec, SolveOptions, SpectralField,
                      StabilityRunConfig, auto_cutoffs, direct_step, exp_step,
                      fit_decay_rate, make_grid, make_operator,
                      perturbation_rhs, realize_forcing, realize_perturbation,
                      run_stability, semigroup_apply, solve_periodic)
from glperiod.phi import phi1, phi2
from glperiod.stability import _rhs_data, _rhs_work, _Stepper

from conftest import random_physical_field


# ---------------------------------------------------------------------------
# Reference implementations: the allocating right-hand side and ETD steps that
# the in-place stepper replaced, kept as oracles. _ReferenceStepper is one
# exponential Euler or ETD2RK step; _ReferenceMultistep is the order-2 run
# scheme, multistep ETD2 started by one ETD2RK step.
# ---------------------------------------------------------------------------


def _reference_rhs(w, v):
    v_sq = v.real * v.real + v.imag * v.imag
    w_sq = w.real * w.real + w.imag * w.imag
    return (2.0 * v_sq * w + v * v * np.conj(w)
            + 2.0 * w_sq * v + w * w * np.conj(v) + w_sq * w)


class _ReferenceStepper:
    """Masks the nonlinear term after each transform; returns new arrays."""

    def __init__(self, grid, op, h):
        z = -h * op.symbol
        keep = grid.keep_nyquist_free
        self.decay = np.exp(z) * keep
        self.h_phi1 = h * phi1(z) * keep
        self.h_phi2 = h * phi2(z) * keep
        self.mask = grid.dealias_mask(grid.config.dealias_fraction)
        self.axes = tuple(range(grid.dim))

    def _nonlinear_hat(self, w_hat, v_phys):
        w_phys = np.fft.ifftn(w_hat, axes=self.axes)
        return np.fft.fftn(_reference_rhs(w_phys, v_phys), axes=self.axes) * self.mask

    def step(self, w_hat, v_now, v_next, order):
        f_now = self._nonlinear_hat(w_hat, v_now)
        pred = self.decay * w_hat + self.h_phi1 * f_now
        if order == 1:
            return pred
        f_pred = self._nonlinear_hat(pred, v_next)
        return pred + self.h_phi2 * (f_pred - f_now)


class _ReferenceMultistep(_ReferenceStepper):
    """w_{n+1} = e^{-hA} w_n + h phi1 N_n + h phi2 (N_n - N_{n-1}) after one
    ETD2RK step; keeps N_{n-1} as a new array."""

    def __init__(self, grid, op, h):
        super().__init__(grid, op, h)
        self.f_prev = None

    def step(self, w_hat, v_now, v_next, order):
        if self.f_prev is None:
            self.f_prev = self._nonlinear_hat(w_hat, v_now)
            return super().step(w_hat, v_now, v_next, order)
        f_now = self._nonlinear_hat(w_hat, v_now)
        out = (self.decay * w_hat + self.h_phi1 * f_now
               + self.h_phi2 * (f_now - self.f_prev))
        self.f_prev = f_now
        return out


def _reference_run(cfg, op, cutoffs):
    """Node-locked reference integration with the per-norm recorder:
    (times, l2, grad, n1, n2)."""
    v_hat = cfg.v_per.to_frequency().data
    grid = cfg.v_per.grid
    m_t = cfg.v_per.n_steps
    h = cfg.v_per.dt
    v_phys = np.fft.ifftn(v_hat[:m_t], axes=tuple(range(1, grid.dim + 1)))
    pf, xi_sq = grid.parseval_factor, grid.xi_sq
    chi1 = cutoffs.chi1 * grid.keep_nyquist_free
    chi_inf = cutoffs.chi_inf * grid.keep_nyquist_free
    rows = []
    n1 = n2 = 0.0

    def record(w_hat, t):
        nonlocal n1, n2
        abs_sq = w_hat.real ** 2 + w_hat.imag ** 2
        low_sq = chi1 ** 2 * abs_sq
        high_sq = chi_inf ** 2 * abs_sq
        l2, grad, l2_low, grad_low, h1_high = (
            math.sqrt(float(x.sum()) * pf)
            for x in (abs_sq, xi_sq * abs_sq, low_sq, xi_sq * low_sq,
                      (1.0 + xi_sq) * high_sq))
        n1 = max(n1, (1 + t) ** 0.75 * l2_low + (1 + t) ** 1.25 * grad_low)
        n2 = max(n2, (1 + t) ** 1.25 * h1_high)
        rows.append((t, l2, grad, n1, n2))

    stepper = (_ReferenceMultistep if cfg.order == 2 else _ReferenceStepper)(grid, op, h)
    w_hat = cfg.w0.to_frequency().data
    n_steps = int(math.ceil(cfg.t_max / h - 1e-12))
    record(w_hat, 0.0)
    for step in range(n_steps):
        w_hat = stepper.step(w_hat, v_phys[step % m_t], v_phys[(step + 1) % m_t],
                             cfg.order)
        if (step + 1) % cfg.record_stride == 0 or step + 1 == n_steps:
            record(w_hat, (step + 1) * h)
    return np.array(rows).T


@pytest.fixture(scope="module")
def small_setup():
    grid = make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))
    op = make_operator(grid, 1.0)
    cut = auto_cutoffs(grid, 1.0)
    g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0), grid, 16)
    v_per, rep = solve_periodic(g, op, cut, SolveOptions(m_t=16))
    assert rep.converged
    return grid, op, cut, g, v_per


class TestPerturbationRhs:
    def test_zero_perturbation(self, grid3d, rng):
        v = random_physical_field(grid3d, rng)
        w = SpectralField(grid3d, "physical", np.zeros(grid3d.shape, complex))
        out = perturbation_rhs(w, v)
        assert np.all(out.data == 0)

    def test_zero_base_leaves_pure_cubic(self, grid3d, rng):
        w = random_physical_field(grid3d, rng)
        v = SpectralField(grid3d, "physical", np.zeros(grid3d.shape, complex))
        out = perturbation_rhs(w, v, dealias_output=False).to_physical()
        expected = w.data * np.abs(w.data) ** 2
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)

    def test_matches_cubic_difference(self, grid3d, rng):
        worst = 0.0
        for _ in range(20):
            w = random_physical_field(grid3d, rng, dealiased=False)
            v = random_physical_field(grid3d, rng, dealiased=False)
            out = perturbation_rhs(w, v, dealias_output=False).to_physical().data
            vw = v.data + w.data
            direct = vw * np.abs(vw) ** 2 - v.data * np.abs(v.data) ** 2
            worst = max(worst, np.abs(out - direct).max() / np.abs(direct).max())
        assert worst <= 1e-12

    def test_in_place_rhs_matches_reference(self, grid3d, rng):
        out = np.empty(grid3d.shape, complex)
        work = _rhs_work(grid3d.shape)
        for _ in range(10):
            # raw random fields: every mode, Nyquist included, is populated
            w = random_physical_field(grid3d, rng, dealiased=False).data
            v = random_physical_field(grid3d, rng, dealiased=False).data
            ref = _reference_rhs(w, v)
            np.testing.assert_allclose(_rhs_data(w, v, out, work), ref, rtol=1e-14,
                                       atol=1e-14 * np.abs(ref).max())

    def test_grid_mismatch_rejected(self, grid3d, grid1d):
        w = SpectralField(grid3d, "physical", np.zeros(grid3d.shape, complex))
        v = SpectralField(grid1d, "physical", np.zeros(grid1d.shape, complex))
        with pytest.raises(ValueError, match="grid"):
            perturbation_rhs(w, v)


class TestExpStep:
    def test_pure_semigroup_when_rhs_disabled(self, grid3d, op3d, rng):
        w = random_physical_field(grid3d, rng).to_frequency()
        v = SpectralField(grid3d, "physical", np.zeros(grid3d.shape, complex))
        h = 0.37
        stepped = exp_step(w, v, h, op3d, include_rhs=False)
        exact = semigroup_apply(w, h, op3d)
        np.testing.assert_allclose(stepped.data, exact.data, rtol=1e-13, atol=1e-16)

    def test_constant_forcing_single_mode_phi1(self, grid1d):
        # one direct step from zero with constant per-mode forcing reproduces
        # c (1 - e^{-lambda h}) / lambda
        op = make_operator(grid1d, 1.0)
        k = 4
        lam = (1 + 1j) * grid1d.xi1d[k] ** 2
        c = 0.6 - 0.8j
        g = np.zeros(grid1d.shape, dtype=complex)
        g[k] = c
        g_field = SpectralField(grid1d, "frequency", g)
        u0 = SpectralField(grid1d, "frequency", np.zeros(grid1d.shape, complex))
        h = 1.0 / 16
        u1 = direct_step(u0, g_field, g_field, h, op, order=1, nonlinearity=False)
        expected = c * (1 - np.exp(-lam * h)) / lam
        assert u1.data[k] == pytest.approx(expected, rel=1e-13)

    def test_order_sweep(self, small_setup):
        # Richardson order estimate of the perturbation stepper against a
        # fine-step reference; order-1 halves the error per refinement,
        # order-2 quarters it
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        t_final = 0.25
        v_nodes = [v_per.field(m).to_physical() for m in range(v_per.n_steps)]

        def integrate(order, n_steps):
            h = t_final / n_steps
            w = w0.to_frequency()
            stride = v_per.n_steps / (n_steps * v_per.period / t_final)
            for s in range(n_steps):
                # sample the stored base solution at the matching nodes
                i_now = int(round(s * stride)) % v_per.n_steps
                i_next = int(round((s + 1) * stride)) % v_per.n_steps
                w = exp_step(w, v_nodes[i_now], h, op, order=order,
                             v_next=v_nodes[i_next])
            return w.data

        ref = integrate(2, 16)
        errs = {}
        for order in (1, 2):
            coarse = integrate(order, 2)
            fine = integrate(order, 4)
            errs[order] = (np.abs(coarse - ref).max(), np.abs(fine - ref).max())
        r1 = errs[1][0] / errs[1][1]
        r2 = errs[2][0] / errs[2][1]
        assert 1.5 <= r1 <= 3.0   # first order
        assert 3.0 <= r2 <= 6.0   # second order

    @pytest.mark.parametrize("order, include_rhs", [(1, True), (2, True), (2, False)])
    def test_input_field_untouched(self, small_setup, order, include_rhs):
        grid, op, cut, g, v_per = small_setup
        w = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid).to_frequency()
        before = w.data.copy()
        v_now, v_next = v_per.field(0).to_physical(), v_per.field(1).to_physical()
        stepped = exp_step(w, v_now, v_per.dt, op, order=order, v_next=v_next,
                           include_rhs=include_rhs)
        assert np.array_equal(w.data, before)
        assert not np.array_equal(stepped.data, before)

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_allocates_no_field(self, small_setup, order):
        # a stepper's first step (ETD2RK at order 2) and a later one
        # (multistep ETD2 at order 2) are both measured
        grid, op, cut, g, v_per = small_setup
        stepper = _Stepper(grid, op, v_per.dt)
        fresh = _Stepper(grid, op, v_per.dt)
        v_phys = v_per.to_physical().data
        w_hat = realize_perturbation(PerturbationSpec(amplitude=5e-2),
                                     grid).to_frequency().data.copy()
        stepper.step(w_hat, v_phys[0], v_phys[1], order)  # warm the FFT caches
        for measured in (fresh, stepper):
            tracemalloc.start()
            try:
                measured.step(w_hat, v_phys[1], v_phys[2], order)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < w_hat.nbytes
        assert stepper.has_prev == fresh.has_prev == (order == 2)
        assert (fresh.rhs_evals, stepper.rhs_evals) == (order, order + 1)

    def test_first_order2_step_is_one_exp_step(self, small_setup):
        # a run's first step is bit for bit exp_step(order=2); the second is
        # multistep ETD2 and makes one nonlinear evaluation
        grid, op, cut, g, v_per = small_setup
        v_phys = [v_per.field(m).to_physical() for m in range(3)]
        w = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid).to_frequency()
        stepper = _Stepper(grid, op, v_per.dt)
        w_hat = stepper.step(w.data.copy(), v_phys[0].data, v_phys[1].data, 2)
        single = exp_step(w, v_phys[0], v_per.dt, op, order=2, v_next=v_phys[1])
        assert np.array_equal(w_hat, single.data)
        assert stepper.rhs_evals == 2

        reference = _ReferenceMultistep(grid, op, v_per.dt)
        ref_hat = reference.step(w.data, v_phys[0].data, v_phys[1].data, 2)
        np.testing.assert_allclose(w_hat, ref_hat, rtol=0, atol=1e-15 * np.abs(ref_hat).max())
        w_hat = stepper.step(w_hat, v_phys[1].data, None, 2)
        ref_hat = reference.step(ref_hat, v_phys[1].data, None, 2)
        assert stepper.rhs_evals == 3
        np.testing.assert_allclose(w_hat, ref_hat, rtol=0, atol=1e-13 * np.abs(ref_hat).max())
        rk_hat = exp_step(single, v_phys[1], v_per.dt, op, order=2, v_next=v_phys[2]).data
        assert not np.allclose(w_hat, rk_hat, rtol=1e-13, atol=0)

    def test_rejects_bad_step(self, grid3d, op3d, rng):
        w = random_physical_field(grid3d, rng)
        with pytest.raises(ValueError):
            exp_step(w, w, -0.1, op3d)
        with pytest.raises(ValueError):
            exp_step(w, w, 0.1, op3d, order=3)


class TestRunStability:
    def test_zero_perturbation_stays_zero(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = SpectralField(grid, "physical", np.zeros(grid.shape, complex))
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=4)
        decay = run_stability(cfg, op, cut)
        assert np.all(decay.l2_w == 0.0)
        assert np.all(decay.n_series == 0.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_reference_stepper(self, small_setup, order):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=4,
                                 order=order)
        decay = run_stability(cfg, op, cut)
        times, l2, grad, n1, n2 = _reference_run(cfg, op, cut)
        assert not decay.escaped
        np.testing.assert_array_equal(decay.times, times)
        for got, want in ((decay.l2_w, l2), (decay.h1_grad_w, grad),
                          (decay.n1_series, n1), (decay.n2_series, n2),
                          (decay.n_series, n1 + n2)):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_multistep_order_study(self, small_setup):
        # l2_w of the order-2 run against a fine-step reference (h = dt/32,
        # base blended between nodes): second order, so the error falls
        # about 4x per halving of h
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)

        def l2_w(refine):
            cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                     h=v_per.dt / refine, record_stride=4 * refine)
            decay = run_stability(cfg, op, cut)
            assert not decay.escaped
            return decay.l2_w

        ref = l2_w(32)
        errs = [np.abs(l2_w(refine) - ref).max() for refine in (1, 2, 4)]
        assert 3.0 <= errs[0] / errs[1] <= 6.0
        assert 3.0 <= errs[1] / errs[2] <= 6.0

    @pytest.mark.parametrize("order, linear_only", [(1, False), (2, False), (2, True)])
    def test_step_telemetry(self, small_setup, order, linear_only):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=8,
                                 order=order, linear_only=linear_only)
        decay = run_stability(cfg, op, cut)
        assert decay.steps == 10 * v_per.n_steps
        expected = 0 if linear_only else decay.steps + (order == 2)
        assert decay.rhs_evals == expected
        assert decay.step_s > 0
        summary = json.loads(decay.to_json())
        assert (summary["steps"], summary["rhs_evals"]) == (decay.steps, expected)

    def test_interpolated_base_allocates_two_fields(self, small_setup):
        # the blend of two base nodes goes into two buffers the run owns, so
        # the half-step run's peak exceeds the node-locked one by about two
        # fields
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        field_bytes = np.empty(grid.shape, complex).nbytes

        def peak(h, stride):
            cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, h=h,
                                     record_stride=stride)
            run_stability(cfg, op, cut)  # warm the FFT caches
            tracemalloc.start()
            try:
                run_stability(cfg, op, cut)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = (peak(v_per.dt / 2, 8) - peak(v_per.dt, 4)) / field_bytes
        assert extra <= 2.25

    def test_linear_single_mode_heat_decay(self, grid1d):
        # base solution zero and rhs off: each mode decays exactly like
        # exp(-|xi|^2 t)
        op = make_operator(grid1d, 1.0)
        cut = auto_cutoffs(grid1d, 1.0)
        k = 2
        data = np.zeros(grid1d.shape, dtype=complex)
        data[k] = 1.0
        w0 = SpectralField(grid1d, "frequency", data)
        v = FieldSeries(grid1d, "frequency",
                        np.zeros((17,) + grid1d.shape, complex), 1.0)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v, w0=w0, record_stride=1,
                                 linear_only=True)
        decay = run_stability(cfg, op, cut)
        expected = np.exp(-grid1d.xi1d[k] ** 2 * decay.times) * decay.l2_w[0]
        np.testing.assert_allclose(decay.l2_w, expected, rtol=1e-10)

    def test_linear_norm_nonincreasing(self, small_setup, rng):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                 record_stride=1, linear_only=True)
        decay = run_stability(cfg, op, cut)
        assert np.all(np.diff(decay.l2_w) <= 1e-15)

    def test_n_series_nondecreasing_and_finite(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=2)
        decay = run_stability(cfg, op, cut)
        assert not decay.escaped
        assert np.all(np.isfinite(decay.n_series))
        assert np.all(np.diff(decay.n_series) >= 0)

    def test_escape_reported_not_raised(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=10.0), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=1)
        decay = run_stability(cfg, op, cut)
        assert decay.escaped
        assert decay.escape_time is not None

    def test_requires_ten_periods(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        with pytest.raises(ValueError, match="10 periods"):
            StabilityRunConfig(t_max=5.0, v_per=v_per, w0=w0)

    def test_substepping_flags_interpolation(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        node_locked = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                         record_stride=4)
        assert not run_stability(node_locked, op, cut).interpolated_vper
        half_step = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                       h=v_per.dt / 2, record_stride=8)
        decay = run_stability(half_step, op, cut)
        assert decay.interpolated_vper
        assert not decay.escaped

    def test_csv_roundtrip(self, small_setup, tmp_path):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=8)
        decay = run_stability(cfg, op, cut)
        path = tmp_path / "decay.csv"
        decay.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,l2_w,h1_grad_w,n1,n2,n"
        assert len(rows) == decay.times.size + 1


class TestFitDecayRate:
    def test_exact_power_three_quarters(self):
        t = np.linspace(0.0, 30.0, 400)
        values = (1 + t) ** -0.75
        slope, intercept, r2 = fit_decay_rate(t, values, (1.0, 26.0))
        assert slope == pytest.approx(-0.75, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_five_quarters(self):
        t = np.linspace(0.0, 30.0, 400)
        values = (1 + t) ** -1.25
        slope, _, _ = fit_decay_rate(t, values, (1.0, 26.0))
        assert slope == pytest.approx(-1.25, abs=1e-6)

    def test_noise_robustness_monte_carlo(self):
        t = np.linspace(0.0, 30.0, 400)
        base = (1 + t) ** -0.75
        slopes = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = base * (1.0 + 0.01 * rng.standard_normal(t.size))
            slope, _, _ = fit_decay_rate(t, noisy, (1.0, 26.0))
            slopes.append(slope)
        assert np.max(np.abs(np.asarray(slopes) + 0.75)) <= 0.02

    def test_requires_samples_in_window(self):
        t = np.linspace(0.0, 30.0, 5)
        with pytest.raises(ValueError, match="8 samples"):
            fit_decay_rate(t, np.ones(5), (1.0, 26.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0.0, 30.0, 100)
        values = np.ones(100)
        values[50] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay_rate(t, values, (1.0, 26.0))
