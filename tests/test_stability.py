"""Perturbation dynamics: the expanded right-hand side, the exponential
steppers, the decay recorder and the slope fit. The run steps odd
perturbations about odd bases at the base's node spacing; anything else is
rejected before a base node is built."""

import collections
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from glperiod import (FieldSeries, ForcingSpec, GridConfig, OddnessViolation,
                      PerturbationSpec, SolveOptions, SpectralField,
                      StabilityRunConfig, auto_cutoffs, fit_decay_rate,
                      make_grid, make_operator, realize_forcing,
                      realize_perturbation, run_stability, solve_periodic)
from glperiod import cli, stability
from glperiod.forcing import gauss_dipole
from glperiod.phi import phi1, phi2
from glperiod.spectral import ODDNESS_TOL, WHOLE, Grid, Series, Symmetry, write_snapshot
from glperiod.stability import _base_nodes, _rhs_data, _rhs_work, _Stepper

from conftest import (dipole_symmetry, parity_part, random_field, random_odd_field,
                      random_physical_field, raw_odd_series, raw_random_series)
from oracles import (WholeLatticeStepper, direct_step, exp_step, semigroup_apply,
                     whole_lattice, whole_series)


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
        self.mask = grid.dealias
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
    v_hat = cfg.v_per.frequency_rows(slice(None))
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
    w_hat = cfg.w0.data
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
    v_per, rep = solve_periodic(g, op, cut, SolveOptions())
    assert rep.converged
    return grid, op, cut, g, v_per


def _rhs(w, v):
    return _rhs_data(w, v, np.empty_like(w), _rhs_work(w.shape))


class TestPerturbationRhs:
    def test_zero_perturbation(self, grid3d, rng):
        v = random_physical_field(grid3d, rng)
        assert np.all(_rhs(np.zeros_like(v), v) == 0)

    def test_zero_base_leaves_pure_cubic(self, grid3d, rng):
        w = random_physical_field(grid3d, rng)
        expected = w * np.abs(w) ** 2
        np.testing.assert_allclose(_rhs(w, np.zeros_like(w)), expected, rtol=1e-12, atol=1e-14)

    def test_matches_cubic_difference(self, grid3d, rng):
        worst = 0.0
        for _ in range(20):
            w = random_physical_field(grid3d, rng, dealiased=False)
            v = random_physical_field(grid3d, rng, dealiased=False)
            out = _rhs(w, v)
            vw = v + w
            direct = vw * np.abs(vw) ** 2 - v * np.abs(v) ** 2
            worst = max(worst, np.abs(out - direct).max() / np.abs(direct).max())
        assert worst <= 1e-12

    def test_in_place_rhs_matches_reference(self, grid3d, rng):
        out = np.empty(grid3d.shape, complex)
        work = _rhs_work(grid3d.shape)
        for _ in range(10):
            # raw random fields: every mode, Nyquist included, is populated
            w = random_physical_field(grid3d, rng, dealiased=False)
            v = random_physical_field(grid3d, rng, dealiased=False)
            ref = _reference_rhs(w, v)
            np.testing.assert_allclose(_rhs_data(w, v, out, work), ref, rtol=1e-14,
                                       atol=1e-14 * np.abs(ref).max())


class TestExpStep:
    def test_pure_semigroup_when_rhs_disabled(self, grid3d, op3d, rng):
        w = random_field(grid3d, rng)
        v = np.zeros(grid3d.shape, complex)
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
        g_field = SpectralField(grid1d, g)
        u0 = SpectralField(grid1d, np.zeros(grid1d.shape, complex))
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
        v = whole_series(v_per).data
        v_nodes = [np.fft.ifftn(v[m]) for m in range(v_per.n_steps)]

        def integrate(order, n_steps):
            h = t_final / n_steps
            w = w0
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
        w = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        before = w.data.copy()
        v_now, v_next = np.fft.ifftn(v_per.frequency_rows(slice(0, 2)), axes=(1, 2, 3))
        stepped = exp_step(w, v_now, v_per.dt, op, order=order, v_next=v_next,
                           include_rhs=include_rhs)
        assert np.array_equal(w.data, before)
        assert not np.array_equal(stepped.data, before)

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_allocates_no_field(self, small_setup, order):
        # a stepper's first step (ETD2RK at order 2) and a later one
        # (multistep ETD2 at order 2) are both measured on each layout: the
        # octant, through fold_extend and the one-axis passes in the
        # stepper's pass buffers, and the whole lattice; the bound is the
        # held field
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid).data
        for symmetry in (dipole_symmetry(grid, antiperiodic=True), WHOLE):
            stepper = _Stepper(grid, op, v_per.dt, symmetry)
            fresh = _Stepper(grid, op, v_per.dt, symmetry)
            v_phys = _base_nodes(v_per, symmetry, stepper)
            w_hat = w0[symmetry.held(grid)].copy()
            assert w_hat.shape == symmetry.shape(grid) == stepper.decay.shape
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
        # the shared step (on the whole lattice): a run's first step is bit
        # for bit exp_step(order=2); the second is multistep ETD2 and makes
        # one nonlinear evaluation
        grid, op, cut, g, v_per = small_setup
        v_phys = list(np.fft.ifftn(v_per.frequency_rows(slice(0, 3)), axes=(1, 2, 3)))
        w = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        stepper = WholeLatticeStepper(grid, op, v_per.dt)
        w_hat = stepper.step(w.data.copy(), v_phys[0], v_phys[1], 2)
        single = exp_step(w, v_phys[0], v_per.dt, op, order=2, v_next=v_phys[1])
        assert np.array_equal(w_hat, single.data)
        assert stepper.rhs_evals == 2

        reference = _ReferenceMultistep(grid, op, v_per.dt)
        ref_hat = reference.step(w.data, v_phys[0], v_phys[1], 2)
        np.testing.assert_allclose(w_hat, ref_hat, rtol=0, atol=1e-15 * np.abs(ref_hat).max())
        w_hat = stepper.step(w_hat, v_phys[1], None, 2)
        ref_hat = reference.step(ref_hat, v_phys[1], None, 2)
        assert stepper.rhs_evals == 3
        np.testing.assert_allclose(w_hat, ref_hat, rtol=0, atol=1e-13 * np.abs(ref_hat).max())
        rk_hat = exp_step(single, v_phys[1], v_per.dt, op, order=2, v_next=v_phys[2]).data
        assert not np.allclose(w_hat, rk_hat, rtol=1e-13, atol=0)

    def test_rejects_bad_step(self, grid3d, op3d, rng):
        w = random_field(grid3d, rng)
        with pytest.raises(ValueError):
            exp_step(w, w.data, -0.1, op3d)
        with pytest.raises(ValueError):
            exp_step(w, w.data, 0.1, op3d, order=3)


class TestRunStability:
    def test_zero_perturbation_stays_zero(self, small_setup):
        grid, op, cut, g, v_per = small_setup
        w0 = SpectralField(grid, np.zeros(grid.shape, complex))
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
        # l2_w of the order-2 run about the analytic odd base
        # v = 0.05 sin(2 pi t/T) V (V a unit-peak dipole), sampled on
        # m_t = 16, 32, 64 nodes, against m_t = 512: second order, so the
        # error falls about 4x per halving of h (records every T/4 alike)
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        dipole = np.fft.fftn(gauss_dipole(grid, grid.box_length / 16.0).astype(complex))
        dipole *= 0.05 / np.abs(np.fft.ifftn(dipole)).max()

        def l2_w(m_t):
            a = np.sin(2.0 * np.pi * np.arange(m_t + 1) / m_t)
            base = FieldSeries(grid, a[:, None, None, None] * dipole, 1.0)
            cfg = StabilityRunConfig(t_max=10.0, v_per=base, w0=w0, record_stride=m_t // 4)
            decay = run_stability(cfg, op, cut)
            assert not decay.escaped and decay.steps == 10 * m_t
            return decay.l2_w

        ref = l2_w(512)
        errs = [np.abs(l2_w(m_t) - ref).max() for m_t in (16, 32, 64)]
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

    def test_base_nodes_transform_one_node_at_a_time(self, small_setup):
        # the batched octant inverse's bits, m_t/2 = 8 nodes of 729/4096
        # fields with no temporaries beyond them, on the solve's own
        # antiperiodic octant FieldSeries, whose held planes are read in
        # place (the pass buffers are the run's stepper's)
        grid, op, cut, g, v_per = small_setup
        assert v_per.antiperiodic and v_per.symmetry.parity == (-1, 1, 1)
        _check_base_nodes(v_per, whole_series(v_per), op)

    def test_saved_base_nodes_transform_one_node_at_a_time(self, small_setup):
        # the same on a saved base's one-node reads, here views of a FieldSeries
        v_per = whole_series(small_setup[-1])
        _check_base_nodes(_RowsOnly(v_per), v_per, small_setup[1])

    def test_linear_single_mode_heat_decay(self, grid1d):
        # base solution zero and rhs off: each mode decays exactly like
        # exp(-|xi|^2 t); the odd pair of modes k and -k
        op = make_operator(grid1d, 1.0)
        cut = auto_cutoffs(grid1d, 1.0)
        k = 2
        data = np.zeros(grid1d.shape, dtype=complex)
        data[k], data[-k] = 1.0, -1.0
        w0 = SpectralField(grid1d, data)
        v = FieldSeries(grid1d, np.zeros((17,) + grid1d.shape, complex), 1.0)
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

    @pytest.mark.parametrize("ratio", [1.5, 1.9, 2.5])
    def test_rejects_step_above_node_spacing(self, small_setup, ratio):
        # the step is the base's node spacing: the config takes no other
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        with pytest.raises(TypeError, match="'h'"):
            StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, h=ratio * v_per.dt)

    @pytest.mark.parametrize("order", [1, 2])
    def test_steps_once_per_base_node(self, small_setup, monkeypatch, order):
        # step s reads node s mod m_t, and the ETD2RK first step node 1 at
        # its end; records fall on multiples of stride * T/m_t. The base is
        # antiperiodic: nodes 0..m_t/2 - 1 are held, and node m + m_t/2 is
        # minus node m, written into one buffer
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        m_t = v_per.n_steps
        built, read, negated = _spy_base_reads(monkeypatch)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=4, order=order)
        decay = run_stability(cfg, op, cut)
        assert len(built) == 1 and len(built[0]) == m_t // 2 == decay.base["nodes_held"]
        assert decay.steps == len(read) == 10 * m_t
        assert read[0] == ([0, 1] if order == 2 else [0])
        assert [r[0] for r in read] == [s % m_t for s in range(10 * m_t)]
        assert all(len(r) == 1 for r in read[1:])
        assert len(negated) == 1  # one run-owned buffer
        np.testing.assert_array_equal(decay.times, np.arange(41) * 4 * (1.0 / m_t))

    def test_csv_roundtrip(self, small_setup, tmp_path, monkeypatch):
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=8)
        decay = run_stability(cfg, op, cut)
        path = tmp_path / "decay.csv"
        decay.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,l2_w,h1_grad_w,n1,n2,n"
        assert len(rows) == decay.times.size + 1
        # csv's \r\n line ends, and no temporary file left beside it
        assert path.read_bytes().count(b"\r\n") == len(rows)
        assert [p.name for p in tmp_path.iterdir()] == ["decay.csv"]
        # written atomically: a write that fails before its rename leaves
        # the previous file whole
        with monkeypatch.context() as m:
            m.setattr(os, "replace", _failing_replace)
            with pytest.raises(OSError, match="rename refused"):
                decay.write_csv(path)
        assert len(path.read_text().strip().splitlines()) == len(rows)


def _failing_replace(src, dst):
    raise OSError("rename refused")


class _RowsOnly(Series):
    """A series read by frequency_rows only, as a saved base is."""

    def __init__(self, series):
        self.grid, self.period, self.series = series.grid, series.period, series

    def __len__(self):
        return len(self.series)

    def frequency_rows(self, rows):
        return self.series.frequency_rows(rows)


def _check_base_nodes(base, whole, op):
    """_base_nodes of the antiperiodic dipole base is its m_t/2 first nodes on
    the octant, with the bits of the batched octant inverse of those nodes of
    the series `whole` (base's every node), and a traced peak of at most 1.1
    times the nodes it returns with the run's stepper's pass buffers."""
    grid, m_t = whole.grid, whole.n_steps
    symmetry = dipole_symmetry(grid, antiperiodic=True)
    octant = (slice(m_t // 2),) + symmetry.held(grid)
    batched = grid.transform(symmetry).ifft(whole.data[octant])
    stepper = _Stepper(grid, op, whole.dt, symmetry)
    assert np.array_equal(_base_nodes(base, symmetry, stepper), batched)
    tracemalloc.start()
    try:
        nodes = _base_nodes(base, symmetry, stepper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == m_t // 2 and np.array_equal(nodes, batched)
    assert peak <= 1.1 * nodes.nbytes


def _spy_base_reads(monkeypatch):
    """Spy on a run: the nodes arrays _base_nodes built, per step the base
    nodes the step read (k for held node k, held + k for a buffer with
    minus held node k, bit for bit), and the addresses of those buffers."""
    built, read, negated = [], [], set()
    base_nodes, step = stability._base_nodes, _Stepper.step

    def nodes_spy(*args):
        built.append(base_nodes(*args))
        return built[-1]

    def which(v):
        nodes = built[-1]
        if np.shares_memory(v, nodes):
            return (v.ctypes.data - nodes.ctypes.data) // nodes[0].nbytes
        negated.add(v.ctypes.data)
        return len(nodes) + next(k for k in range(len(nodes)) if np.array_equal(v, -nodes[k]))

    def step_spy(self, w_hat, v_now, v_next, order, include_rhs=True):
        read.append([which(v) for v in (v_now, v_next) if v is not None])
        return step(self, w_hat, v_now, v_next, order, include_rhs)

    monkeypatch.setattr(stability, "_base_nodes", nodes_spy)
    monkeypatch.setattr(_Stepper, "step", step_spy)
    return built, read, negated


def _with_even_part(v_per, size):
    """The base plus a time-constant even field whose largest coefficient is
    `size` times the base's (frequency data)."""
    grid = v_per.grid
    data = v_per.frequency_rows(slice(None))
    even = np.fft.fftn(grid.x[0] * grid.x[-1] * np.exp(-grid.x_abs ** 2 / 8.0))
    even *= size * np.abs(data).max() / np.abs(even).max()
    return FieldSeries(grid, data + even, v_per.period)


def _octant(grid, data):
    """Planes 0..n/2 of every axis of data (stacked or one field): the held
    part of octant data, frequency or physical."""
    return data[(Ellipsis,) + (slice(grid.n // 2 + 1),) * grid.dim]


def _assert_same_run(a, b):
    for key in ("times", "l2_w", "h1_grad_w", "n1_series", "n2_series", "n_series"):
        np.testing.assert_array_equal(getattr(a, key), getattr(b, key))
    assert a.to_json() == b.to_json()


class TestHalfLattice:
    """The stepper's layout, the octant since it replaced the half lattice:
    a perturbation and a base that share a parity per axis are stepped on
    planes 0..n/2 of every axis and agree with the whole-lattice stepper of
    tests/oracles.py to roundoff; other odd inputs step the whole lattice
    (TestLayout), and inputs that are not odd are rejected before a base
    node is built."""

    @staticmethod
    def odd_case(dim, rng):
        grid = make_grid(GridConfig(dim=dim, n_per_axis={1: 32, 2: 16, 3: 8}[dim],
                                    box_length=16.0))
        parity = dipole_symmetry(grid).parity
        w_hat, *v = parity_part(grid, raw_odd_series(grid, 4, rng), parity)
        w_hat *= 0.3 / np.abs(np.fft.ifftn(w_hat)).max()
        v = [np.fft.ifftn(x) for x in v]
        return grid, make_operator(grid, 1.0), w_hat, [x / np.abs(x).max() for x in v]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order, include_rhs", [(1, True), (2, True), (2, False)])
    def test_half_step_matches_full_planes(self, dim, order, include_rhs, rng):
        # three steps: at order 2 the first is ETD2RK and the later ones
        # multistep ETD2
        grid, op, w_hat, v = self.odd_case(dim, rng)
        full = WholeLatticeStepper(grid, op, 0.05)
        held = _Stepper(grid, op, 0.05, dipole_symmetry(grid))
        w_full, w_held = w_hat.copy(), _octant(grid, w_hat).copy()
        for step in range(3):
            full.step(w_full, v[step], v[step + 1], order, include_rhs)
            held.step(w_held, _octant(grid, v[step]), _octant(grid, v[step + 1]),
                      order, include_rhs)
            np.testing.assert_allclose(w_held, _octant(grid, w_full), rtol=1e-12,
                                       atol=1e-12 * np.abs(w_full).max())
        assert held.rhs_evals == full.rhs_evals
        assert not np.allclose(w_held, _octant(grid, w_hat), rtol=1e-3)

    def test_odd_run_steps_half_the_lattice(self, small_setup, monkeypatch):
        # every step advances planes 0..n/2 of every axis only; the run
        # matches the whole-lattice reference run
        # (test_matches_reference_stepper) and its summary names no lattice
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=4)
        shapes = set()
        step = _Stepper.step

        def spy(self, w_hat, *args):
            shapes.add(w_hat.shape)
            return step(self, w_hat, *args)

        monkeypatch.setattr(_Stepper, "step", spy)
        decay = run_stability(cfg, op, cut)
        assert shapes == {(grid.n // 2 + 1,) * 3} and not decay.escaped
        assert decay.base["parity"] == (-1, 1, 1) and decay.base["modes_per_node"] == 9 ** 3
        assert {"half_lattice", "interpolated_vper", "base",
                "parity"}.isdisjoint(json.loads(decay.to_json()))

    @pytest.mark.parametrize("case", ["gauss_perturbation", "base_with_even_part",
                                      "perturbation_with_even_part"])
    def test_other_inputs_are_rejected(self, small_setup, monkeypatch, case):
        # a perturbation names no profile (none but the odd dipole); an even
        # part of 1e-6 in the base or in w0 raises before any base node is built
        grid, op, cut, g, v_per = small_setup
        if case == "gauss_perturbation":
            with pytest.raises(TypeError, match="profile"):
                PerturbationSpec(amplitude=5e-2, profile="gauss")
            return
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        if case == "base_with_even_part":
            base, what = _with_even_part(v_per, 1e-6), "base"
        else:
            even = _with_even_part(FieldSeries(grid, np.stack([w0.data] * 2), 1.0), 1e-6)
            base, w0, what = v_per, SpectralField(grid, even.data[0]), "perturbation"
        monkeypatch.setattr(stability, "_base_nodes", None)  # a call would raise TypeError
        cfg = StabilityRunConfig(t_max=10.0, v_per=base, w0=w0, record_stride=4)
        with pytest.raises(OddnessViolation, match=f"^{what} is not odd on the lattice: "
                                                   "its even part exceeds 1e-12"):
            run_stability(cfg, op, cut)

    def test_odd_base_nodes_keep_half_the_planes(self, grid3d, op3d, rng):
        # m_t = 64 nodes (32 when taken as antiperiodic) of planes 0..8 of
        # every axis (729 of 4096 modes) read from a whole-lattice series of
        # the dipole's parities: the octant inverse of each node's held
        # planes, which is the whole transform's octant to roundoff
        m_t, symmetry = 64, dipole_symmetry(grid3d)
        data = parity_part(grid3d, raw_odd_series(grid3d, m_t, rng), symmetry.parity)
        series = FieldSeries(grid3d, data, 1.0)
        for antiperiodic, held in ((False, m_t), (True, m_t // 2)):
            layout = Symmetry(parity=symmetry.parity, antiperiodic=antiperiodic)
            stepper = _Stepper(grid3d, op3d, 1.0 / m_t, layout)
            _base_nodes(series, layout, stepper)  # warm the FFTs
            full_bytes = held * np.empty(grid3d.shape, complex).nbytes
            tracemalloc.start()
            try:
                nodes = _base_nodes(series, layout, stepper)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert nodes.shape == (held,) + (grid3d.n // 2 + 1,) * 3
            octant = _octant(grid3d, data[:held])
            assert np.array_equal(nodes, grid3d.transform(layout).ifft(octant))
            whole = _octant(grid3d, np.fft.ifftn(data[:held], axes=(1, 2, 3)))
            np.testing.assert_allclose(nodes, whole, rtol=0, atol=1e-13 * np.abs(whole).max())
            assert peak <= 0.19 * full_bytes  # 729/4096 = 0.178

    def test_linear_run_reads_no_base(self, small_setup, monkeypatch):
        # the base is neither tested nor transformed, so one that is not odd
        # is taken, and the run is the run about the odd base
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=_with_even_part(v_per, 1e-6), w0=w0,
                                 record_stride=4, linear_only=True)
        calls = []
        ifftn = np.fft.ifftn
        with monkeypatch.context() as m:
            m.setattr(np.fft, "ifftn", lambda *a, **k: calls.append(1) or ifftn(*a, **k))
            m.setattr(stability, "_base_nodes", None)
            linear = run_stability(cfg, op, cut)
        assert not calls and linear.rhs_evals == 0 and linear.steps == 10 * v_per.n_steps
        _assert_same_run(linear, run_stability(StabilityRunConfig(
            t_max=10.0, v_per=v_per, w0=w0, record_stride=4, linear_only=True), op, cut))


class TestLayout:
    """The run measures the per-axis parities of w0 and of the base by the
    solve's rule (Grid.parity against ODDNESS_TOL) and steps the octant only
    when the two share a signature; else the whole lattice, which matches
    the whole-lattice oracles too."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_mixed_axis_run_takes_the_whole_lattice(self, small_setup, order):
        # w0 odd in x_1 about the base odd in x_0: 2|w|^2 v and w^2 conj(v)
        # take v's parities, so no axis keeps one; the run is the allocating
        # whole-lattice reference run's
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2, axis=1), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0, record_stride=4, order=order)
        decay = run_stability(cfg, op, cut)
        assert decay.base == {"antiperiodic": True, "nodes_held": v_per.n_steps // 2,
                              "parity": None, "modes_per_node": grid.n ** 3}
        times, l2, grad, n1, n2 = _reference_run(cfg, op, cut)
        np.testing.assert_array_equal(decay.times, times)
        for got, want in ((decay.l2_w, l2), (decay.h1_grad_w, grad),
                          (decay.n1_series, n1), (decay.n2_series, n2)):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @staticmethod
    def axis_part(grid, peak, size):
        """An odd field of parities (1, -1, 1) whose largest coefficient is
        `size` ODDNESS_TOL of `peak`: added to data of the dipole's parities
        and that peak, an even part on axis 0 and an odd part on axis 1 of
        that size, the sum still odd."""
        part = parity_part(grid, raw_odd_series(grid, 0, np.random.default_rng(3)), (1, -1, 1))[0]
        return part * (size * ODDNESS_TOL * peak / np.abs(part).max())

    @pytest.mark.parametrize("where", ["w0", "base"])
    @pytest.mark.parametrize("size, octant", [(0.5, True), (4.0, False)])
    def test_axis_part_is_measured_against_the_tolerance(self, small_setup, where, size,
                                                         octant):
        # the base's part rides on its time profile, so it stays antiperiodic
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        if where == "w0":
            w0 = SpectralField(grid, w0.data + self.axis_part(grid, np.abs(w0.data).max(), size))
        else:
            data = v_per.frequency_rows(slice(None))
            profile = np.sin(2.0 * np.pi * np.arange(len(data)) / v_per.n_steps)
            part = self.axis_part(grid, np.abs(data).max(), size)
            v_per = FieldSeries(grid, data + profile[:, None, None, None] * part, v_per.period)
        decay = run_stability(StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                                 record_stride=4), op, cut)
        assert decay.base["antiperiodic"] and not decay.escaped
        assert decay.base["parity"] == ((-1, 1, 1) if octant else None)


class TestTransformCalls:
    """bench/tracer.py counts numpy.fft.fftn and ifftn calls only, so its
    traced FFT work covers the step loop only if every transform of a step
    goes through them: one call per pass (dim per transform on the octant,
    one on the whole lattice), none through numpy.fft's other functions or
    scipy.fft."""

    @pytest.mark.parametrize("layout", ["octant", "whole"])
    def test_step_transforms_through_fftn_and_ifftn(self, small_setup, monkeypatch, layout):
        grid, op, cut, g, v_per = small_setup
        symmetry = dipole_symmetry(grid, antiperiodic=True) if layout == "octant" else WHOLE
        stepper = _Stepper(grid, op, v_per.dt, symmetry)
        v_phys = _base_nodes(v_per, symmetry, stepper)
        w_hat = realize_perturbation(PerturbationSpec(amplitude=5e-2),
                                     grid).data[symmetry.held(grid)].copy()
        calls = collections.Counter()
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, lambda *a, _f=getattr(np.fft, name), _n=name,
                                **k: calls.update([_n]) or _f(*a, **k))

        def refused(*args, **kwargs):
            raise AssertionError("a transform outside numpy.fft.fftn and ifftn")

        import scipy.fft
        for module, names in ((np.fft, ("fft", "ifft", "fft2", "ifft2", "rfft", "irfft",
                                        "rfftn", "irfftn", "hfft", "ihfft")),
                              (scipy.fft, ("fft", "ifft", "fftn", "ifftn", "dct", "idct",
                                           "dst", "idst", "dctn", "idctn", "dstn", "idstn"))):
            for name in names:
                monkeypatch.setattr(module, name, refused)
        for step in range(3):
            stepper.step(w_hat, v_phys[step], v_phys[step + 1], 2)
        passes = grid.dim if layout == "octant" else 1
        assert stepper.rhs_evals == 4
        assert calls == {"ifftn": 4 * passes, "fftn": 4 * passes}


def _saved_base(series, directory):
    """series written as one snapshot file per node and read back as the
    base of `stability --base`."""
    paths = [directory / f"field_{m:04d}.glpf" for m in range(len(series))]
    for m, path in enumerate(paths):
        write_snapshot(SpectralField(series.grid, series.data[m]), path)
    return cli._SavedBase(series.grid, paths, series.period)


class TestSavedBase:
    """A base read from snapshot files takes the node builder of an
    in-memory series, one snapshot at a time."""

    def test_run_holds_the_nodes_not_the_series(self, monkeypatch, tmp_path):
        # an odd run at 16^3, m_t = 64, about a base of the dipole's parities
        # that is not antiperiodic: the octant nodes (11.4 fields) plus the
        # stepper's buffers and set-up temporaries (at most 16 fields,
        # whatever m_t), well below the 65 fields of the frequency series;
        # the symmetry pass reads each snapshot once (node m_t/2 twice, in
        # pairs 0 and m_t/2) and the node build nodes 0..m_t - 1 once more
        grid = make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))
        op, cut, m_t = make_operator(grid, 1.0), auto_cutoffs(grid, 1.0), 64
        rng = np.random.default_rng(11)
        data = np.stack([random_odd_field(grid, rng).data for _ in range(m_t + 1)])
        data = parity_part(grid, data, dipole_symmetry(grid).parity)
        series = FieldSeries(grid, 0.1 * data / np.abs(data).max(), 1.0)
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        cfg = StabilityRunConfig(t_max=10.0, v_per=_saved_base(series, tmp_path), w0=w0,
                                 record_stride=4)
        reads = collections.Counter()
        read = cli.read_snapshot
        monkeypatch.setattr(cli, "read_snapshot",
                            lambda path, grid: reads.update([path]) or read(path, grid))
        saved = run_stability(cfg, op, cut)  # also warms the FFT caches
        assert sorted(set(reads.values())) == [1, 2, 3]
        assert len(reads) == m_t + 1 and sum(reads.values()) == 2 * m_t + 2
        assert reads[cfg.v_per.paths[m_t // 2]] == 3 and not saved.base["antiperiodic"]
        _assert_same_run(saved, run_stability(
            StabilityRunConfig(t_max=10.0, v_per=series, w0=w0, record_stride=4), op, cut))
        tracemalloc.start()
        try:
            run_stability(cfg, op, cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = np.empty(grid.shape, complex).nbytes
        nodes = np.empty((m_t,) + (grid.n // 2 + 1,) * 3, complex).nbytes
        assert saved.base["parity"] == (-1, 1, 1)
        assert peak <= nodes + 16 * field < series.data.nbytes

    def test_base_that_is_not_odd_is_rejected(self, small_setup, monkeypatch, tmp_path):
        # an odd w0 about a base with an even part of 1e-6, in memory and
        # saved: OddnessViolation once each snapshot is read, before any
        # base node is built (through --base: test_harness)
        grid, op, cut, g, v_per = small_setup
        memory = _with_even_part(v_per, 1e-6)
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        monkeypatch.setattr(stability, "_base_nodes", None)
        for base in (memory, _saved_base(memory, tmp_path)):
            with pytest.raises(OddnessViolation, match="^base is not odd on the lattice"):
                run_stability(StabilityRunConfig(t_max=10.0, v_per=base, w0=w0,
                                                 record_stride=4), op, cut)


class TestHalfPeriodBase:
    """An antiperiodic base, v(t + T/2) = -v(t), is held on nodes
    0..m_t/2 - 1: one pass over the node pairs (m, m + m_t/2) tests its
    oddness and measures its antiperiodicity before any node is built, and
    the run's bits are those of the run that holds every node."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_half_period_run_is_the_whole_period_run(self, small_setup, monkeypatch, order):
        # the oracle: the same base as a whole-period series (all m_t + 1
        # nodes, expanded by frequency_rows), not taken as antiperiodic
        grid, op, cut, g, v_per = small_setup
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        whole = FieldSeries(grid, v_per.frequency_rows(slice(None)), v_per.period)
        assert not whole.antiperiodic and len(whole.data) == v_per.n_steps + 1

        def run(base):
            return run_stability(StabilityRunConfig(t_max=10.0, v_per=base, w0=w0,
                                                    record_stride=4, order=order), op, cut)

        half = run(v_per)
        symmetry_of = Grid.symmetry_of

        def periodic(grid, g, octant, what, pooled=True):  # the base's pass finds no half period
            return replace(symmetry_of(grid, g, octant, what, pooled), antiperiodic=False)

        monkeypatch.setattr(Grid, "symmetry_of", periodic)
        every = run(whole)
        layout = {"parity": (-1, 1, 1), "modes_per_node": 9 ** 3}
        assert half.base == {"antiperiodic": True, "nodes_held": v_per.n_steps // 2, **layout}
        assert every.base == {"antiperiodic": False, "nodes_held": v_per.n_steps, **layout}
        assert not half.escaped
        _assert_same_run(half, every)

    def test_base_that_is_not_antiperiodic_holds_every_node(self, small_setup, monkeypatch):
        # forced by eps sin(4 pi t/T) G the solution is odd and T/2-periodic:
        # all m_t nodes are held and step s reads node s mod m_t itself
        grid, op, cut, _, _ = small_setup
        g = realize_forcing(ForcingSpec(amplitude=1e-2, period=1.0,
                                        temporal_profile="harmonic", harmonic=2), grid, 16)
        v_per, rep = solve_periodic(g, op, cut, SolveOptions())
        assert rep.converged and not rep.layout["antiperiodic"]
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        built, read, negated = _spy_base_reads(monkeypatch)
        decay = run_stability(StabilityRunConfig(t_max=10.0, v_per=v_per, w0=w0,
                                                 record_stride=4), op, cut)
        m_t = v_per.n_steps
        assert len(built[0]) == m_t == decay.base["nodes_held"] and not decay.base["antiperiodic"]
        assert [r[0] for r in read] == [s % m_t for s in range(10 * m_t)]
        assert read[0] == [0, 1] and not negated

    @pytest.mark.parametrize("size, antiperiodic", [(0.0, True), (0.5, True), (4.0, False)])
    def test_antiperiodicity_is_measured_against_the_tolerance(self, small_setup, tmp_path,
                                                               size, antiperiodic):
        # nodes m_t/2..m_t of the saved base off by an odd field of `size`
        # ODDNESS_TOL of the peak: a periodic part of size/2 of it per pair
        grid, op, cut, g, v_per = small_setup
        data = v_per.frequency_rows(slice(None))
        odd = random_odd_field(grid, np.random.default_rng(5)).data
        data[v_per.n_steps // 2:] += size * ODDNESS_TOL * np.abs(data).max() * (
            odd / np.abs(odd).max())
        base = _saved_base(FieldSeries(grid, data, v_per.period), tmp_path)
        w0 = realize_perturbation(PerturbationSpec(amplitude=1e-2), grid)
        decay = run_stability(StabilityRunConfig(t_max=10.0, v_per=base, w0=w0,
                                                 record_stride=4), op, cut)
        assert decay.base["antiperiodic"] is antiperiodic
        assert decay.base["nodes_held"] == (8 if antiperiodic else 16)

    def test_even_part_in_the_second_half_is_rejected(self, small_setup, monkeypatch,
                                                      tmp_path):
        # nodes m_t/2..m_t carry the only even part (1e-6 of the peak), in
        # memory and saved: OddnessViolation before any base node is built
        grid, op, cut, g, v_per = small_setup
        data = v_per.frequency_rows(slice(None))
        m_t = v_per.n_steps
        even = _with_even_part(v_per, 1e-6).data - data
        data[m_t // 2:] += even[m_t // 2:]
        memory = FieldSeries(grid, data, v_per.period)
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        monkeypatch.setattr(stability, "_base_nodes", None)  # a call would raise TypeError
        for base in (memory, _saved_base(memory, tmp_path)):
            with pytest.raises(OddnessViolation, match="^base is not odd on the lattice"):
                run_stability(StabilityRunConfig(t_max=10.0, v_per=base, w0=w0,
                                                 record_stride=4), op, cut)

    def test_saved_base_is_read_once_and_a_half(self, small_setup, monkeypatch, tmp_path):
        # the pass reads m_t/2 + 1 pairs (node m_t/2 in two), the node build
        # nodes 0..m_t/2 - 1: 3 m_t/2 + 2 snapshot reads, and the run is the
        # in-memory run's
        grid, op, cut, g, v_per = small_setup
        m_t = v_per.n_steps
        w0 = realize_perturbation(PerturbationSpec(amplitude=5e-2), grid)
        reads = collections.Counter()
        read = cli.read_snapshot
        monkeypatch.setattr(cli, "read_snapshot",
                            lambda path, grid: reads.update([path]) or read(path, grid))
        saved = run_stability(StabilityRunConfig(
            t_max=10.0, v_per=_saved_base(whole_series(v_per), tmp_path), w0=w0,
            record_stride=4), op, cut)
        assert sum(reads.values()) <= 3 * m_t // 2 + 2 and len(reads) == m_t + 1
        assert saved.base["nodes_held"] == m_t // 2
        _assert_same_run(saved, run_stability(StabilityRunConfig(
            t_max=10.0, v_per=v_per, w0=w0, record_stride=4), op, cut))


class TestStepOrder:
    """The run is second order in h = T/m_t at t_max with ETD2 and first with
    exponential Euler: on a dim-2, n-16 grid the base is solved at m_t = 32,
    64 and 128 and each run steps at its node spacing to t_max = 10. The
    observed order of ||w|| and ||grad w|| at t_max (decay.csv's last row),
    log2 of the ratio of successive differences, lies in [1.8, 2.2] for ETD2
    (measured: 2.02 for both) and near 1 for exponential Euler (0.84 for
    both; it reads 0.59 at m_t 16..64 and 0.93 at 64..256, a first-order
    error with a large second-order part). Without the h phi2 (N_n - N_{n-1})
    term ETD2 is exponential Euler, and its band check fails."""

    BAND = (1.8, 2.2)

    @pytest.fixture(scope="class")
    def bases(self):
        grid = make_grid(GridConfig(dim=2, n_per_axis=16, box_length=16.0))
        op, cut = make_operator(grid, 1.0), auto_cutoffs(grid, 1.0)
        bases = []
        for m_t in (32, 64, 128):
            g = realize_forcing(ForcingSpec(amplitude=0.5, period=1.0), grid, m_t)
            u, rep = solve_periodic(g, op, cut, SolveOptions())
            assert rep.converged and rep.layout["parity"] == (-1, 1)
            bases.append(u)
        return bases, realize_perturbation(PerturbationSpec(amplitude=1e-2), grid), op, cut

    @staticmethod
    def orders(bases, order):
        bases, w0, op, cut = bases
        last = np.array([
            (run.l2_w[-1], run.h1_grad_w[-1]) for run in (
                run_stability(StabilityRunConfig(t_max=10.0, v_per=u, w0=w0, order=order,
                                                 record_stride=u.n_steps), op, cut)
                for u in bases)])
        return np.log2(np.abs(last[0] - last[1]) / np.abs(last[1] - last[2]))

    def in_band(self, bases):
        return all(self.BAND[0] <= p <= self.BAND[1] for p in self.orders(bases, 2))

    def test_etd2_is_second_order(self, bases):
        assert self.in_band(bases)

    def test_exponential_euler_is_first_order(self, bases):
        assert all(0.7 <= p <= 1.3 for p in self.orders(bases, 1))

    def test_etd2_without_the_phi2_term_fails(self, monkeypatch, bases):
        init = _Stepper.__init__

        def no_phi2(stepper, *args):
            init(stepper, *args)
            stepper.h_phi2[...] = 0.0

        monkeypatch.setattr(_Stepper, "__init__", no_phi2)
        assert not self.in_band(bases)


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
