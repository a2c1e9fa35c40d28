"""Property tests (hypothesis) on random odd series: the maps of the solve
preserve lattice oddness, and the half-lattice solve, Z-norm and
perturbation step equal the full ones. A dipole forcing passes realization
only if the solve takes it as odd. The period map's output is periodic, and
antiperiodic for an antiperiodic forcing, to stated roundoff bounds; its
half-period form matches it within the same bound. The cutoffs are a
partition of unity and the perturbation right-hand side is the cubic
difference. Every integer, boolean and float config key rejects a value of
the wrong type with one line, before any lattice is built. A dipole
perturbation is rejected with one line or run, and a damaged snapshot or
manifest of a saved base ends `stability --base` in its exit code with one
line."""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glperiod import cli, spectral
from glperiod import (FieldSeries, ForcingSpec, GridConfig, OddnessViolation,
                      SeamDecayViolation, SolveOptions, auto_cutoffs, make_grid,
                      make_operator, realize_forcing, solve_periodic, z_norm)
from glperiod.config import build_forcing, reference_config
from glperiod.manifest import load_manifest, sha256_of
from glperiod.operators import make_cutoffs
from glperiod.norms import forcing_bracket, l1w_node
from glperiod.periodic_solver import _cubic_difference_data, _linear_period_map_data
from glperiod.spectral import Symmetry
from glperiod.stability import _Stepper, _rhs_data, _rhs_work

from conftest import HALF, antiperiodic_series, raw_odd_series
from oracles import (WholeLatticeStepper, antiperiodicity_bound, odd_fft_every_plane,
                     whole_lattice, whole_lattice_solve, whole_series)

PERIOD = 1.0
PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)
EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def setup(dim):
    grid = make_grid(GridConfig(dim=dim, n_per_axis={1: 16, 2: 8, 3: 8}[dim],
                                box_length=16.0))
    return grid, make_operator(grid, PERIOD), auto_cutoffs(grid, PERIOD)


@st.composite
def odd_series(draw):
    """(dim, m_t + 1 odd frequency fields scaled to a largest modulus `size`)."""
    dim = draw(st.sampled_from([1, 2, 3]))
    m_t = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    size = draw(st.floats(min_value=1e-3, max_value=10.0))
    data = raw_odd_series(setup(dim)[0], m_t, rng)
    return dim, size * data / np.abs(data).max()


@PROPERTY
@given(odd_series(), st.booleans(), st.booleans())
def test_odd_series_rows_are_the_reference_expansion(case, half_planes, antiperiodic):
    # every row range [a, b) of a FieldSeries in each of its four layouts
    # (all planes or planes 0..n/2, every node or nodes 0..m_t/2) is the
    # one-node-at-a-time expansion, bit for bit
    dim, data = case
    grid = setup(dim)[0]
    held = data[:, :grid.n // 2 + 1] if half_planes else data
    if antiperiodic:
        held = held[:len(held) // 2 + 1]
    nodes = 2 * len(held) - 1 if antiperiodic else len(held)
    u = FieldSeries(grid, held, PERIOD, Symmetry(odd=half_planes, antiperiodic=antiperiodic))
    expected = whole_lattice(grid, held, nodes)
    assert len(u) == nodes and u.n_steps == nodes - 1 and u.dt == PERIOD / (nodes - 1)
    for a in range(nodes + 1):
        for b in range(a, nodes + 1):
            assert u.frequency_rows(slice(a, b)).tobytes() == expected[a:b].tobytes()


def even_part(data, grid):
    """max |f + Rf| / 2 relative to max |f|."""
    return np.abs(data + grid.reflect(data)).max() / 2 / np.abs(data).max()


@PROPERTY
@given(odd_series())
def test_period_map_preserves_oddness(case):
    dim, F = case
    grid, op, _ = setup(dim)
    assert even_part(_linear_period_map_data(F, op, PERIOD / (len(F) - 1)),
                     grid) <= 1e-13


@PROPERTY
@given(odd_series())
def test_period_map_output_is_periodic(case):
    # node m_t is e^{-T lambda} u0 + I(T) = u0 up to the roundings of those
    # products, a few eps of the peak (at most 1.1 eps measured)
    dim, F = case
    out = _linear_period_map_data(F, setup(dim)[1], PERIOD / (len(F) - 1))
    assert np.abs(out[-1] - out[0]).max() <= 8 * EPS * np.abs(out).max()


def antiperiodicity_defect(u):
    half = (len(u) - 1) // 2
    return max(np.abs(u[m] + u[m + half]).max() for m in range(half + 1)) / np.abs(u).max()


@PROPERTY
@given(odd_series())
def test_period_map_keeps_antiperiodicity(case):
    dim, data = case
    F, op = antiperiodic_series(data), setup(dim)[1]
    out = _linear_period_map_data(F, op, PERIOD / (len(F) - 1))
    assert antiperiodicity_defect(out) <= antiperiodicity_bound(F, op)


@PROPERTY
@given(odd_series())
def test_half_period_map_equals_full(case):
    # the map of nodes 0..m_t/2, closed by u(T/2) = -u(0), against the map of
    # the whole period on those nodes, within the full map's own defect bound
    # (measured: at most 0.16 of it on 300 random series, dims 1-3, m_t 2-12)
    dim, data = case
    F, op = antiperiodic_series(data), setup(dim)[1]
    h, half = PERIOD / (len(F) - 1), (len(F) + 1) // 2
    full = _linear_period_map_data(F, op, h)
    out = _linear_period_map_data(F[:half], op, h, antiperiodic=True)
    assert np.abs(out - full[:half]).max() <= antiperiodicity_bound(F, op) * np.abs(full).max()


def test_reference_period_map_keeps_antiperiodicity():
    # the reference forcing (32^3, m_t 64, kappa 73.7) on half the lattice:
    # 4.7e-13 of the peak against a bound of 2.2e-12
    cfg = reference_config()
    g = build_forcing(cfg)
    grid = g.grid
    F = np.empty((len(g),) + grid.half_shape, complex)
    assert grid.is_odd(g, keep=F)
    op = make_operator(grid, g.period)
    out = _linear_period_map_data(F, op, g.dt)
    assert antiperiodicity_defect(out) <= antiperiodicity_bound(F, op)


@PROPERTY
@given(odd_series(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cubic_difference_preserves_oddness(case, seed):
    dim, v = case
    grid = setup(dim)[0]
    w = raw_odd_series(grid, len(v) - 1, np.random.default_rng(seed))
    assert even_part(_cubic_difference_data(v, w, grid), grid) <= 1e-13
    assert even_part(_cubic_difference_data(None, w, grid), grid) <= 1e-13


@PROPERTY
@given(odd_series())
def test_solve_iteration_preserves_oddness(case):
    dim, data = case
    grid, op, cutoffs = setup(dim)
    g = FieldSeries(grid, 1e-2 * data, PERIOD)
    u, rep = solve_periodic(g, op, cutoffs, SolveOptions(max_iterations=1))
    assert rep.iterations == 1
    assert even_part(whole_series(u).data, grid) <= 1e-13


@PROPERTY
@given(odd_series())
def test_half_lattice_solve_equals_full(case):
    # two iterations on planes 0..n/2 against the same iteration on all planes
    dim, data = case
    grid, op, cutoffs = setup(dim)
    g = FieldSeries(grid, 1e-2 * data, PERIOD)
    opts = SolveOptions(max_iterations=2)
    u, rep = solve_periodic(g, op, cutoffs, opts)
    u_full, rep_full = whole_lattice_solve(g, op, cutoffs, opts)
    np.testing.assert_allclose(whole_series(u).data, u_full.data, rtol=0,
                               atol=1e-13 * np.abs(u_full.data).max())
    np.testing.assert_allclose(rep.residual_history, rep_full.residual_history,
                               rtol=1e-13, atol=0)
    assert rep.z_norm == pytest.approx(rep_full.z_norm, rel=1e-13)


@PROPERTY
@given(st.sampled_from([1, 2, 3]), st.floats(min_value=8.0, max_value=32.0),
       st.integers(min_value=0, max_value=2))
@example(1, 14.0, 0)
@example(3, 14.0, 2)
def test_dipole_forcing_is_rejected_or_solved_on_half_the_lattice(dim, divisor, axis):
    # sigma = L/divisor; at L/14 the dipole decays at the seam but is not odd
    grid, op, cutoffs = setup(dim)
    spec = ForcingSpec(amplitude=1e-2, period=PERIOD, sigma=grid.box_length / divisor,
                       axis=axis % dim)
    try:
        g = realize_forcing(spec, grid, 8)
    except (OddnessViolation, SeamDecayViolation):
        return
    _, rep = solve_periodic(g, op, cutoffs, SolveOptions(max_iterations=2))
    assert rep.iterations >= 1  # the solve's own oddness test took g


@st.composite
def parity_series(draw):
    """(dim, parity, antiperiodic, m_t + 1 frequency fields): raw odd data
    projected on one per-axis parity signature of an odd field, (f + p R_a f)/2
    axis by axis, so its mirror planes hold it exactly; continued
    antiperiodically when drawn so."""
    dim = draw(st.sampled_from([2, 3]))
    parity = draw(st.sampled_from([p for p in itertools.product((1, -1), repeat=dim)
                                   if math.prod(p) == -1]))
    m_t = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    grid = setup(dim)[0]
    data = raw_odd_series(grid, m_t, rng)
    for axis, p in enumerate(parity):
        data = 0.5 * (data + p * np.take(data, -np.arange(grid.n) % grid.n, axis=axis + 1))
    antiperiodic = draw(st.booleans())
    return dim, parity, antiperiodic, antiperiodic_series(data) if antiperiodic else data


@PROPERTY
@given(parity_series())
def test_octant_layout_matches_half_and_whole(case):
    # the octant (planes 0..n/2 of every axis) against the half lattice and
    # the whole lattice of the same data, every node or nodes 0..m_t/2:
    # frequency_rows and the period map bit for bit; z_norm, [g] and l1w_node
    # to rtol 1e-13, the cubic rows to 1e-14 of their peak (over 60 draws of
    # every signature: at most 3.9e-16, 2.4e-16, 4.0e-16 and 4.4e-16)
    dim, parity, antiperiodic, data = case
    grid, op, cutoffs = setup(dim)
    nodes = len(data) // 2 + 1 if antiperiodic else len(data)
    layouts = [Symmetry(antiperiodic=antiperiodic), Symmetry(odd=True, antiperiodic=antiperiodic),
               Symmetry(parity=parity, antiperiodic=antiperiodic)]
    whole, half, octant = (
        FieldSeries(grid, data[(slice(nodes),) + sym.held(grid)], PERIOD, sym)
        for sym in layouts)
    assert np.array_equal(octant.frequency_rows(slice(None)), data)
    for norm in (functools.partial(z_norm, cutoffs=cutoffs), forcing_bracket):
        assert norm(half) == pytest.approx(norm(whole), rel=1e-13)
        assert norm(octant) == pytest.approx(norm(whole), rel=1e-13)
    np.testing.assert_allclose(l1w_node(octant.data, grid, octant.symmetry),
                               l1w_node(whole.data, grid, whole.symmetry), rtol=1e-13, atol=0)
    corner = (slice(None),) + octant.symmetry.held(grid)
    mapped = _linear_period_map_data(whole.data, op, whole.dt, antiperiodic=antiperiodic)
    assert np.array_equal(_linear_period_map_data(octant.data, op, octant.dt,
                                                  antiperiodic=antiperiodic), mapped[corner])
    for base in (data[::-1].copy(), None):  # the nodes reversed: v of the same signature
        ref = _cubic_difference_data(base, data, grid)
        for sym in layouts[1:]:
            cut = (slice(None),) + sym.held(grid)
            got = _cubic_difference_data(None if base is None else base[cut], data[cut], grid,
                                         symmetry=sym)
            assert np.abs(got - ref[cut]).max() <= 1e-14 * np.abs(ref).max()


@PROPERTY
@given(odd_series())
def test_half_lattice_z_norm_equals_full(case):
    dim, data = case
    grid, _, cutoffs = setup(dim)
    s, half = (FieldSeries(grid, data, PERIOD),
               FieldSeries(grid, data[:, :grid.n // 2 + 1], PERIOD, HALF))
    assert z_norm(half, cutoffs) == pytest.approx(z_norm(s, cutoffs), rel=1e-13)


@PROPERTY
@given(odd_series(), st.sampled_from([1, 2]))
def test_half_lattice_step_equals_full(case, order):
    # two steps: at order 2 one ETD2RK step and one multistep ETD2 step
    dim, data = case
    grid, op, _ = setup(dim)
    planes = grid.n // 2 + 1
    v = np.fft.ifftn(data[1:3], axes=grid.series_axes)
    full, half = WholeLatticeStepper(grid, op, 0.05), _Stepper(grid, op, 0.05)
    v_half = v.reshape(2, grid.n, -1)[..., half.pair.columns]  # the half stepper's layout
    w_full, w_half = data[0].copy(), data[0][:planes].copy()
    for step in range(2):
        full.step(w_full, v[step], v[1 - step], order)
        half.step(w_half, v_half[step], v_half[1 - step], order)
    np.testing.assert_allclose(w_half, w_full[:planes], rtol=1e-12,
                               atol=1e-12 * np.abs(w_full).max())


@PROPERTY
@given(odd_series())
def test_paired_transforms_invert(case):
    # odd half-plane data through the shared odd inverse transform (later
    # passes, gather, first-axis pass) and forward one (first-axis pass,
    # scatter, later passes on the dealias planes), which the stepper and the
    # solve both run
    dim, data = case
    grid = setup(dim)[0]
    pair = grid.odd_transform
    half = data[:, :grid.n // 2 + 1]
    phys = pair.ifft(half)
    np.testing.assert_allclose(phys, np.fft.ifftn(data, axes=grid.series_axes).reshape(
        len(data), grid.n, -1)[..., pair.columns], rtol=0, atol=1e-13 * np.abs(phys).max())
    every = odd_fft_every_plane(grid, phys)
    np.testing.assert_allclose(every, half, rtol=0, atol=1e-13 * np.abs(half).max())
    # the forward transform keeps the planes that hold a dealiased mode
    back, kept = pair.fft(phys, np.empty_like(half)), pair.dealias_planes
    assert back[:, :kept].tobytes() == every[:, :kept].tobytes()
    assert not back[:, kept:].any()


@PROPERTY
@given(st.sampled_from([1, 2, 3]), st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.05, max_value=1.0))
def test_cutoffs_are_a_partition_of_unity(dim, ratio, r_inf):
    # chi1 + chi_inf = 1 on every mode, r1 = ratio * r_inf < r_inf
    grid = setup(dim)[0]
    cutoffs = make_cutoffs(ratio * r_inf, r_inf, grid)
    assert np.abs(cutoffs.chi1 + cutoffs.chi_inf - 1.0).max() <= 1e-15


@PROPERTY
@given(odd_series(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_perturbation_rhs_is_the_cubic_difference(case, seed):
    # the grouped right-hand side against |v+w|^2 (v+w) - |v|^2 v point by
    # point, relative to the size of its terms, as the direct subtraction
    # cancels (measured: at most 3.0 eps on 300 random pairs)
    dim, v = case
    rng = np.random.default_rng(seed)
    w = rng.uniform(1e-3, 10.0) * (rng.standard_normal(v.shape)
                                   + 1j * rng.standard_normal(v.shape))
    rhs = _rhs_data(w, v, np.empty_like(v), _rhs_work(v.shape))
    s = v + w
    direct = np.abs(s) ** 2 * s - np.abs(v) ** 2 * v
    size = np.abs(s) ** 3 + np.abs(v) ** 3 + np.abs(w) ** 3
    assert (np.abs(rhs - direct) <= 16 * EPS * size).all()


def _leaves(node, path=()):
    """(path, value) of every scalar of a config tree; a list member's path
    ends in its index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


INTEGER_LEAVES = [path for path, value in _leaves(reference_config())
                  if isinstance(value, int) and not isinstance(value, bool)]
BOOLEAN_LEAVES = [path for path, value in _leaves(reference_config())
                  if isinstance(value, bool)]
# the float keys, and the sigmas, whose documented null stands for a default width
FLOAT_LEAVES = [path for path, value in _leaves(reference_config())
                if isinstance(value, float) or path[-1] == "sigma"]
# the command that reads each top-level key: the sweep's lists go through their axis
COMMANDS = {"grid": ["solve-periodic"], "solve": ["solve-periodic"],
            "forcing": ["solve-periodic"], "output": ["solve-periodic"],
            "period": ["solve-periodic"], "stability": ["stability"], "verify": ["verify"],
            "seed": ["verify"]}


def _no_lattice(*args, **kwargs):
    raise AssertionError("a lattice was allocated")


def _rejected_with_one_line(path, value):
    """cli.main on the reference config with the leaf at `path` set to
    `value`: exit 2 with one line naming the key, before any lattice is built."""
    cfg = reference_config()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    key = ".".join(str(part) for part in path if not isinstance(part, int))
    command = (["sweep", "--axis", path[1]] if path[0] == "sweep"
               else COMMANDS[path[0]])
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"]["dir"] = tmp
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with mock.patch.object(spectral.Grid, "__init__", _no_lattice), \
                contextlib.redirect_stderr(err):
            code = cli.main([command[0], "--config", config_path, *command[1:]])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in err.getvalue()
    assert lines[0].startswith(f"config error: invalid {key}: ")
    return lines[0]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.sampled_from(INTEGER_LEAVES),
              st.one_of(st.just(True), st.floats().filter(lambda x: not x.is_integer()))),
    st.tuples(st.sampled_from(BOOLEAN_LEAVES), st.sampled_from(["false", 0, None]))))
def test_config_reader_rejects_the_wrong_type(case):
    # an integer key given a non-integral number or true, a boolean key given
    # "false", 0 or null: exit 2 with one line naming the key, before any
    # lattice is built
    _rejected_with_one_line(*case)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(FLOAT_LEAVES), st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.lists(st.floats(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400])))
@example(("forcing", "amplitude"), "0.01")
@example(("grid", "box_length"), "64")
@example(("grid", "box_length"), True)
def test_float_config_reader_rejects_what_is_not_a_number(path, value):
    # a float key given a string, a boolean, null (but the sigmas), a list or
    # a value that is not finite: exit 2 with one line, before any lattice
    if value is None and path[-1] == "sigma":
        value = "null"
    assert _rejected_with_one_line(path, value).endswith(" is not a number")


def test_config_reader_leaves_are_the_documented_keys():
    # every integer, boolean and float key of the reference config is drawn above
    def names(leaves):
        return {".".join(str(p) for p in path if not isinstance(p, int)) for path in leaves}

    assert names(INTEGER_LEAVES + BOOLEAN_LEAVES) == {
        "grid.dim", "grid.n_per_axis", "solve.m_t", "solve.max_iterations",
        "forcing.harmonic", "forcing.axis", "stability.record_stride", "stability.order",
        "stability.axis", "verify.m_t", "verify.samples", "verify.grid.dim",
        "verify.grid.n_per_axis", "seed", "sweep.m_t", "sweep.n",
        "solve.nonlinearity_enabled", "stability.linear_only", "output.save_fields"}
    assert names(FLOAT_LEAVES) == {
        "forcing.amplitude", "forcing.sigma", "grid.box_length", "grid.dealias_fraction",
        "period", "solve.z_tolerance", "stability.amplitude", "stability.sigma",
        "stability.t_max", "sweep.epsilon", "verify.grid.box_length",
        "verify.solve_amplitude"}


def _cli(argv):
    """cli.main in process: (exit code, stderr lines, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue().splitlines(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _assert_strict_json_outputs(directory):
    for path in Path(directory).rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _write_config(directory, **stability):
    """A dim-2, n = 8, m_t = 8 config in `directory`: small enough that a
    whole stability run takes a fraction of a second."""
    cfg = {"grid": {"dim": 2, "n_per_axis": 8, "box_length": 16.0}, "period": PERIOD,
           "forcing": {"amplitude": 1e-2}, "solve": {"m_t": 8},
           "stability": {"t_max": 10.0, "record_stride": 4, **stability},
           "output": {"dir": os.path.join(directory, "base"), "save_fields": True}}
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@PROPERTY
@given(st.floats(min_value=8.0, max_value=32.0), st.integers(min_value=0, max_value=1))
@example(14.0, 0)
def test_dipole_perturbation_is_rejected_or_run(divisor, axis):
    # sigma = L/divisor: a width that fails the seam check or Grid.is_odd
    # ends in one config-error line (exit 2), any other in a run
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_config(tmp, sigma=16.0 / divisor, axis=axis)
        code, lines, text = _cli(["stability", "--config", config,
                                  "--out", os.path.join(tmp, "out")])
        assert "Traceback" not in text
        if code == 2:
            assert len(lines) == 1
            assert lines[0].startswith("config error: invalid stability perturbation: ")
            assert not os.path.exists(os.path.join(tmp, "out", "decay.csv"))
        else:
            assert code == 0 and lines == []
            assert os.path.exists(os.path.join(tmp, "out", "decay.csv"))
        _assert_strict_json_outputs(tmp)


@pytest.fixture(scope="module")
def saved_base(tmp_path_factory):
    """A converged solve-periodic run with its 9 snapshots, and its config."""
    tmp = tmp_path_factory.mktemp("saved_base")
    config = _write_config(str(tmp))
    assert cli.main(["solve-periodic", "--config", config]) == 0
    return tmp


@contextlib.contextmanager
def _base_copy(saved_base):
    """A fresh copy of the saved base: (config path, manifest path, out dir)."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(saved_base / "base", os.path.join(tmp, "base"))
        yield (str(saved_base / "config.json"), Path(tmp) / "base" / "manifest.json",
               os.path.join(tmp, "out"))


def _run_on_base(config, manifest, out):
    code, lines, text = _cli(["stability", "--config", config, "--base", str(manifest),
                              "--out", out])
    assert "Traceback" not in text and len(lines) == 1
    assert not os.path.exists(os.path.join(out, "decay.csv"))
    _assert_strict_json_outputs(manifest.parent.parent)
    return code, lines[0]


_SNAPSHOT_HEADER = struct.Struct("<4sIIIdI")  # magic, version, dim, n, L, flag
_UINT32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=8), st.one_of(
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=_SNAPSHOT_HEADER.size - 1)),
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4).filter(
        lambda magic: magic != spectral.SNAPSHOT_MAGIC)),
    st.tuples(st.just("version"), _UINT32.filter(lambda v: v != spectral.SNAPSHOT_VERSION)),
    st.tuples(st.just("dim"), _UINT32.filter(lambda dim: dim != 2)),
    st.tuples(st.just("n"), _UINT32.filter(lambda n: n != 8)),
    st.tuples(st.just("short"), st.integers(min_value=1, max_value=64 * 16)),
    st.tuples(st.just("padded"), st.integers(min_value=1, max_value=64))))
@example(3, ("cut", 6))
def test_damaged_snapshot_of_a_saved_base(saved_base, node, case):
    # one snapshot damaged and re-hashed into the manifest, so it passes the
    # hash check and the reader judges it: exit 2, one line naming the file
    kind, value = case
    with _base_copy(saved_base) as (config, manifest, out):
        snap = manifest.parent / f"field_{node:04d}.glpf"
        raw = snap.read_bytes()
        header = list(_SNAPSHOT_HEADER.unpack(raw[:_SNAPSHOT_HEADER.size]))
        if kind == "cut":
            raw = raw[:value]
        elif kind == "short":
            raw = raw[:-value]
        elif kind == "padded":
            raw = raw + bytes(value)
        else:
            header[("magic", "version", "dim", "n").index(kind)] = value
            raw = _SNAPSHOT_HEADER.pack(*header) + raw[_SNAPSHOT_HEADER.size:]
        snap.write_bytes(raw)
        man = load_manifest(manifest)
        entry = next(a for a in man["artifacts"] if a["path"] == snap.name)
        entry.update(sha256=sha256_of(snap), bytes=len(raw))
        manifest.write_text(json.dumps(man))
        code, line = _run_on_base(config, manifest, out)
    assert code == 2
    assert line.startswith("config error: base snapshot rejected: ") and snap.name in line


def _set(man, path, value):
    node = man
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.just("root"), st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                                         st.text(max_size=8), st.none())),
    st.tuples(st.just("missing"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("hash"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("grid"), st.sampled_from([("dim", 3), ("n_per_axis", 16),
                                                ("box_length", 32.0)])),
    st.tuples(st.just("period"), st.floats(min_value=0.1, max_value=10.0).filter(
        lambda period: period != PERIOD)),
    st.tuples(st.just("period_text"), st.sampled_from(["1.0", None, True])),
    st.tuples(st.just("snapshots"), st.integers(min_value=0, max_value=1))))
@example(("period_text", "1.0"))
def test_damaged_manifest_of_a_saved_base(saved_base, case):
    # exit 2 for a manifest that is no object, a missing or wrongly hashed
    # artifact (report.json or a snapshot), another grid or period, or a
    # period that is not a number (the string "1.0" was once taken);
    # exit 3 for fewer than two snapshots: one line each
    kind, value = case
    with _base_copy(saved_base) as (config, manifest, out):
        man = load_manifest(manifest)
        artifacts = sorted(man["artifacts"], key=lambda a: a["path"])
        if kind == "root":
            man = value
        elif kind == "missing":
            (manifest.parent / artifacts[value]["path"]).unlink()
        elif kind == "hash":
            artifacts[value]["sha256"] = "0" * 64
        elif kind == "grid":
            _set(man, ("config", "grid", value[0]), value[1])
        elif kind in ("period", "period_text"):
            _set(man, ("config", "period"), value)
        else:
            man["artifacts"] = [a for a in artifacts if not a["path"].endswith(".glpf")]
            man["artifacts"] += [a for a in artifacts if a["path"].endswith(".glpf")][:value]
        manifest.write_text(json.dumps(man))
        code, line = _run_on_base(config, manifest, out)
    expected = {"root": "config error: base manifest ",
                "missing": "config error: base manifest failed verification: missing artifact",
                "hash": "config error: base manifest failed verification: hash mismatch",
                "grid": "config error: base grid ", "period": "config error: base period ",
                "period_text": "config error: base manifest ",
                "snapshots": f"error: base manifest indexes {value} field snapshots"}[kind]
    assert code == (3 if kind == "snapshots" else 2) and line.startswith(expected)
