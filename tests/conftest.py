import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from glperiod import (FieldSeries, GridConfig, auto_cutoffs, make_grid, make_operator,
                      SpectralField, spectral)

PERIOD = 1.0


@pytest.fixture(scope="session")
def grid1d():
    return make_grid(GridConfig(dim=1, n_per_axis=32, box_length=2 * np.pi))


@pytest.fixture(scope="session")
def grid3d():
    return make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))


@pytest.fixture(scope="session")
def op3d(grid3d):
    return make_operator(grid3d, PERIOD)


@pytest.fixture(scope="session")
def cutoffs3d(grid3d):
    return auto_cutoffs(grid3d, PERIOD)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def point_odd_forcing(grid, m_t, amplitude=1e-2):
    """A forcing odd under the point reflection but with no parity on any one
    axis, (x_0 + x_1/2 - x_0 x_1 x_2/L^2) exp(-|x|^2/(2 (L/16)^2)) times
    sin(2 pi t/T): the solve holds it on the whole lattice, not the octant
    (in 1D, where the one axis's parity is the point parity, on the octant)."""
    from glperiod import ForcingSpec, realize_forcing
    x, L = grid.x, grid.box_length
    bump = np.exp(-grid.x_abs ** 2 / (2 * (L / 16) ** 2))
    if grid.dim == 1:
        values = x[0] * bump
    else:
        values = (x[0] + 0.5 * x[1] - math.prod(x) / L ** 2 * (grid.dim == 3)) * bump
    profile = SpectralField(grid, np.fft.fftn(values))
    return realize_forcing(ForcingSpec(amplitude=amplitude, period=PERIOD,
                                       custom_profile=profile), grid, m_t)


def random_physical_field(grid, rng, dealiased=True):
    """Random complex physical values; by default band-limited so every
    multiplier identity (which zeroes Nyquist rows) holds exactly."""
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if dealiased:
        fhat = np.fft.fftn(data) * grid.dealias
        data = np.fft.ifftn(fhat)
    return data


def random_field(grid, rng, dealiased=True):
    """random_physical_field as a field (its frequency data)."""
    return SpectralField(grid, np.fft.fftn(random_physical_field(grid, rng, dealiased)))


def random_odd_field(grid, rng):
    """Random field exactly odd on the lattice (frequency antisymmetrized)."""
    fhat = np.fft.fftn(rng.standard_normal(grid.shape)
                       + 1j * rng.standard_normal(grid.shape))
    fhat *= grid.dealias
    fhat = 0.5 * (fhat - grid.reflect(fhat))
    fhat.flat[0] = 0.0
    return SpectralField(grid, fhat)


def on_workers(monkeypatch, workers, fn, *args):
    """fn(*args) with the shared series pool replaced by one of `workers`
    threads."""
    pool = ThreadPoolExecutor(max_workers=workers)
    monkeypatch.setattr(spectral, "_POOL", pool)
    try:
        return fn(*args)
    finally:
        pool.shutdown()


def raw_random_series(grid, m_t, rng):
    """Unprojected random complex data on m_t + 1 nodes (Nyquist modes and
    the mean mode populated)."""
    shape = (m_t + 1,) + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def raw_odd_series(grid, m_t, rng):
    """raw_random_series projected on its odd part (u - Ru)/2: odd on the
    lattice bit for bit, Nyquist modes populated."""
    data = raw_random_series(grid, m_t, rng)
    return 0.5 * (data - grid.reflect(data))


def dipole_symmetry(grid, antiperiodic=False):
    """The octant layout of data odd in x_0 and even in the later axes, the
    reference dipole's parities."""
    return spectral.Symmetry(parity=(-1,) + (1,) * (grid.dim - 1), antiperiodic=antiperiodic)


def parity_part(grid, data, parity):
    """Stacked data projected on one parity per axis, (f + p R_a f)/2 axis by
    axis: each axis's mirror planes then hold it bit for bit."""
    for axis, p in enumerate(parity):
        data = 0.5 * (data + p * np.take(data, -np.arange(grid.n) % grid.n, axis=axis + 1))
    return data


def held_series(grid, data, period, symmetry):
    """The FieldSeries of stacked data held as `symmetry` says: its planes
    0..n/2 of every axis on the octant, and nodes 0..m_t/2 if antiperiodic."""
    nodes = len(data) // 2 + 1 if symmetry.antiperiodic else len(data)
    return FieldSeries(grid, data[(slice(nodes),) + symmetry.held(grid)], period, symmetry)


def antiperiodic_series(data):
    """Nodes 0..m_t/2 - 1 of stacked data (m_t + 1 >= 3 nodes) continued
    antiperiodically: node m + m_t/2 is minus node m, node m_t is node 0."""
    half = data[:(len(data) - 1) // 2]
    return np.concatenate([half, -half, half[:1]])


def octant_of(g):
    """Every node of a series measured with the dipole's parities, on planes
    0..n/2 of every axis with planes 0 and n/2 of the odd axis zeroed: the
    solve's held part of g, over the whole period."""
    grid = g.grid
    sym = grid.symmetry_of(g, "forcing")
    assert sym.parity == dipole_symmetry(grid).parity
    held = g.frequency_rows(slice(None))[(slice(None),) + sym.held(grid)].copy()
    return grid.clear_odd_planes(held, sym.parity)
