"""Grid construction, transforms, dealiasing, the cubic term, series
containers and snapshot files."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from glperiod import (FieldSeries, GridConfig, SpectralField, make_grid, read_snapshot, spectral, write_snapshot)
from glperiod.norms import _lp_node, l1w_node
from glperiod.spectral import Symmetry, fold_extend
from glperiod.stability import _rhs_data, _rhs_work

from conftest import (on_workers, parity_part, random_field, random_physical_field,
                      random_odd_field, raw_odd_series, raw_random_series)
from oracles import (octant_fft_every_plane, odd_residual, time_derivative,
                     write_physical_snapshot)


def _cubic(w):
    """|w|^2 w pointwise of physical values: the perturbation right-hand
    side about v = 0."""
    return _rhs_data(w, np.zeros_like(w), np.empty_like(w), _rhs_work(w.shape))


class TestGridConfig:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            GridConfig(dim=1, n_per_axis=9)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            GridConfig(dim=1, n_per_axis=4)

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ValueError, match="positive"):
            GridConfig(dim=1, n_per_axis=8, box_length=-1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            GridConfig(dim=4)

    def test_rejects_bad_dealias_fraction(self):
        with pytest.raises(ValueError):
            GridConfig(dim=1, n_per_axis=8, dealias_fraction=0.0)


class TestGrid:
    def test_frequencies_1d_unit_spacing(self):
        # L = 2*pi makes the lattice the integers -4..3
        grid = make_grid(GridConfig(dim=1, n_per_axis=8, box_length=2 * np.pi))
        assert sorted(np.round(grid.xi1d).astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_smallest_nonzero_frequency_3d(self):
        grid = make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0))
        nonzero = grid.xi_abs[grid.xi_abs > 0]
        assert nonzero.min() == pytest.approx(2 * np.pi / 32.0, rel=1e-14)

    def test_quadrature_of_constant_is_box_volume(self, grid3d):
        vol = (np.abs(np.ones(grid3d.shape, dtype=complex)) ** 2).sum() * grid3d.quad_weight
        assert vol == pytest.approx(grid3d.box_length ** 3, rel=1e-14)

    def test_nodes_are_centered(self, grid1d):
        assert grid1d.x1d[0] == pytest.approx(-np.pi)
        assert grid1d.x1d[grid1d.n // 2] == 0.0

    def test_reflection_negates_coordinates(self, grid1d):
        x = grid1d.x[0]
        reflected = grid1d.reflect(x)
        # rows with index 0 reflect onto themselves (periodic seam)
        assert np.all(reflected[1:] == -x[1:])


class TestOddColumns:
    """The octant's mirror planes, which replaced the half lattice's odd
    column pairing: Grid.expansion and fold_extend against a mirror built
    from coordinates, for every parity signature of an odd field."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_whole_later_axes(self, dim, n):
        grid = make_grid(GridConfig(dim=dim, n_per_axis=n, box_length=32.0))
        rng, h, L = np.random.default_rng(n + dim), n // 2 + 1, grid.box_length
        # the mirror of every index: the node at -x, identified modulo L
        gap = np.abs((grid.x1d[:, None] + grid.x1d[None, :] + L / 2) % L - L / 2)
        mirror = np.argmin(gap, axis=1)
        assert np.array_equal(mirror, -np.arange(n) % n)
        for parity in itertools.product((1, -1), repeat=dim):
            if math.prod(parity) != -1:
                continue
            f = rng.standard_normal((2,) + grid.shape) + 1j * rng.standard_normal((2,) + grid.shape)
            for axis, p in enumerate(parity):
                f = 0.5 * (f + p * np.take(f, mirror, axis=axis + 1))
            held = f[(slice(None),) + (slice(h),) * dim]
            index, negate = grid.expansion(Symmetry(parity=parity))
            for node, whole in zip(held, f):
                expanded = np.take(node.ravel(), index)
                expanded[negate] *= -1
                assert np.array_equal(expanded.reshape(grid.shape), whole)
            for axis, p in enumerate(parity):  # one axis extended, the others whole
                cut = (slice(None),) * (axis + 1) + (slice(h),)
                out = np.full(f.shape, np.nan, complex)
                assert np.array_equal(fold_extend(f[cut], axis + 1, p, out), f)


class TestOddTransform:
    """The forward transform of the octant (OctantTransform.fft), pruned to
    the planes that hold a dealiased mode, against the whole-lattice
    transform of its expansion on every plane 0..n/2 of every axis; with
    owned pass buffers (buffers()) it writes the same bits."""

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_forward_keeps_the_dealias_planes(self, dim, fraction):
        n = {1: 32, 2: 16, 3: 16}[dim]
        grid = make_grid(GridConfig(dim=dim, n_per_axis=n, box_length=16.0,
                                    dealias_fraction=fraction))
        parity = (-1,) + (1,) * (dim - 1)
        pair, h = grid.transform(Symmetry(parity=parity)), n // 2 + 1
        kept = pair.dealias_planes
        # plane j of 0..n/2 holds |k| = j on the first axis
        assert kept == int(fraction * n / 2) + 1
        assert grid.dealias[kept - 1].any() and not grid.dealias[kept:h].any()
        data = parity_part(grid, raw_odd_series(grid, 2, np.random.default_rng(dim)), parity)
        phys = pair.ifft(data[(slice(None),) + (slice(h),) * dim])
        every = octant_fft_every_plane(grid, phys, parity)
        block = (slice(None),) + pair.kept
        pruned = every.copy()
        pruned[block] = 0
        assert np.abs(pruned).max() > 0  # the pruned planes hold data
        for rows in (slice(0, 1), slice(0, 3)):
            before = phys[rows].copy()
            out = np.full((rows.stop,) + (h,) * dim, np.nan, complex)
            assert pair.fft(phys[rows], out) is out
            np.testing.assert_allclose(out[block], every[rows][block], rtol=0,
                                       atol=1e-13 * np.abs(every).max())
            out[block] = 0
            assert not out.any()
            owned = np.full_like(out, np.nan)
            pair.fft(phys[rows], owned, pair.buffers(rows.stop)[1])
            assert owned.tobytes() == pair.fft(phys[rows], out).tobytes()
            assert np.array_equal(phys[rows], before)


class TestTransform:
    def test_single_mode_maps_to_single_coefficient(self, grid1d):
        k = 5
        fhat = SpectralField(grid1d, np.fft.fftn(np.exp(1j * grid1d.xi1d[k] * grid1d.x1d)))
        # raw FFT coefficients carry the corner-referenced phase (-1)^k
        # relative to the centered-coordinate basis function
        expected = np.zeros(grid1d.shape, dtype=complex)
        expected[k] = grid1d.n * (-1.0) ** k
        np.testing.assert_allclose(fhat.data, expected, atol=1e-11)

    def test_zero_field(self, grid3d):
        f = SpectralField(grid3d, np.fft.fftn(np.zeros(grid3d.shape, dtype=complex)))
        assert np.all(f.data == 0)

    def test_round_trip(self, grid3d, rng):
        f = random_physical_field(grid3d, rng, dealiased=False)
        back = np.fft.ifftn(np.fft.fftn(f))
        err = np.abs(back - f).max() / np.abs(f).max()
        assert err <= 1e-12

    def test_linearity(self, grid3d, rng):
        f = random_physical_field(grid3d, rng, dealiased=False)
        g = random_physical_field(grid3d, rng, dealiased=False)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = np.fft.fftn(a * f + b * g)
        rhs = a * np.fft.fftn(f) + b * np.fft.fftn(g)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-12

    def test_parseval(self, grid3d, rng):
        f = random_physical_field(grid3d, rng, dealiased=False)
        phys = np.sqrt((np.abs(f) ** 2).sum() * grid3d.quad_weight)
        freq = np.sqrt((np.abs(np.fft.fftn(f)) ** 2).sum() * grid3d.parseval_factor)
        assert abs(phys - freq) / phys <= 1e-10


class TestCubicNonlinearity:
    def test_zero(self, grid1d):
        assert np.all(_cubic(np.zeros(grid1d.shape, dtype=complex)) == 0)

    def test_constant_two_gives_eight(self, grid1d):
        np.testing.assert_allclose(_cubic(2.0 * np.ones(grid1d.shape, dtype=complex)), 8.0)

    def test_unimodular_field_is_fixed(self, grid1d):
        f = np.exp(1j * np.sin(grid1d.x1d))
        np.testing.assert_allclose(_cubic(f), f, atol=1e-14)

    def test_preserves_oddness(self, grid3d, rng):
        cubed = _cubic(np.fft.ifftn(random_odd_field(grid3d, rng).data))
        assert odd_residual(SpectralField(grid3d, np.fft.fftn(cubed))) <= 1e-12


class TestDealias:
    def test_fraction_one_is_identity(self, rng):
        grid = make_grid(GridConfig(dim=3, n_per_axis=16, box_length=32.0,
                                    dealias_fraction=1.0))
        f = random_field(grid, rng, dealiased=False)
        np.testing.assert_array_equal(f.data * grid.dealias, f.data)

    def test_two_thirds_threshold_n8(self):
        grid = make_grid(GridConfig(dim=1, n_per_axis=8, box_length=1.0,
                                    dealias_fraction=2.0 / 3.0))
        kept = np.ones(8, dtype=complex) * grid.dealias
        # indices in FFT order 0,1,2,3,-4,-3,-2,-1; keep |k| <= 2
        expected = np.array([1, 1, 1, 0, 0, 0, 1, 1], dtype=complex)
        np.testing.assert_array_equal(kept, expected)

    def test_idempotent(self, grid3d, rng):
        f = random_field(grid3d, rng, dealiased=False)
        once = f.data * grid3d.dealias
        twice = once * grid3d.dealias
        np.testing.assert_array_equal(once, twice)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            GridConfig(dim=1, n_per_axis=8, dealias_fraction=1.5)


class TestFieldSeries:
    def test_time_nodes(self, grid1d):
        data = np.zeros((9,) + grid1d.shape, dtype=complex)
        s = FieldSeries(grid1d, data, period=2.0)
        assert s.n_steps == 8
        assert s.dt == pytest.approx(0.25)

    def test_time_derivative_of_cosine(self, grid1d):
        m_t = 16
        T = 2.0
        t = np.arange(m_t + 1) * (T / m_t)
        base = np.ones(grid1d.shape, dtype=complex)
        data = np.cos(2 * np.pi * t / T)[:, None] * base
        s = FieldSeries(grid1d, data, period=T)  # the difference is linear: any data
        d = time_derivative(s)
        h = T / m_t
        omega = 2 * np.pi / T
        omega_d = np.sin(omega * h) / h  # discrete derivative symbol
        expected = -omega_d * np.sin(omega * t)[:, None] * base
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_needs_two_nodes(self, grid1d):
        with pytest.raises(ValueError):
            FieldSeries(grid1d, np.zeros((1,) + grid1d.shape, dtype=complex), period=1.0)

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 16)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_transforms_match_batched(self, monkeypatch, dim, n, workers):
        # norms.l1w_node, the series' one physical read, transforms one chunk
        # of nodes per task: bit for bit the batched transform's norms, and
        # an antiperiodic series held on nodes 0..m_t/2 gets, for nodes
        # 0..m_t, those of nodes 0..m_t/2 - 1; node counts 21 (uneven chunks)
        # with CHUNK_NODES 8 and 3
        grid = make_grid(GridConfig(dim=dim, n_per_axis=n, box_length=32.0))
        data = raw_random_series(grid, 20, np.random.default_rng(dim))
        batched = _lp_node(np.fft.ifftn(data, axes=grid.series_axes), grid, 1, weighted=True)
        for chunk_nodes in (8, 3):
            monkeypatch.setattr(spectral, "CHUNK_NODES", chunk_nodes)
            assert np.array_equal(on_workers(monkeypatch, workers, l1w_node, data, grid),
                                  batched)
            folded = on_workers(monkeypatch, workers, l1w_node, data[:11], grid,
                                spectral.Symmetry(antiperiodic=True))
            assert np.array_equal(folded, batched[np.arange(21) % 10])


class TestSnapshots:
    @pytest.mark.parametrize("given_grid", [True, False])
    def test_padded_file_is_rejected_before_it_is_read(self, tmp_path, grid3d, rng,
                                                       given_grid):
        # a 16^3 snapshot padded by 8 MB is rejected on its size, with less
        # traced allocation than one field (the whole file was once read first)
        path = tmp_path / "padded.glpf"
        write_snapshot(random_field(grid3d, rng), path)
        with open(path, "ab") as fh:
            fh.write(bytes(8 * 2 ** 20))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated or padded"):
                read_snapshot(path, grid3d if given_grid else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * grid3d.n ** 3

    def test_round_trip_bit_exact(self, tmp_path, grid3d, rng):
        f = random_field(grid3d, rng)
        path = tmp_path / "field.glpf"
        write_snapshot(f, path)
        back = read_snapshot(path)
        assert back.grid.config.dim == 3
        assert back.grid.config.box_length == grid3d.box_length
        np.testing.assert_array_equal(back.data, f.data)

    def test_frequency_flag(self, tmp_path, grid1d, rng):
        f = random_field(grid1d, rng)
        path = tmp_path / "field.glpf"
        write_snapshot(f, path)
        assert int.from_bytes(path.read_bytes()[24:28], "little") == 1

    def test_physical_flag_read_as_frequency_data(self, tmp_path, grid3d, rng):
        # a flag-0 file holds physical values; read_snapshot transforms them
        f = random_field(grid3d, rng)
        path = tmp_path / "field.glpf"
        write_physical_snapshot(f, path)
        back = read_snapshot(path, grid3d)
        assert np.array_equal(back.data, np.fft.fftn(np.fft.ifftn(f.data)))
        assert np.abs(back.data - f.data).max() <= 1e-12 * np.abs(f.data).max()

    @pytest.mark.parametrize("flag", [2, 7, 2 ** 32 - 1])
    def test_unknown_flag_rejected(self, tmp_path, grid1d, rng, flag):
        path = tmp_path / "field.glpf"
        write_snapshot(random_field(grid1d, rng), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = flag.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"representation flag {flag}$"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.glpf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    @pytest.mark.parametrize("change", [-16, -1, 8, 16], ids=["short", "cut", "odd", "long"])
    def test_payload_of_another_size_rejected(self, tmp_path, grid1d, rng, change):
        path = tmp_path / "field.glpf"
        write_snapshot(random_field(grid1d, rng), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:change] if change < 0 else raw + b"\x00" * change)
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)

    def test_header_cut_at_every_byte_rejected(self, tmp_path, grid1d, rng):
        # a file shorter than the 28-byte header names itself in a ValueError
        path = tmp_path / "field.glpf"
        write_snapshot(random_field(grid1d, rng), path)
        raw = path.read_bytes()
        for size in range(28):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError, match="shorter than the 28-byte") as info:
                read_snapshot(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_header_layout(self, tmp_path, grid1d):
        # magic, version u32, dim u32, n u32, L f64, representation u32
        f = SpectralField(grid1d, np.zeros(grid1d.shape, dtype=complex))
        path = tmp_path / "field.glpf"
        write_snapshot(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GLPF"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 1
        assert int.from_bytes(raw[12:16], "little") == 32
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == pytest.approx(2 * np.pi)
