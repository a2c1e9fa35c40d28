"""Centered periodic-box discretization and complex spectral fields.

Conventions (fixed, for bit-exact file interchange):

* Physical nodes per axis: x_j = (j - n/2) * (L/n), j = 0..n-1, so the box is
  [-L/2, L/2)^dim with the periodic seam at x = -L/2.
* Frequency lattice per axis: xi_k = 2*pi*k/L with the integer index k stored
  in standard FFT order (0, 1, ..., n/2-1, -n/2, ..., -1).
* Data arrays are C-ordered, last axis fastest.
* Fields and series hold frequency data: raw forward-FFT coefficients (numpy
  convention, no normalization); Parseval then reads
  ||f||_L2^2 = (L^dim / n^(2*dim)) * sum |f_hat|^2. Coefficient phases are
  referenced to the array corner x = -L/2, so the centered-coordinate basis
  function exp(i xi_k . x) transforms to n^dim * prod_axis (-1)^(k_axis) at
  entry k.
* The Nyquist mode k = -n/2 has no conjugate partner; every frequency
  multiplier in this package zeroes it after application.

Series kernels split their work into independent tasks (chunks of time
nodes, or slabs of the first spatial axis) and run them through
:func:`map_chunks` on one shared thread pool with a worker per usable CPU.
One map keeps at most IN_FLIGHT tasks running, so a kernel's working set
(IN_FLIGHT chunks of CHUNK_NODES nodes) is the same on every host.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OddnessViolation
from .manifest import atomic_write

SNAPSHOT_MAGIC = b"GLPF"
SNAPSHOT_VERSION = 1
ODDNESS_TOL = 1e-12  # largest even part, relative to the peak, of data taken as odd


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


WORKERS = _usable_cpus()
CHUNK_NODES = 8  # time nodes per task
IN_FLIGHT = 2  # tasks one map runs at once: 16 nodes of kernel work
# Threads start on the first map, not at import.
_POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="glperiod")


def map_chunks(task, items) -> list:
    """[task(item) for item in items], run on the shared thread pool with at
    most IN_FLIGHT tasks of this call running or queued at once.

    The window bounds the call's working set whatever the pool size; the
    pool's other workers serve concurrent callers (the sweep's row threads).
    Tasks must be leaves: a task never calls map_chunks itself, so callers on
    other pools cannot deadlock it. Each task must write only its own rows
    or slab; reductions across items belong to the caller, after the map, so
    results do not depend on the worker count. An exception raised in a
    task is re-raised here, and tasks not yet started are cancelled.
    """
    results, pending = [], deque()
    try:
        for item in items:
            if len(pending) == IN_FLIGHT:
                results.append(pending.popleft().result())
            pending.append(_POOL.submit(task, item))
        while pending:
            results.append(pending.popleft().result())
    finally:
        for future in pending:
            future.cancel()
    return results


def node_chunks(n_nodes: int) -> list[slice]:
    """Consecutive slices of at most CHUNK_NODES time nodes covering 0..n_nodes-1."""
    return [slice(start, min(start + CHUNK_NODES, n_nodes))
            for start in range(0, n_nodes, CHUNK_NODES)]


@dataclass(frozen=True)
class GridConfig:
    dim: int = 3
    n_per_axis: int = 32
    box_length: float = 64.0
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be one of 1, 2, 3; got {self.dim}")
        if self.n_per_axis < 8 or self.n_per_axis % 2 != 0:
            raise ValueError(
                f"n_per_axis must be an even integer >= 8; got {self.n_per_axis}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive; got {self.box_length}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1]; got {self.dealias_fraction}")


class Grid:
    """Frequency lattice, physical nodes and quadrature weights of the box.

    Built through :func:`make_grid`. All mesh arrays have shape
    (n_per_axis,) * dim and are read-only by convention.
    """

    def __init__(self, config: GridConfig):
        self.config = config
        n, L, dim = config.n_per_axis, config.box_length, config.dim
        self.shape = (n,) * dim
        self.dx = L / n
        j = np.arange(n)
        self.k1d = np.where(j < n // 2, j, j - n)  # FFT order integer indices
        self.x1d = (j - n // 2) * self.dx
        self.xi1d = (2.0 * np.pi / L) * self.k1d

        xi_mesh = np.meshgrid(*([self.xi1d] * dim), indexing="ij")
        self.xi = tuple(xi_mesh)
        self.xi_sq = sum(m * m for m in xi_mesh)
        self.xi_abs = np.sqrt(self.xi_sq)

        x_mesh = np.meshgrid(*([self.x1d] * dim), indexing="ij")
        self.x = tuple(x_mesh)
        self.x_abs = np.sqrt(sum(m * m for m in x_mesh))

        self.quad_weight = self.dx ** dim
        # ||f||_L2^2 = parseval_factor * sum |f_hat|^2
        self.parseval_factor = self.quad_weight / n ** dim

        k_mesh = np.meshgrid(*([self.k1d] * dim), indexing="ij")
        nyq = np.zeros(self.shape, dtype=bool)
        for km in k_mesh:
            nyq |= km == -(n // 2)
        self.nyquist_mask = nyq
        self.keep_nyquist_free = ~nyq

        # 2/3-style truncation: drop modes with any |k| > dealias_fraction * n/2
        threshold = config.dealias_fraction * (n / 2.0)
        self.dealias = np.logical_and.reduce([np.abs(km) <= threshold for km in k_mesh])
        self.series_axes = tuple(range(1, dim + 1))  # spatial axes of stacked data
        self.half_shape = (n // 2 + 1,) + self.shape[1:]  # planes 0..n/2 of odd data

        self._reflect_1d = (-j) % n

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def n(self) -> int:
        return self.config.n_per_axis

    @property
    def box_length(self) -> float:
        return self.config.box_length

    def reflect(self, data: np.ndarray) -> np.ndarray:
        """Apply the lattice reflection x -> -x (index j -> -j mod n) on the last
        dim axes (stacked fields one by one); also on frequency data (k -> -k)."""
        idx = [self._reflect_1d] * self.dim
        return data[(Ellipsis,) + np.ix_(*idx)]

    def odd_columns(self, lines=None) -> tuple:
        """Pair the flat columns of the later axes (kept on `lines`, default all,
        each symmetric) for odd data, whose column -c of plane -j is minus column
        c of plane j: (half, gather, (scatter, sign)). half holds the columns
        c <= mirror(c); gather fills all n planes of them, an (n, len(half))
        block, from planes 0..n/2, rows n/2+1.. from mirror columns (to be
        negated); scatter fills planes 0..n/2 of every column from such a
        block, and sign is -1 where a mirror column takes its entry."""
        n, planes = self.n, self.n // 2 + 1
        mirror = np.zeros(1, int)
        for c in [np.arange(n)] * (self.dim - 1) if lines is None else lines:
            mirror = np.add.outer(mirror * len(c), np.searchsorted(c, -c % n)).ravel()
        cols = np.arange(mirror.size)
        half = np.flatnonzero(cols <= mirror)
        j, k = np.arange(n)[:, None], np.arange(planes)[:, None]
        gather = np.where(j < planes, j * cols.size + half, (n - j) * cols.size + mirror[half])
        slot = np.searchsorted(half, np.minimum(cols, mirror))  # block column of c or mirror(c)
        scatter = np.where(cols <= mirror, k, -k % n) * half.size + slot
        return half, gather, (scatter, np.broadcast_to(np.where(cols <= mirror, 1.0, -1.0),
                                                       scatter.shape))

    @cached_property
    def odd_transform(self) -> "OddTransform":
        return OddTransform(self)

    def plane_weights(self) -> np.ndarray:
        """Weights 1, 2, ..., 2, 1 folding planes -j into planes j <= n/2."""
        weights = np.full((self.n // 2 + 1,) + (1,) * (self.dim - 1), 2.0)
        weights[[0, -1]] = 1.0
        return weights

    def is_half(self, data: np.ndarray) -> bool:
        """Whether data stacked along axis 0 hold planes 0..n/2 of odd data."""
        return data.shape[1:] == self.half_shape

    def is_odd(self, data, keep: np.ndarray | None = None) -> bool:
        """Whether frequency data stacked along axis 0, or a series' (by chunks
        of nodes from its frequency_rows, an array or one node at a time), has
        an even part (f + Rf)/2 of at most ODDNESS_TOL of its peak, one field at
        a time (pool tasks' chunk temporaries stay resident); `keep` gets planes
        0..n/2 of the odd part (f - Rf)/2 of its first nodes."""
        def task(rows):
            block = data[rows] if isinstance(data, np.ndarray) else data.frequency_rows(rows)
            if keep is not None:
                for m, f in zip(range(rows.start, min(rows.stop, len(keep))), block):
                    keep[m] = 0.5 * (f - self.reflect(f))[:keep.shape[1]]
            return np.max([self.even_part(f) for f in block], axis=0)

        even, peak = np.max(map_chunks(task, node_chunks(len(data))), axis=0)
        return bool(even <= ODDNESS_TOL * peak)

    def even_part(self, f: np.ndarray) -> tuple[float, float]:
        """(largest |f + Rf|/2, largest |f|): the even part is_odd bounds, and the peak."""
        return float(np.abs(f + self.reflect(f)).max()) / 2, float(np.abs(f).max())

    @staticmethod
    def periodic_part(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
        """(largest |a + b|/2, largest |a| or |b|) of nodes m, m + m_t/2 of a series:
        their periodic part, at most ODDNESS_TOL of the peak for antiperiodic data."""
        return float(np.abs(a + b).max()) / 2, float(max(np.abs(a).max(), np.abs(b).max()))

    def require_odd(self, data, what: str, keep: np.ndarray | None = None) -> None:
        """is_odd(data, keep), or OddnessViolation naming `what`."""
        if not self.is_odd(data, keep):
            raise OddnessViolation(what, ODDNESS_TOL)

    @cached_property
    def whole_index(self) -> np.ndarray:
        """Flat index into planes 0..n/2 of a node of every entry of its whole
        lattice: plane -j reads plane j reflected (to be negated for odd data)."""
        planes, index = self.half_shape[0], np.empty(self.shape, int)
        index[:planes] = np.arange(math.prod(self.half_shape)).reshape(self.half_shape)
        index[planes:] = self.reflect(index)[planes:]
        return index.ravel()


class OddTransform:
    """The transform pair of odd data (Swarztrauber, "Symmetric FFTs", Math.
    Comp. 47, 1986): planes 0..n/2 of frequency data stacked along axis 0 to
    all n planes of Grid.odd_columns' half columns in physical space, and
    back, each pass one np.fft call on one axis, in fftn's order. The forward
    one is pruned to the planes with a dealiased mode, which every caller
    masks to (Markel, IEEE Trans. Audio Electroacoust. 19, 1971)."""

    def __init__(self, grid: Grid):
        self.half_shape = grid.half_shape
        k = self.dealias_planes = int(  # a prefix of planes 0..n/2: plane j holds |k| = j
            grid.dealias.any(axis=tuple(range(1, grid.dim)))[:grid.n // 2 + 1].sum())
        self.columns, self.gather, (scatter, sign) = grid.odd_columns()
        self.scatter, self.sign = scatter[:k], np.repeat(sign[:k], 2, axis=1)  # no iterator buffer
        self.later = tuple(range(grid.dim, 1, -1))

    def ifft(self, half: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """half (not written) to physical (rows, n, columns) in out, later passes in scratch."""
        for axis in self.later:
            half = scratch = np.fft.ifftn(half, axes=(axis,), out=scratch)
        out = np.take(half.reshape(len(half), -1), self.gather, axis=1, out=out, mode="clip")
        out[:, self.half_shape[0]:] *= -1  # rows read from mirror columns
        return np.fft.ifftn(out, axes=(1,), out=out)

    def fft(self, phys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """phys (overwritten) in frequency space on the half planes, in out:
        planes 0..dealias_planes - 1 transformed, the others zero."""
        np.fft.fftn(phys, axes=(1,), out=phys)
        low = out[:, :self.dealias_planes]
        flat = out.reshape(len(out), self.half_shape[0], -1)[:, :self.dealias_planes]
        np.take(phys.reshape(len(phys), -1), self.scatter, axis=1, out=flat, mode="clip")
        np.multiply(flat.view(float), self.sign, out=flat.view(float))
        out[:, self.dealias_planes:] = 0.0
        for axis in self.later:
            np.fft.fftn(low, axes=(axis,), out=low)
        return out


def make_grid(config: GridConfig) -> Grid:
    """Build the frequency lattice and physical nodes for a grid config."""
    return Grid(config)


@dataclass
class SpectralField:
    """A complex scalar field as its frequency data, shape grid.shape and
    dtype complex128."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid shape {self.grid.shape}")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)


class Series:
    """m_t + 1 fields at uniform times t_m = m*T/m_t, m = 0..m_t, of period T,
    read by frequency_rows(rows) (frequency data of nodes `rows`): the
    protocol of FieldSeries, the realized forcing (forcing.SeparableForcing)
    and a saved base."""

    @property
    def n_steps(self) -> int:
        return len(self) - 1

    @property
    def dt(self) -> float:
        return self.period / self.n_steps


@dataclass
class FieldSeries(Series):
    """m_t + 1 fields at uniform times t_m = m*T/m_t, m = 0..m_t.

    Frequency data stacked along axis 0 with shape (m_t + 1,) + grid.shape.
    For a periodic series the last field duplicates the first up to solver
    tolerance. An odd series may keep planes 0..n/2 only (grid.half_shape),
    and an `antiperiodic` one (u(t + T/2) = -u(t)) nodes 0..m_t/2 only: the
    layouts the solve holds and the norms sum on. frequency_rows expands
    only the nodes it is asked for, by exact negation: plane -j is minus
    plane j reflected (Grid.whole_index), and node m + m_t/2 is minus node m.
    """

    grid: Grid
    data: np.ndarray
    period: float
    antiperiodic: bool = False

    def __post_init__(self):
        if self.data.ndim != self.grid.dim + 1:
            raise ValueError("series data must be stacked along a leading time axis")
        if self.data.shape[1:] != self.grid.shape and not self.grid.is_half(self.data):
            raise ValueError(
                f"series spatial shape {self.data.shape[1:]} does not match grid {self.grid.shape}")
        if len(self) < 2:
            raise ValueError("a series needs at least two time nodes")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    def __len__(self) -> int:
        return 2 * len(self.data) - 1 if self.antiperiodic else len(self.data)

    def frequency_rows(self, rows: slice) -> np.ndarray:
        """Whole-lattice frequency data of the consecutive nodes `rows` (of
        0..m_t): a view of whole-lattice data, else np.take over views of
        the held planes and nodes, then negation."""
        grid, held, half = self.grid, len(self.data), self.grid.is_half(self.data)
        if not (half or self.antiperiodic):
            return self.data[rows]
        nodes = range(len(self))[rows]
        if nodes.step != 1:
            raise ValueError("frequency_rows reads consecutive nodes")
        cut = min(max(nodes.start, held), nodes.stop) - nodes.start  # then minus node m - m_t/2
        out = np.empty((len(nodes), grid.whole_index.size), complex)
        for part, first in ((out[:cut], nodes.start), (out[cut:], nodes.start + cut - held + 1)):
            block = self.data[first:first + len(part)].reshape(len(part), self.data[0].size)
            if half:
                np.take(block, grid.whole_index, axis=1, out=part, mode="clip")
            else:
                part[...] = block
        out = out.reshape((len(nodes),) + grid.shape)
        planes = grid.half_shape[0] if half else grid.n  # whole data: no plane is negated
        np.negative(out[:cut, planes:], out=out[:cut, planes:])
        np.negative(out[cut:, :planes], out=out[cut:, :planes])
        return out


# ---------------------------------------------------------------------------
# Field snapshot files
#
# Layout (all little-endian): magic "GLPF", version u32, dim u32,
# n_per_axis u32, box_length f64, representation flag u32 (0 physical,
# 1 frequency; read_snapshot returns frequency data, write_snapshot writes 1),
# then n^dim complex values as (re, im) f64 pairs in C order.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIdI")


def write_snapshot(field: SpectralField, path) -> None:
    """Write field's frequency data (flag 1) through manifest.atomic_write."""
    cfg = field.grid.config
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, cfg.dim,
                          cfg.n_per_axis, cfg.box_length, 1)
    atomic_write(path, header + np.ascontiguousarray(field.data, dtype="<c16").tobytes())


def read_snapshot(path, grid: Grid | None = None) -> SpectralField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: shorter than the {_HEADER.size}-byte snapshot header")
        magic, version, dim, n, L, flag = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a field snapshot (bad magic {magic!r})")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if flag not in (0, 1):
            raise ValueError(f"{path}: unknown snapshot representation flag {flag}")
        if grid is not None:
            cfg = grid.config
            if (cfg.dim, cfg.n_per_axis) != (dim, n) or cfg.box_length != L:
                raise ValueError(f"{path}: snapshot grid does not match the provided grid")
        # the size is checked before anything is read: a padded file is not allocated
        if os.path.getsize(path) != _HEADER.size + 16 * n ** dim:
            raise ValueError(f"{path}: snapshot payload is not n^dim values (truncated or padded)")
        data = np.fromfile(fh, dtype="<c16", count=n ** dim)  # no bytes copy beside the array
    if grid is None:
        grid = make_grid(GridConfig(dim=dim, n_per_axis=n, box_length=L))
    data = data.reshape((n,) * dim)
    return SpectralField(grid, np.fft.fftn(data) if flag == 0 else data)
