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

Layouts. A series is held as one Symmetry record says, and every kernel
reads that record, never the shape of the data:

* the whole lattice: every plane;
* the octant, for data with a parity p_a on each axis a (f = p_a R_a f, R_a
  the reflection j -> -j mod n of that axis alone): planes 0..n/2 of every
  axis, plane -j of an axis being p_a times plane j (OctantTransform,
  fold_extend);
* with `antiperiodic` (f(t + T/2) = -f(t)), nodes 0..m_t/2 of either.

The reflections act alike on frequency and physical data, so a held point
stands for its orbit: sums over held planes weight them 1, 2, ..., 2, 1
along every axis (Grid.fold_weights). There is one way into the octant and
one way out: Grid.symmetry_of only measures a series (the solve's forcing,
the stability base), its reader takes the held planes and zeroes the odd
axes' planes 0 and n/2 (Grid.clear_odd_planes), and FieldSeries.frequency_rows
extends them as every transform does, by fold_extend. The octant is held
when every axis has a parity (the reference dipole, odd in x_0 and even in
x_1, x_2: 17^3 of 32^3 modes per node; in 1D the one axis's parity is the
point parity), else the whole lattice.
"""

from __future__ import annotations

import itertools
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
class Symmetry:
    """How a series is held, the one layout record every kernel reads:

    * no `parity`: every plane of the whole lattice;
    * `parity`, one per axis (+1 even, -1 odd under that axis's reflection
      j -> -j mod n): planes 0..n/2 of every axis, the octant, each axis
      folding onto itself;
    * `antiperiodic` (f(t + T/2) = -f(t)): nodes 0..m_t/2 only.
    """

    parity: tuple[int, ...] | None = None
    antiperiodic: bool = False

    def __post_init__(self):
        if self.parity is not None:
            object.__setattr__(self, "parity", tuple(int(p) for p in self.parity))

    @property
    def odd(self) -> bool:
        """Whether the held data are odd, f(-x) = -f(x): the parities' product is -1."""
        return self.parity is not None and math.prod(self.parity) == -1

    def held(self, grid: "Grid") -> tuple:
        """The slices of a whole-lattice node (frequency or physical) this layout keeps."""
        return (slice(grid.n // 2 + 1),) * (grid.dim if self.parity is not None else 0)

    def shape(self, grid: "Grid") -> tuple:
        """The shape of a held node."""
        return (grid.n // 2 + 1,) * grid.dim if self.parity is not None else grid.shape


WHOLE = Symmetry()


def fold_extend(src: np.ndarray, axis: int, parity: int, out: np.ndarray) -> np.ndarray:
    """Write into out, n planes long on `axis`, the n-point extension of the
    k <= n/2 + 1 planes that src holds there: plane -j = parity * plane j, and
    zeros beyond the held planes (an odd axis also takes none of planes 0 and
    n/2, which are then 0). Every plane of out is written."""
    n, k = out.shape[axis], src.shape[axis]
    m = min(k, n // 2)  # planes 1..m-1 have a mirror plane n - j

    def at(s):
        return (slice(None),) * axis + (s,)

    low = slice(0, k) if parity > 0 else slice(1, m)
    out[at(low)] = src[at(low)]
    out[at(slice(low.stop, n - m + 1))] = 0
    out[at(slice(0, low.start))] = 0
    high = out[at(slice(n - m + 1, n))]
    high[...] = src[at(slice(m - 1, 0, -1))]
    if parity < 0:  # copied, then negated in place: numpy buffers a reversed operand
        np.negative(high, out=high)
    return out


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

    def plane_weights(self) -> np.ndarray:
        """Weights 1, 2, ..., 2, 1 folding planes -j into planes j <= n/2."""
        weights = np.full((self.n // 2 + 1,) + (1,) * (self.dim - 1), 2.0)
        weights[[0, -1]] = 1.0
        return weights

    def fold_weights(self, symmetry: Symmetry):
        """How many lattice points each held point stands for: 1, 2, ..., 2, 1
        along every folded axis (1 on the whole lattice)."""
        weights = 1.0
        for axis in range(len(symmetry.held(self))):
            weights = weights * np.moveaxis(self.plane_weights(), 0, axis)
        return weights

    def transform(self, symmetry: Symmetry):
        """The transform pair of a layout: WholeTransform, or OctantTransform
        (one per parity signature)."""
        if symmetry.parity is None:
            return self.whole_transform
        cache = self.__dict__.setdefault("_octant_transforms", {})
        if symmetry.parity not in cache:
            cache[symmetry.parity] = OctantTransform(self, symmetry.parity)
        return cache[symmetry.parity]

    @cached_property
    def whole_transform(self) -> "WholeTransform":
        return WholeTransform(self)

    def even_part(self, f: np.ndarray) -> tuple[float, float]:
        """(largest |f + Rf|/2, largest |f|) of one node: the even part parity
        bounds, and the peak. Rf is read on views: entry j of a block of
        indices >= 1 on some axes (0 on the others) mirrors entry n - j.
        |f + Rf| takes the same value at j and -j, so first-axis planes
        0..n/2 cover it."""
        n, even = self.n, 0.0
        first = ((slice(0, 1), slice(0, 1)), (slice(1, n // 2 + 1), slice(n - 1, n // 2 - 1, -1)))
        rest = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
        for blocks in itertools.product(first, *[rest] * (f.ndim - 1)):
            corner, mirror = zip(*blocks)
            even = max(even, float(np.abs(f[corner] + f[mirror]).max()))
        return even / 2, float(np.abs(f).max())

    def axis_parts(self, f: np.ndarray) -> list[float]:
        """Per axis but the last, the largest |f - R_a f|/2 and |f + R_a f|/2 of
        one node (R_a: j -> -j mod n on that axis): its odd and its even part
        there, each at most ODDNESS_TOL of the peak for data of that axis's
        parity. Planes j and n - j are compared on views; planes 0 and n/2
        are their own mirror. (For odd data the last axis's parity is the
        product's: its wrong part is bounded by the others' and the even part.)"""
        n, parts = self.n, []
        for axis in range(self.dim - 1):
            def at(s):
                return (slice(None),) * axis + (s,)
            lo, hi = f[at(slice(1, n // 2))], f[at(slice(n - 1, n // 2, -1))]
            own = max(float(np.abs(f[at(slice(0, n, n // 2))]).max()),
                      float(np.abs(lo + hi).max()) / 2)
            parts += [float(np.abs(lo - hi).max()) / 2, own]
        return parts

    def node_stats(self, f: np.ndarray) -> list[float]:
        """[even part, peak, *axis parts] of one node, which parity reads."""
        return [*self.even_part(f), *self.axis_parts(f)]

    def parity(self, stats, what: str) -> tuple[int, ...] | None:
        """The per-axis parity of data of largest node_stats `stats`: p on an
        axis whose part of the other parity is at most ODDNESS_TOL of the
        peak, the last axis's making the product odd (in 1D the point
        parity); None if some axis has neither. The data must be odd
        (OddnessViolation naming `what` otherwise)."""
        even, peak = stats[0], stats[1]
        if not even <= ODDNESS_TOL * peak:
            raise OddnessViolation(what, ODDNESS_TOL)
        small = np.asarray(stats[2:2 * self.dim]) <= ODDNESS_TOL * peak
        parity = [1 if odd_part else -1 if even_part else 0
                  for odd_part, even_part in zip(small[::2], small[1::2])]
        return tuple(parity + [-math.prod(parity)]) if all(parity) else None

    def clear_odd_planes(self, held: np.ndarray, parity: tuple[int, ...] | None) -> np.ndarray:
        """Zero planes 0 and n/2 of every odd axis of octant data stacked along
        axis 0 (their own mirrors, they hold nothing of data odd there); a
        no-op on the whole lattice (no parity). Returns held."""
        for axis in np.flatnonzero(np.array(parity or ()) < 0):
            held[(slice(None),) * (axis + 1) + (slice(0, None, self.n // 2),)] = 0
        return held

    def symmetry_of(self, g, what: str) -> Symmetry:
        """The Symmetry a series (read by frequency_rows) is held by, from one
        pass over its nodes in the calling thread, in pairs (m, m + m_t/2)
        for an even m_t: its parity (OddnessViolation naming `what` if it is
        not odd), and antiperiodic if every pair's periodic part, the largest
        |a + b|/2, is at most ODDNESS_TOL of the peak. It only measures."""
        pairs = len(g) % 2 == 1
        half = len(g) // 2 if pairs else len(g)
        worst = []
        for m in range(half + pairs):
            a, = g.frequency_rows(slice(m, m + 1))
            stats = self.node_stats(a)
            if pairs:
                b, = g.frequency_rows(slice(m + half, m + half + 1))
                stats = [*np.maximum(stats, self.node_stats(b)), float(np.abs(a + b).max()) / 2]
            worst.append(stats)
        worst = np.max(worst, axis=0)
        return Symmetry(parity=self.parity(worst, what),
                        antiperiodic=pairs and bool(worst[-1] <= ODDNESS_TOL * worst[1]))


def _dealias_planes(grid: Grid) -> int:
    """The planes 0..k-1 of an axis that hold a dealiased mode (plane j holds |k| = j)."""
    return int(grid.dealias.any(axis=tuple(range(1, grid.dim)))[:grid.n // 2 + 1].sum())


class WholeTransform:
    """The transform pair of whole-lattice data: one ifftn or fftn over every
    spatial axis of data stacked along axis 0."""

    kept = ()  # the forward transform's output block: every plane

    def __init__(self, grid: Grid):
        self.axes, self.shape = grid.series_axes, grid.shape
        self.dealias = grid.dealias
        self.l1_weight = 1.0 + grid.x_abs

    def buffers(self, rows: int) -> tuple[tuple, tuple]:
        """Owned buffers of ifft and fft on `rows` stacked nodes: ifft's output."""
        return (np.empty((rows,) + self.shape, complex),), ()

    def ifft(self, data: np.ndarray, work: tuple | None = None) -> np.ndarray:
        """data (not written) to physical data, in work[0] if work is given."""
        return np.fft.ifftn(data, axes=self.axes, out=work[0] if work else None)

    def fft(self, phys: np.ndarray, out: np.ndarray, work: tuple | None = None) -> np.ndarray:
        return np.fft.fftn(phys, axes=self.axes, out=out)


class OctantTransform:
    """The transform pair of data with a parity per axis (Symmetry.parity):
    planes 0..n/2 of every axis of frequency data stacked along axis 0 to
    those of physical data, and back. Each pass folds one axis: fold_extend
    writes the n-point even or odd extension of the held planes into a
    buffer (the call's own, or one of `work` from buffers()), one np.fft
    call runs on that axis in place, and planes 0..n/2 are kept. Parities
    hold in physical space too. The inverse ends on the first axis, so its
    output is contiguous node by node; the forward one keeps the planes with
    a dealiased mode only, the block `kept` (its callers mask to them:
    Markel, IEEE Trans. Audio Electroacoust. 19, 1971)."""

    def __init__(self, grid: Grid, parity: tuple[int, ...]):
        self.parity, self.n, self.dim = parity, grid.n, grid.dim
        octant = (slice(grid.n // 2 + 1),) * grid.dim
        self.dealias_planes = _dealias_planes(grid)
        self.dealias = grid.clear_odd_planes(grid.dealias[octant][None].copy(), parity)[0]
        self.l1_weight = (1.0 + grid.x_abs)[octant] * grid.fold_weights(Symmetry(parity=parity))

    @property
    def kept(self) -> tuple:
        """The block the forward transform writes: planes 0..dealias_planes - 1 of every axis."""
        return (slice(self.dealias_planes),) * self.dim

    def buffers(self, rows: int) -> tuple[tuple, tuple]:
        """Owned pass buffers of ifft and fft on `rows` stacked nodes, so that
        neither allocates: each pass's n-plane extension (the forward's first
        pass shares the inverse's last buffer)."""
        h, k, n, dim = self.n // 2 + 1, self.dealias_planes, self.n, self.dim
        inverse = tuple(np.empty((rows,) + (h,) * (axis - 1) + (n,) + (h,) * (dim - axis),
                                 complex) for axis in range(dim, 0, -1))
        forward = inverse[-1:] + tuple(
            np.empty((rows,) + (k,) * (axis - 1) + (n,) + (h,) * (dim - axis), complex)
            for axis in range(2, dim + 1))
        return inverse, forward

    def _pass(self, x: np.ndarray, axis: int, planes: int, transform, out=None) -> np.ndarray:
        if out is None:
            out = np.empty(x.shape[:axis] + (self.n,) + x.shape[axis + 1:], complex)
        fold_extend(x, axis, self.parity[axis - 1], out)
        transform(out, axes=(axis,), out=out)
        return out[(slice(None),) * axis + (slice(planes),)]

    def ifft(self, held: np.ndarray, work: tuple | None = None) -> np.ndarray:
        """held (not written) to physical planes 0..n/2 of every axis (a view)."""
        for axis, out in zip(range(self.dim, 0, -1), work or (None,) * self.dim):
            held = self._pass(held, axis, self.n // 2 + 1, np.fft.ifftn, out)
        return held

    def fft(self, phys: np.ndarray, out: np.ndarray, work: tuple | None = None) -> np.ndarray:
        """phys (not written) in frequency space on planes 0..n/2 of every axis,
        in out: the block `kept` transformed, the others zero."""
        for axis, buffer in zip(range(1, self.dim + 1), work or (None,) * self.dim):
            phys = self._pass(phys, axis, self.dealias_planes, np.fft.fftn, buffer)
        out[...] = 0
        out[(slice(None),) + self.kept] = phys
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

    Frequency data stacked along axis 0, held as `symmetry` says: every node
    of the whole lattice (shape (m_t + 1,) + grid.shape), or the planes and
    nodes a Symmetry keeps, the layouts the solve holds and the norms sum
    on. For a periodic series the last field duplicates the first up to
    solver tolerance. frequency_rows expands only the nodes it is asked for,
    one at a time by fold_extend (node m + m_t/2 is minus node m).
    """

    grid: Grid
    data: np.ndarray
    period: float
    symmetry: Symmetry = WHOLE

    def __post_init__(self):
        grid = self.grid
        if self.data.ndim != grid.dim + 1:
            raise ValueError("series data must be stacked along a leading time axis")
        held = self.symmetry.shape(grid)
        if self.data.shape[1:] != held:
            raise ValueError(f"series spatial shape {self.data.shape[1:]} does not match "
                             f"{held}, what {self.symmetry} holds on grid {grid.shape}")
        if len(self) < 2:
            raise ValueError("a series needs at least two time nodes")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @property
    def antiperiodic(self) -> bool:
        return self.symmetry.antiperiodic

    def __len__(self) -> int:
        return 2 * len(self.data) - 1 if self.antiperiodic else len(self.data)

    def frequency_rows(self, rows: slice) -> np.ndarray:
        """Whole-lattice frequency data of nodes `rows` (of 0..m_t): a view of
        whole-lattice data, else each node extended by fold_extend axis by axis
        (planes 0 and n/2 of an odd axis read as 0, as in every transform) into
        the output through owned pass buffers, node m + m_t/2 then negated."""
        grid, held, parity = self.grid, len(self.data), self.symmetry.parity or ()
        if not (parity or self.antiperiodic):
            return self.data[rows]
        nodes = range(len(self))[rows]
        out = np.empty((len(nodes),) + grid.shape, complex)
        passes = [np.empty((grid.n,) * axis + (grid.n // 2 + 1,) * (grid.dim - axis), complex)
                  for axis in range(1, len(parity))] + [None]
        for node, m in zip(out, nodes):
            f = self.data[m if m < held else m - held + 1]
            for axis, p in enumerate(parity):
                f = fold_extend(f, axis, p, node if passes[axis] is None else passes[axis])
            if m >= held:
                np.negative(f, out=node)
            elif not parity:
                node[...] = f
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
