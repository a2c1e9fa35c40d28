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
* the half lattice, for data odd under the point reflection R: j -> -j mod n
  on every axis: first-axis planes 0..n/2, plane -j being minus plane j
  point-reflected on the later axes (OddTransform, Grid.odd_columns);
* the octant, for data with a parity p_a on each axis a (f = p_a R_a f, R_a
  the reflection of that axis alone): planes 0..n/2 of every axis, plane -j
  of an axis being p_a times plane j (OctantTransform, fold_extend);
* with `antiperiodic` (f(t + T/2) = -f(t)), nodes 0..m_t/2 of any of these.

The reflections act alike on frequency and physical data, so a held point
stands for its orbit: sums over held planes weight them 1, 2, ..., 2, 1
along every folded axis (Grid.fold_weights), and FieldSeries.frequency_rows
expands any layout to the whole lattice by exact negation (Grid.expansion).
The solve measures its forcing once (Grid.symmetry_of) and takes the octant
when every axis has a parity (the reference dipole, odd in x_0 and even in
x_1, x_2: 17^3 of 32^3 modes per node), the half lattice when only the point
oddness holds, and in 1D, where the two are one.
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

    * nothing set: every plane of the whole lattice;
    * `odd` (f(-x) = -f(x)) alone: first-axis planes 0..n/2, the half
      lattice, whose plane -j is minus plane j under the point reflection of
      the later axes;
    * `parity`, one per axis (+1 even, -1 odd under that axis's reflection
      j -> -j mod n): planes 0..n/2 of every axis, the octant, each axis
      folding onto itself; `odd` is then their product;
    * `antiperiodic` (f(t + T/2) = -f(t)): nodes 0..m_t/2 only.
    """

    odd: bool = False
    parity: tuple[int, ...] | None = None
    antiperiodic: bool = False

    def __post_init__(self):
        if self.parity is not None:
            object.__setattr__(self, "parity", tuple(int(p) for p in self.parity))
            object.__setattr__(self, "odd", math.prod(self.parity) == -1)

    def held(self, grid: "Grid") -> tuple:
        """The slices of a whole-lattice node (frequency or physical) this layout keeps."""
        folded = grid.dim if self.parity is not None else int(self.odd)
        return (slice(grid.n // 2 + 1),) * folded

    def shape(self, grid: "Grid") -> tuple:
        """The shape of a held node."""
        folded = len(self.held(grid))
        return (grid.n // 2 + 1,) * folded + grid.shape[folded:]


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
    mirrored = src[at(slice(m - 1, 0, -1))]
    if parity > 0:
        out[at(slice(n - m + 1, n))] = mirrored
    else:
        np.negative(mirrored, out=out[at(slice(n - m + 1, n))])
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

    def fold_weights(self, symmetry: Symmetry):
        """How many lattice points each held point stands for: 1, 2, ..., 2, 1
        along every folded axis (1 on the whole lattice)."""
        weights = 1.0
        for axis in range(len(symmetry.held(self))):
            weights = weights * np.moveaxis(self.plane_weights(), 0, axis)
        return weights

    def transform(self, symmetry: Symmetry):
        """The transform pair of a layout: WholeTransform, OddTransform (the half
        lattice) or OctantTransform (one per parity signature)."""
        if symmetry.parity is not None:
            cache = self.__dict__.setdefault("_octant_transforms", {})
            if symmetry.parity not in cache:
                cache[symmetry.parity] = OctantTransform(self, symmetry.parity)
            return cache[symmetry.parity]
        return self.odd_transform if symmetry.odd else self.whole_transform

    @cached_property
    def whole_transform(self) -> "WholeTransform":
        return WholeTransform(self)

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
        """(largest |f + Rf|/2, largest |f|) of one node: the even part is_odd
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

    @staticmethod
    def periodic_part(a: np.ndarray, b: np.ndarray) -> float:
        """Largest |a + b|/2 of nodes m, m + m_t/2 of a series: their periodic
        part, at most ODDNESS_TOL of the peak for antiperiodic data."""
        return float(np.abs(a + b).max()) / 2

    def symmetry_of(self, g, octant: np.ndarray, what: str) -> Symmetry:
        """The Symmetry a series (read by frequency_rows) is held by, from one
        chunked pass over its nodes on the pool, in pairs (m, m + m_t/2) for an
        even m_t, one node at a time within a task. It must be odd (even_part;
        OddnessViolation naming `what` otherwise); it is antiperiodic if m_t is
        even and every pair's periodic_part is small, and has parity p on an
        axis if its part of the other parity there (axis_parts) is, at every
        node, all against ODDNESS_TOL of the peak; the last axis takes the
        parity that makes the product odd. Per-axis parities are kept in 2D
        and 3D only (in 1D they are the point parity). octant gets planes 0..n/2
        of every axis of every node, with planes 0 and n/2 of an odd axis
        zeroed: the held data of an octant layout."""
        pairs, dim = len(g) % 2 == 1, self.dim
        half = len(g) // 2 if pairs else len(g)

        def node(m):  # (even part, peak, axis parts) of node m, octant written
            f, = g.frequency_rows(slice(m, m + 1))
            octant[m] = f[(slice(self.n // 2 + 1),) * dim]
            return f, [*self.even_part(f), *(self.axis_parts(f) if dim > 1 else [])]

        def task(rows):
            worst = []
            for m in range(rows.start, rows.stop):
                a, stats = node(m)
                if pairs:
                    b, more = node(m + half)
                    stats = [*np.maximum(stats, more), self.periodic_part(a, b)]
                worst.append(stats)
            return np.max(worst, axis=0)

        worst = np.max(map_chunks(task, node_chunks(half + pairs)), axis=0)
        even, peak, axis_parts = worst[0], worst[1], worst[2:2 * dim]
        if not even <= ODDNESS_TOL * peak:
            raise OddnessViolation(what, ODDNESS_TOL)
        small = axis_parts <= ODDNESS_TOL * peak
        parity = [1 if odd_part else -1 if even_part else 0
                  for odd_part, even_part in zip(small[::2], small[1::2])]
        parity = tuple(parity + [-math.prod(parity)]) if dim > 1 and all(parity) else None
        if parity is not None:
            for axis in np.flatnonzero(np.array(parity) < 0):
                octant[(slice(None),) * (axis + 1) + (slice(0, None, self.n // 2),)] = 0
        return Symmetry(odd=True, parity=parity,
                        antiperiodic=pairs and bool(worst[-1] <= ODDNESS_TOL * peak))

    def require_odd(self, data, what: str, keep: np.ndarray | None = None) -> None:
        """is_odd(data, keep), or OddnessViolation naming `what`."""
        if not self.is_odd(data, keep):
            raise OddnessViolation(what, ODDNESS_TOL)

    def expansion(self, symmetry: Symmetry) -> tuple:
        """(index, negate) of a layout, flat over a node's whole lattice: the
        flat index into the held planes each entry reads, and whether it reads
        it negated. On the half lattice plane -j reads plane j point-reflected,
        minus; in the octant plane -j of each axis reads plane j, times that
        axis's parity. On the whole lattice index is None and nothing is negated."""
        cache = self.__dict__.setdefault("_expansions", {})
        key = (symmetry.odd, symmetry.parity)
        if key not in cache:
            n, h = self.n, self.n // 2 + 1
            held = symmetry.shape(self)
            index, sign = np.arange(math.prod(held)).reshape(held), np.ones(self.shape)
            if symmetry.parity is not None:
                fold = np.where(np.arange(n) < h, np.arange(n), n - np.arange(n))
                index = index[np.ix_(*[fold] * self.dim)]
                for axis, p in enumerate(symmetry.parity):
                    sign *= np.where(np.arange(n) < h, 1, p).reshape(
                        (n,) + (1,) * (self.dim - 1 - axis))
            elif symmetry.odd:  # planes n - j, j = n/2 - 1..1, reflected on the later axes
                later = np.ix_(*[self._reflect_1d] * (self.dim - 1))
                index = np.concatenate([index, index[h - 2:0:-1][(slice(None),) + later]])
                sign[h:] = -1
            cache[key] = (index.ravel() if symmetry.held(self) else None, (sign < 0).ravel())
        return cache[key]


class OddTransform:
    """The transform pair of odd data (Swarztrauber, "Symmetric FFTs", Math.
    Comp. 47, 1986): planes 0..n/2 of frequency data stacked along axis 0 to
    all n planes of Grid.odd_columns' half columns in physical space, and
    back, each pass one np.fft call on one axis, in fftn's order. The forward
    one is pruned to the planes with a dealiased mode, which every caller
    masks to (Markel, IEEE Trans. Audio Electroacoust. 19, 1971)."""

    def __init__(self, grid: Grid):
        self.half_shape = grid.half_shape
        k = self.dealias_planes = _dealias_planes(grid)
        self.columns, self.gather, (scatter, sign) = grid.odd_columns()
        self.scatter, self.sign = scatter[:k], np.repeat(sign[:k], 2, axis=1)  # no iterator buffer
        self.later = tuple(range(grid.dim, 1, -1))
        self.dealias = grid.dealias[:grid.n // 2 + 1]
        self._grid = grid

    @cached_property
    def l1_weight(self) -> np.ndarray:
        """1 + |x| on the half columns, each counted once per column it stands for
        (|f| on a mirror column is |f| on its half column); built on first use,
        so the stepper, which never reads it, holds none."""
        grid = self._grid
        return ((1.0 + grid.x_abs).reshape(grid.n, -1)[:, self.columns]
                * np.bincount(self.scatter[0]))

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


def _dealias_planes(grid: Grid) -> int:
    """The planes 0..k-1 of an axis that hold a dealiased mode (plane j holds |k| = j)."""
    return int(grid.dealias.any(axis=tuple(range(1, grid.dim)))[:grid.n // 2 + 1].sum())


class WholeTransform:
    """The transform pair of whole-lattice data: one ifftn or fftn over every
    spatial axis of data stacked along axis 0."""

    def __init__(self, grid: Grid):
        self.axes = grid.series_axes
        self.dealias = grid.dealias
        self.l1_weight = 1.0 + grid.x_abs

    def ifft(self, data: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(data, axes=self.axes)

    def fft(self, phys: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.fft.fftn(phys, axes=self.axes, out=out)


class OctantTransform:
    """The transform pair of data with a parity per axis (Symmetry.parity):
    planes 0..n/2 of every axis of frequency data stacked along axis 0 to
    those of physical data, and back. Each pass folds one axis: fold_extend
    writes the n-point even or odd extension of the held planes into a
    buffer the call owns, one np.fft call runs on that axis in place, and
    planes 0..n/2 are kept. Parities hold in physical space too. The inverse
    ends on the first axis, so its output is contiguous node by node; the
    forward one keeps the planes with a dealiased mode only, as
    OddTransform's does (its caller masks to them)."""

    def __init__(self, grid: Grid, parity: tuple[int, ...]):
        self.parity, self.n, self.dim = parity, grid.n, grid.dim
        octant = (slice(grid.n // 2 + 1),) * grid.dim
        self.dealias_planes = _dealias_planes(grid)
        self.dealias = grid.dealias[octant].copy()
        for axis in np.flatnonzero(np.array(parity) < 0):  # planes 0 and n/2 are 0 there
            self.dealias[(slice(None),) * axis + (slice(0, None, grid.n // 2),)] = False
        self.l1_weight = (1.0 + grid.x_abs)[octant] * grid.fold_weights(Symmetry(parity=parity))

    def _pass(self, x: np.ndarray, axis: int, planes: int, transform) -> np.ndarray:
        out = np.empty(x.shape[:axis] + (self.n,) + x.shape[axis + 1:], complex)
        fold_extend(x, axis, self.parity[axis - 1], out)
        transform(out, axes=(axis,), out=out)
        return out[(slice(None),) * axis + (slice(planes),)]

    def ifft(self, held: np.ndarray) -> np.ndarray:
        """held (not written) to physical planes 0..n/2 of every axis (a view)."""
        for axis in range(self.dim, 0, -1):
            held = self._pass(held, axis, self.n // 2 + 1, np.fft.ifftn)
        return held

    def fft(self, phys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """phys (not written) in frequency space on planes 0..n/2 of every axis,
        in out: planes 0..dealias_planes - 1 of each axis transformed, the others zero."""
        for axis in range(1, self.dim + 1):
            phys = self._pass(phys, axis, self.dealias_planes, np.fft.fftn)
        out[...] = 0
        out[(slice(None),) + (slice(self.dealias_planes),) * self.dim] = phys
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
    by exact negation (Grid.expansion; node m + m_t/2 is minus node m).
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

    def first_planes(self, m: int, out: np.ndarray) -> np.ndarray:
        """Planes 0..n/2 of the first axis of held node m, every plane of the
        other axes (the stepper's layout of odd data), stacked along a
        leading axis of one: a view, or on the octant the leading entries of
        its expansion (Grid.expansion) written into out, which is returned."""
        grid, node = self.grid, self.data[m:m + 1]
        if self.symmetry.parity is None:
            return node[:, :grid.n // 2 + 1]
        index, negate = grid.expansion(self.symmetry)
        size = out.size
        np.take(node.reshape(-1), index[:size], out=out.reshape(-1), mode="clip")
        return np.negative(out, out=out, where=negate[:size].reshape(out.shape))

    def frequency_rows(self, rows: slice) -> np.ndarray:
        """Whole-lattice frequency data of the consecutive nodes `rows` (of
        0..m_t): a view of whole-lattice data, else np.take over views of
        the held planes and nodes, then negation."""
        grid, held, sym = self.grid, len(self.data), self.symmetry
        folded = bool(sym.held(grid))
        if not (folded or sym.antiperiodic):
            return self.data[rows]
        nodes = range(len(self))[rows]
        if nodes.step != 1:
            raise ValueError("frequency_rows reads consecutive nodes")
        cut = min(max(nodes.start, held), nodes.stop) - nodes.start  # then minus node m - m_t/2
        index, negate = grid.expansion(sym)
        out = np.empty((len(nodes), negate.size), complex)
        for part, first in ((out[:cut], nodes.start), (out[cut:], nodes.start + cut - held + 1)):
            block = self.data[first:first + len(part)].reshape(len(part), self.data[0].size)
            if folded:
                np.take(block, index, axis=1, out=part, mode="clip")
            else:
                part[...] = block
        np.negative(out[:cut], out=out[:cut], where=negate)
        np.negative(out[cut:], out=out[cut:], where=~negate)
        return out.reshape((len(nodes),) + grid.shape)


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
