"""Discrete Lebesgue, weighted Sobolev and space-time norms.

The spatial weight is w(x) = 1 + |x| with x in centered box coordinates
(w is even on the lattice and >= 1 everywhere). Weighted Sobolev norms apply
the weight after differentiation:

    ||f||_{H^k_w} = ( sum_{|alpha| <= k} ||(1+|x|) d^alpha f||_{L2}^2 )^{1/2}.

Space-time norms realize C([a,b]; .) as the max over time nodes, time
integrals by the trapezoidal rule and time derivatives by centered
differences with periodic wrap.

The two space-time norms are

    X(u) = ||u||_{H1(t;L2)} + || |x| grad u ||_{H1(t;L2)} + ||du/dt||_{L2(t;L2_w)}
    Y(u) = ||u||_{C(t;H2_w)} + ||u||_{L2(t;H3_w)} + ||u||_{H1(t;H1_w)}

for the low and high frequency parts respectively, and the forcing size
functional is [g] = ||g||_{L2(t;L1_w)} + ||g||_{L2(t;H1_w)}.

Series norms stream over chunks of time nodes, each gathered with one
periodic halo node either side and projected on its own, so their memory
does not grow with the number of nodes. In a chunk every d^alpha u comes
from a per-axis tree of one-axis inverse transforms (one pass on the first
axis per power a_0, on the second per (a_0, a_1), on the last per alpha)
into buffers the chunk's task owns; a pass keeps the halo only if a time
difference is read below it, and skips lines where the projection's mask
is identically zero. Each chunk is one task on the shared thread pool
(spectral.map_chunks) and returns per-node sums only; reductions over
nodes and orders (cumsum, trapezoid, max) run after the map. Node sums are
row-by-row einsum reductions, not BLAS products, so no result depends on
the number of workers, the chunk size or the BLAS thread count.

Folded series (spectral's layouts, read off FieldSeries.symmetry) are
summed on the planes they hold. The lattice reflections leave every weight
and radial mask even, and every |d^alpha u|^2 of data with a parity even, so
each held physical point is weighted by the points it stands for (1, 2, ...,
2, 1 along every folded axis). Half data (planes 0..n/2 of point-odd data):
the reflection maps first-axis plane j to plane -j mod n and every pass
after the first-axis one stays within a plane, so after that pass the tree
keeps planes 0..n/2. The first-axis pass needs only half the columns
(Grid.odd_columns): each task gathers all n planes of them, plane j > n/2
as minus plane n - j on the mirror columns, and each pass is scattered into
planes 0..n/2 with the sign -(-1)^a0 of d_0^a0 on the mirror columns.
Octant data (planes 0..n/2 of every axis, a parity per axis): every pass
folds its own axis, fold_extend writing the n-point extension of the held
planes by the data's parity there into a task-owned buffer, the symbol
multiplying all n planes, one inverse pass, planes 0..n/2 kept; the levels
run from the last axis to the first, and the support of chi prunes every
axis not yet transformed to its leading planes.

An antiperiodic series (FieldSeries.antiperiodic: u(t + T/2) = -u(t), as
the solve measures) holds nodes 0..m_t/2. Every node sum is one of |.|^2,
so nodes 0..m_t/2 - 1 are computed (node 0's left halo is minus node
m_t/2 - 1) and node m takes the sums of node m mod m_t/2.

Every weighted H^k_w sum (the field norms, x_gradient_node_sq and the
H1_w part of forcing_bracket) is weighted_hk_node_sq on the same tree over
stacks of fields; single-field norms are stacks of one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .operators import CutoffSpec
from .spectral import (WHOLE, FieldSeries, Grid, SpectralField, Symmetry, fold_extend,
                       map_chunks, node_chunks)


class NormSuite:
    """Per-grid cache of the weight and the derivative symbols."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.weight = 1.0 + grid.x_abs
        self.weight_sq = self.weight * self.weight
        self.x_abs_sq = grid.x_abs * grid.x_abs
        # axis_symbols[axis][a]: (i xi_axis)^a, shaped to broadcast along axis
        # `axis` of time-stacked data.
        self.axis_symbols = [
            [((1j * grid.xi1d) ** a).reshape((-1,) + (1,) * (grid.dim - 1 - axis))
             for a in range(4)] for axis in range(grid.dim)]

    @classmethod
    def for_grid(cls, grid: Grid) -> "NormSuite":
        suite = getattr(grid, "_norm_suite", None)
        if suite is None:
            suite = cls(grid)
            grid._norm_suite = suite
        return suite

    def flat(self, name: str, symmetry: Symmetry = WHOLE) -> np.ndarray:
        """Node-sum weights over the real view of a flattened complex field,
        quadrature weight included: the `name` ('weight_sq', 'x_abs_sq' or
        'quad') weighted |f|^2 of a node is _weighted_sq(f, w). On a folded
        layout they cover its held planes, each mirror plane folded in
        (Grid.fold_weights: 1, 2, ..., 2, 1 per folded axis). Built per call
        (in microseconds) rather than kept, so no run holds every variant."""
        grid = self.grid
        w = np.ones(grid.shape) if name == "quad" else getattr(self, name)
        held = symmetry.held(grid)
        if held:
            w = w[held] * grid.fold_weights(symmetry)
        return np.repeat(w.ravel(), 2) * grid.quad_weight


_LP_EXPONENTS = (1, 2, 3, 6)


def _lp_node(phys: np.ndarray, grid: Grid, p, weighted: bool = False) -> np.ndarray:
    """Per-node quadrature L^p norms of physical data stacked along axis 0,
    optionally with the (1+|x|) weight; p = inf is the max modulus."""
    axes = grid.series_axes
    mag = np.abs(phys)
    if weighted:
        mag = NormSuite.for_grid(grid).weight * mag
    if p == math.inf or p == float("inf"):
        return mag.max(axis=axes)
    if p not in _LP_EXPONENTS:
        raise ValueError(f"unsupported exponent p={p!r}; use 1, 2, 3, 6 or inf")
    return ((mag ** p).sum(axis=axes) * grid.quad_weight) ** (1.0 / p)


def l1w_node(data: np.ndarray, grid: Grid, symmetry: Symmetry = WHOLE) -> np.ndarray:
    """Per-node weighted L1 norms of frequency-stacked data held as `symmetry`
    says, one inverse transform (Grid.transform) per chunk of nodes on the
    shared pool, each physical point weighted by the points it stands for; an
    antiperiodic series holds nodes 0..m_t/2 and gets the norms of nodes
    0..m_t (module docstring)."""
    pair, n_nodes = grid.transform(symmetry), len(data) - symmetry.antiperiodic

    def task(rows):
        phys = pair.ifft(data[rows])
        axes = tuple(range(1, phys.ndim))
        return (pair.l1_weight * np.abs(phys)).sum(axis=axes) * grid.quad_weight

    node = np.concatenate(map_chunks(task, node_chunks(n_nodes)))
    return node[np.arange(2 * n_nodes + 1) % n_nodes] if symmetry.antiperiodic else node


def lp_norm(f: SpectralField, p, weighted: bool = False) -> float:
    """Quadrature L^p norm, optionally with the (1+|x|) weight; p = inf is the
    exact max modulus over nodes."""
    return float(_lp_node(np.fft.ifftn(f.data)[None], f.grid, p, weighted)[0])


def sobolev_norm(f: SpectralField, k: int, weighted: bool = False) -> float:
    """H^k norm over all multi-indices |alpha| <= k, from the derivative tree
    (Nyquist rule of _derivative_tree); weighted applies (1+|x|) in physical
    space after differentiation."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Sobolev order k must be 0..3; got {k}")
    weight = "weight_sq" if weighted else "quad"
    return float(np.sqrt(weighted_hk_node_sq(f.data[None], f.grid, k, weight=weight)[k, 0]))


def x_weighted_gradient_norm(f: SpectralField) -> float:
    """|| |x| |grad f| ||_{L2} with x in centered coordinates (one field of
    x_gradient_node_sq)."""
    return float(np.sqrt(x_gradient_node_sq(f.data[None], f.grid)[0]))


# ---------------------------------------------------------------------------
# Space-time norms on series (frequency-stacked internally)
# ---------------------------------------------------------------------------

def _node_l2(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Per-node L2 norms of frequency-stacked data (Parseval)."""
    flat = data.reshape(data.shape[0], -1)
    return np.sqrt((flat.real ** 2 + flat.imag ** 2).sum(axis=1) * grid.parseval_factor)


def _weighted_sq(phys: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node sums of w * |f|^2 over the real view, one row per node.

    A three-operand einsum reduces each row on its own without BLAS, so a
    node's sum does not depend on the rows around it.
    """
    flat = phys.reshape(phys.shape[0], -1).view(float)
    return np.einsum("ij,ij,j->i", flat, flat, w)


def _axis_support(mask: np.ndarray | None, grid: Grid) -> list:
    """Per spatial axis after the first, the indices where `mask` is nonzero and
    their runs as (whole, gathered) slices; None if it drops only Nyquist or all."""
    support = [None] * grid.dim
    for axis in range(1, grid.dim if mask is not None else 1):
        cols = np.flatnonzero(np.moveaxis(mask != 0, axis, 0).reshape(grid.n, -1).any(1))
        cuts = [0, *(np.flatnonzero(np.diff(cols) != 1) + 1), len(cols)]
        if 0 < len(cols) < grid.n - 1:
            support[axis] = cols, [(slice(cols[a], cols[b - 1] + 1), slice(a, b))
                                   for a, b in zip(cuts, cuts[1:])]
    return support


def _derivative_tree(block: np.ndarray, grid: Grid, k: int, nyquist_free: bool,
                     skip_zero: bool, support: list, halo_order: int, columns=None,
                     parity=None):
    """Yield (alpha, d^alpha block in physical space, in a buffer the next
    block overwrites) for every |alpha| <= k, or 1 <= |alpha| <= k with
    `skip_zero`, from task-owned frequency data `block` stacked along axis 0
    (overwritten), reduced to support[axis] where that is set. Nyquist modes
    are zeroed for |alpha| >= 1 and kept for alpha = 0 (the rule of every
    Sobolev norm here); a block not known to be Nyquist-free takes its alpha = 0
    field from an unmasked transform. The first and last nodes are a halo,
    kept for |alpha| <= halo_order only (none with -1). With `columns` (the
    scatter of Grid.odd_columns, its sign over the real view and the
    Nyquist-free mask) block holds all planes of the half columns of odd
    data, and the later passes run on planes 0..n/2 (module docstring). With
    `parity` (the octant) block holds planes 0..support[axis] - 1 of every
    axis, and every pass folds its own axis: fold_extend of the planes the
    level above kept, by the data's parity there, the symbol on all n planes,
    one inverse pass, planes 0..n/2 kept. Its levels run from the last axis
    to the first, so each field is planes 0..n/2 of a buffer's first axis,
    contiguous node by node.
    """
    dim, n, rows = grid.dim, grid.n, block.shape[0]
    symbols = NormSuite.for_grid(grid).axis_symbols
    planes = n if columns is None and parity is None else n // 2 + 1
    if parity is None:
        levels = range(dim)
        widths = [n if s is None else len(s[0]) for s in support]
        # Level buffers, the scattered first level, then zero-padded ones, in one allocation:
        # separate ones freed together let glibc trim the thread's arena; the next task refaulted.
        shapes = [(rows, n if axis == 0 else planes) + (n,) * axis + tuple(widths[axis + 1:])
                  for axis in range(dim)]
        shapes += [(0,) if columns is None else (rows, planes) + tuple(widths[1:])] + [
            shape if s else (0,) for shape, s in zip(shapes, support)]
        shapes[0] = block.shape  # on odd data, the half columns
    else:  # each level's extended input, then its output
        levels = range(dim - 1, -1, -1)
        shapes = [(rows,) + tuple(planes if ax > axis else n if ax == axis else support[ax]
                                  for ax in range(dim)) for axis in levels]
        shapes += shapes
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    work = np.empty(ends[-1], complex)
    if parity is None:
        work[ends[dim]:] = 0  # fold_extend writes every plane of the octant's buffers
    level = [w.reshape(shape) for w, shape in zip(np.split(work, ends[:-1]), shapes)]
    pads, level = (None, level) if parity is None else (level[:dim], level[dim:])

    def first():
        if parity is None:
            return block
        return fold_extend(block, levels[0] + 1, parity[levels[0]], pads[0])

    def walk(alphas):
        # Depth first: a level's pass reruns when alpha's prefix up to it changes.
        inputs, prev = [first()] + [None] * (dim - 1), None
        for alpha in alphas:
            start = 0 if prev is None else next(i for i in range(dim) if alpha[i] != prev[i])
            prev = alpha
            for i in range(start, dim):
                axis, order, a = levels[i], sum(alpha[:i]), alpha[i]
                src = inputs[i][1:-1] if order <= halo_order < order + a else inputs[i]
                out = level[i][:len(src)]
                if a:  # on a column block the first-axis symbol spans one axis
                    sym = symbols[axis][a].reshape((-1,) + (1,) * (out.ndim - axis - 2))
                    np.multiply(src, sym, out=out)
                np.fft.ifftn(out if a else src, axes=(axis + 1,), out=out)
                if parity is not None:
                    out = out[(slice(None),) * (axis + 1) + (slice(planes),)]
                    if i + 1 < dim:
                        nxt = levels[i + 1]
                        inputs[i + 1] = fold_extend(out, nxt + 1, parity[nxt],
                                                    pads[i + 1][:len(out)])
                    continue
                if axis == 0 and columns is not None:
                    flat, out = out.reshape(len(out), -1), level[dim][:len(out)]
                    scattered = out.reshape(len(out), planes, -1)
                    np.take(flat, columns[0], axis=1, out=scattered, mode="clip")
                    if a % 2 == 0:
                        real = scattered.view(float)
                        real *= columns[1]
                if axis + 1 < dim:
                    if support[axis + 1]:
                        nxt, lead = level[dim + axis + 2][:len(out)], (slice(None),) * (axis + 2)
                        for whole, part in support[axis + 1][1]:
                            nxt[lead + (whole,)] = out[lead + (part,)]
                        out = nxt
                    inputs[axis + 1] = out
            yield alpha if parity is None else alpha[::-1], out

    if not nyquist_free:
        if not skip_zero and columns is None and parity is None:
            yield (0,) * dim, np.fft.ifftn(block, axes=grid.series_axes, out=level[dim - 1])
        elif not skip_zero:
            yield from walk([(0,) * dim])
        if parity is not None:
            block *= grid.keep_nyquist_free[(slice(planes),) * dim]
        else:
            block *= grid.keep_nyquist_free if columns is None else columns[2]
        skip_zero = True
    yield from walk(alpha for alpha in itertools.product(range(k + 1), repeat=dim)
                    if sum(alpha) <= k and not (skip_zero and not any(alpha)))


def _folds_evenly(mask: np.ndarray, grid: Grid, symmetry: Symmetry) -> bool:
    """Whether a mask is even under every reflection the layout folds by: the
    point reflection (half lattice) or each axis's (octant)."""
    if symmetry.parity is None:
        return not symmetry.odd or np.array_equal(grid.reflect(mask), mask)
    return all(np.array_equal(np.take(mask, (-np.arange(grid.n)) % grid.n, axis=axis), mask)
               for axis in range(grid.dim))


def _node_sums(data: np.ndarray, grid: Grid, k: int, chi: np.ndarray | None, n_sums: int,
               add, dt_order: int = -1, skip_zero: bool = False,
               symmetry: Symmetry = WHOLE) -> np.ndarray:
    """Per-node sums over the d^alpha fields, |alpha| <= k, of chi * data,
    as an (n_sums, m_t + 1) array.

    One task per chunk of time nodes runs on the shared pool, owning every
    buffer it writes, and calls add(out, alpha, node, diff) for each d^alpha
    (Nyquist rule of _derivative_tree) with out its zeroed (n_sums, nodes)
    slice. diff is None unless |alpha| <= dt_order, then node's centered
    difference from a periodic halo node either side, wrapping over the m_t
    periodic nodes (node m_t, a chunk of its own, gets m_t - 1 and 1). With
    chi None the data are used as given; `skip_zero` skips alpha = 0.

    data are held as `symmetry` says. Antiperiodic data hold nodes 0..m_t/2
    and get the sums of nodes 0..m_t from those of nodes 0..m_t/2 - 1 (module
    docstring). Half data (planes 0..n/2 of odd data) are gathered on the
    half columns, octant data on the planes of every axis where chi is
    nonzero; the fields cover the held planes, to be summed with
    NormSuite.flat(name, symmetry) (the folded paths of the module
    docstring); chi must then be even under the layout's reflections.
    """
    NormSuite.for_grid(grid)  # fill the per-grid cache before workers read it
    m_t, n = data.shape[0] - 1, grid.n  # m_t/2 if antiperiodic
    antiperiodic, parity = symmetry.antiperiodic, symmetry.parity
    odd = symmetry.odd and parity is None
    halo = dt_order >= 0
    mask = None if chi is None else chi * grid.keep_nyquist_free
    if mask is not None and not _folds_evenly(mask, grid, symmetry):
        raise ValueError("folded node sums need a mask that is even under the layout's "
                         "reflections")
    held, phys = symmetry.held(grid), symmetry.shape(grid)  # phys: a node's held planes
    columns = None
    if parity is not None:
        mask = None if mask is None else mask[held]
        support = [n // 2 + 1 if mask is None else  # planes 0..w-1 hold the mask
                   int(np.max(np.flatnonzero(np.moveaxis(mask != 0, axis, 0).reshape(
                       mask.shape[axis], -1).any(1)), initial=-1)) + 1 for axis in range(grid.dim)]
        cut = tuple(map(slice, support))
        mask, data = (None if mask is None else mask[cut]), data[(slice(None),) + cut]

        def gather(nodes):
            return np.take(data, nodes, axis=0)
    else:
        support = _axis_support(mask, grid)
        lines = [np.arange(n) if s is None else s[0] for s in support]
        cols = any(support) and lines
        mask = mask[np.ix_(*cols)] if cols else mask
        if odd:
            planes = n // 2 + 1
            half, _, (scatter, sign) = grid.odd_columns(lines[1:])
            flat = np.arange(n ** (grid.dim - 1)).reshape(grid.shape[1:])  # sources of c, mirror(c)
            sources = [flat[np.ix_(*c)].ravel()[half]
                       for c in (lines[1:], [-c % n for c in lines[1:]])]
            keep = (grid.keep_nyquist_free if mask is None else mask).reshape(n, -1)[:, half]
            mask = None if mask is None else keep
            columns = scatter, np.repeat(sign, 2, axis=1), keep
            j = np.arange(n)[:, None]  # plane j > n/2: minus plane n - j on the mirror columns
            index = np.where(j < planes, j * flat.size + sources[0],
                             (n - j) * flat.size + sources[1])

        def gather(nodes):
            if not odd:
                return data[np.ix_(nodes, *cols)] if cols else data[nodes]
            block = data.reshape(len(data), -1)[nodes[:, None, None], index]
            block[:, planes:] *= -1
            return block

    def task(rows):
        # an antiperiodic series' last row (node m_t/2) is a right halo, not wrapped
        nodes = (np.r_[(rows.start - 1) % m_t, rows, rows.stop % (m_t + antiperiodic)]
                 if halo else np.r_[rows])
        block = gather(nodes)
        if halo and antiperiodic and rows.start == 0:
            block[0] *= -1  # node -1 is minus node m_t/2 - 1
        if mask is not None:
            block *= mask
        out = np.zeros((n_sums, rows.stop - rows.start))
        diff = np.empty((out.shape[1],) + phys, complex) if halo else None
        for alpha, field in _derivative_tree(block, grid, k, mask is not None, skip_zero,
                                             support, dt_order, columns, parity):
            if sum(alpha) <= dt_order:
                add(out, alpha, field[1:-1], np.subtract(field[2:], field[:-2], out=diff))
            else:
                add(out, alpha, field, None)
        return out

    if antiperiodic:
        sums = np.concatenate(map_chunks(task, node_chunks(m_t)), axis=1)
        return sums[:, np.arange(2 * m_t + 1) % m_t]
    chunks = [*node_chunks(m_t), slice(m_t, m_t + 1)] if halo else node_chunks(m_t + 1)
    return np.concatenate(map_chunks(task, chunks), axis=1)


def weighted_hk_node_sq(data: np.ndarray, grid: Grid, k: int, chi: np.ndarray | None = None,
                        weight: str = "weight_sq", skip_zero: bool = False,
                        symmetry: Symmetry = WHOLE) -> np.ndarray:
    """Squared weighted H^j norms, j = 0..k (row j), of every field of
    frequency-stacked data held as `symmetry` says, projected by chi when
    given (without chi the Nyquist rule of _derivative_tree applies): the
    sums over |alpha| <= j of NormSuite.flat(weight, symmetry)-weighted
    |d^alpha f|^2. `skip_zero` leaves alpha = 0 out; antiperiodic data get
    their nodes as in _node_sums."""
    w = NormSuite.for_grid(grid).flat(weight, symmetry)

    def add(out, alpha, phys, diff):
        out[sum(alpha)] += _weighted_sq(phys, w)

    return np.cumsum(_node_sums(data, grid, k, chi, k + 1, add, skip_zero=skip_zero,
                                symmetry=symmetry), axis=0)


def x_gradient_node_sq(data: np.ndarray, grid: Grid) -> np.ndarray:
    """|| |x| |grad f| ||_{L2}^2 of every field f of frequency-stacked data."""
    return weighted_hk_node_sq(data, grid, 1, weight="x_abs_sq", skip_zero=True)[1]


def _x_norm(data: np.ndarray, grid: Grid, chi: np.ndarray | None, h: float,
            symmetry: Symmetry = WHOLE) -> float:
    w2, x2, quad = (NormSuite.for_grid(grid).flat(name, symmetry)
                    for name in ("weight_sq", "x_abs_sq", "quad"))

    def add(out, alpha, node, diff):
        if any(alpha):
            out[1] += _weighted_sq(node, x2) + _weighted_sq(diff, x2) / (4 * h * h)
        else:
            out[0] = _weighted_sq(node, quad) + _weighted_sq(diff, quad) / (4 * h * h)
            out[2] = _weighted_sq(diff, w2) / (4 * h * h)

    l2, xg, l2w_dt = _node_sums(data, grid, 1, chi, 3, add, dt_order=1, symmetry=symmetry)
    return float(sum(np.sqrt(np.trapezoid(v, dx=h)) for v in (l2, xg, l2w_dt)))


def _y_norm(data: np.ndarray, grid: Grid, chi: np.ndarray | None, h: float,
            symmetry: Symmetry = WHOLE) -> float:
    w2 = NormSuite.for_grid(grid).flat("weight_sq", symmetry)

    def add(out, alpha, node, diff):
        out[sum(alpha)] += _weighted_sq(node, w2)
        if diff is not None:  # |alpha| <= 1
            out[4] += _weighted_sq(diff, w2) / (4 * h * h)

    sums = _node_sums(data, grid, 3, chi, 5, add, dt_order=1, symmetry=symmetry)
    hk, h1_dt = np.cumsum(sums[:4], axis=0), sums[4]
    return float(np.sqrt(hk[2].max())
                 + np.sqrt(np.trapezoid(hk[3], dx=h))
                 + np.sqrt(np.trapezoid(hk[1] + h1_dt, dx=h)))


def spacetime_norm(series: FieldSeries, kind: str, cutoffs: CutoffSpec | None = None) -> float:
    """The X (low-frequency) or Y (high-frequency) space-time norm.

    When cutoffs are given the matching projection is applied first; pass
    None for a series that is already supported in the right band. The sums
    run on the planes and nodes the series holds (FieldSeries.symmetry; see
    _node_sums).
    """
    if len(series) < 3:
        raise ValueError("space-time norms need at least 3 time nodes")
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y'; got {kind!r}")
    chi = None if cutoffs is None else (cutoffs.chi1 if kind == "X" else cutoffs.chi_inf)
    norm = _x_norm if kind == "X" else _y_norm
    return norm(series.data, series.grid, chi, series.dt, series.symmetry)


def z_norm(series: FieldSeries, cutoffs: CutoffSpec) -> float:
    """X(P_low u) + Y(P_high u): the norm in which the iteration contracts
    (on the layout the series holds, as in spacetime_norm)."""
    return sum(spacetime_norm(series, kind, cutoffs) for kind in "XY")


def forcing_bracket(g: FieldSeries) -> float:
    """[g] = ||g||_{L2(0,T;L1_w)} + ||g||_{L2(0,T;H1_w)}.

    g is frequency data in any layout (the solve passes g's odd part in the
    layout it holds); L1_w is read by l1w_node, H1_w by weighted_hk_node_sq,
    both on the held planes and nodes (see _node_sums).
    """
    if len(g) < 3:
        raise ValueError("the forcing functional needs at least 3 time nodes")
    l1w = l1w_node(g.data, g.grid, g.symmetry)
    h1w_sq = weighted_hk_node_sq(g.data, g.grid, 1, symmetry=g.symmetry)[1]
    return float(np.sqrt(np.trapezoid(l1w ** 2, dx=g.dt))
                 + np.sqrt(np.trapezoid(h1w_sq, dx=g.dt)))
