"""Fourier-multiplier symbols of the dissipative linear part.

Three multiplier families act mode-wise on the frequency lattice. This
module tabulates them; the series kernels multiply frequency-stacked arrays
by them:

* smooth low/high projections P_low, P_high built from a partition of unity
  chi_low + chi_high = 1 (CutoffSpec),
* the semigroup exp(-t*A) with A = -(1+i)*Laplacian, symbol
  exp(-t*(1+i)*|xi|^2) (LinearOperatorSpec.symbol),
* the inverse period multiplier (1 - exp(-T*A))^{-1}, singular only at xi = 0,
  where the table holds 0: it is applied to mean-free data only, as the odd
  part of an odd forcing is (periodic_solver).

Every application zeroes the Nyquist rows (the k = -n/2 mode has no
conjugate partner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid


@dataclass
class CutoffSpec:
    """Tabulated smooth frequency cutoffs on a grid's lattice.

    chi1 equals 1 for |xi| <= r1, 0 for |xi| >= r_inf, and chi_inf is the
    exact floating-point complement 1 - chi1.
    """

    r1: float
    r_inf: float
    chi1: np.ndarray
    chi_inf: np.ndarray

    def validate(self, grid: Grid, period: float | None = None) -> None:
        if not 0.0 < self.r1 < self.r_inf:
            raise ValueError(f"need 0 < r1 < r_inf; got r1={self.r1}, r_inf={self.r_inf}")
        if self.chi1.shape != grid.shape:
            raise ValueError("cutoff table shape does not match the grid")
        if np.any(self.chi1 < 0) or np.any(self.chi1 > 1):
            raise ValueError("chi1 must lie in [0, 1]")
        if np.any(self.chi_inf != 1.0 - self.chi1):
            raise ValueError("chi_inf must equal 1 - chi1 exactly")
        inside = grid.xi_abs <= self.r1
        outside = grid.xi_abs >= self.r_inf
        if np.any(self.chi1[inside] != 1.0) or np.any(self.chi1[outside] != 0.0):
            raise ValueError("chi1 plateau values are wrong")
        if period is not None and period * self.r_inf ** 2 > 1.0 + 1e-12:
            raise ValueError(
                f"period * r_inf^2 = {period * self.r_inf ** 2:.6g} exceeds 1; "
                "the inverse period multiplier is only certified for T*r_inf^2 <= 1")


def smooth_step(s):
    """C-infinity monotone profile psi: 1 for s <= 0, 0 for s >= 1, exactly
    1/2 at s = 1/2 by symmetry.

    Built from E(s) = exp(-1/s) (s > 0, else 0) as E(1-s) / (E(s) + E(1-s)).
    """
    s = np.asarray(s, dtype=float)

    def _bump(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    num = _bump(1.0 - s)
    return num / (_bump(s) + num)  # max(s, 1-s) >= 1/2, so the sum is >= e^-2


def make_cutoffs(r1: float, r_inf: float, grid: Grid) -> CutoffSpec:
    """Tabulate chi1(xi) = psi((|xi| - r1)/(r_inf - r1)), which falls smoothly
    from 1 to 0 across the transition band, and its exact complement."""
    if not r1 > 0 or not r1 < r_inf:
        raise ValueError(f"need 0 < r1 < r_inf; got r1={r1}, r_inf={r_inf}")
    s = (grid.xi_abs - r1) / (r_inf - r1)
    chi1 = smooth_step(s)
    chi1[grid.xi_abs <= r1] = 1.0
    chi1[grid.xi_abs >= r_inf] = 0.0
    spec = CutoffSpec(r1=r1, r_inf=r_inf, chi1=chi1, chi_inf=1.0 - chi1)
    spec.validate(grid)
    return spec


def auto_cutoffs(grid: Grid, period: float) -> CutoffSpec:
    """Default cutoffs: r_inf = min(1/sqrt(T), n*pi/(2L)) so that
    T*r_inf^2 <= 1 and the high band keeps real lattice support; r1 = r_inf/2."""
    if not period > 0:
        raise ValueError("period must be positive")
    n, L = grid.n, grid.box_length
    r_inf = min(1.0 / np.sqrt(period), n * np.pi / (2.0 * L))
    return make_cutoffs(r_inf / 2.0, r_inf, grid)


@dataclass(frozen=True)
class LinearOperatorSpec:
    """The diagonal symbol lambda(xi) = (1+i)|xi|^2 of A = -(1+i)*Laplacian,
    tabulated on a grid, together with the period T."""

    grid: Grid
    period: float
    symbol: np.ndarray

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")


def make_operator(grid: Grid, period: float) -> LinearOperatorSpec:
    return LinearOperatorSpec(grid=grid, period=period,
                              symbol=(1.0 + 1.0j) * grid.xi_sq)


def period_inverse_symbol(op: LinearOperatorSpec) -> np.ndarray:
    """(1 - exp(-T*lambda))^{-1} with the xi = 0 entry forced to 0."""
    grid = op.grid
    denom = 1.0 - np.exp(-op.period * op.symbol)
    safe = np.where(grid.xi_sq > 0, denom, 1.0)
    inv = np.where(grid.xi_sq > 0, 1.0 / safe, 0.0)
    return inv
