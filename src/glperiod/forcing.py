"""Admissible forcings (time-periodic, odd, localized) and initial
perturbations (odd, localized).

The canonical forcing family is a Gaussian dipole times a sinusoid,

    g(x, t) = eps * a(t) * G(x) / max|G|,   G(x) = x_axis * exp(-|x|^2/(2 sigma^2)),

which is exactly T-periodic on the sampled time grid. Profiles are
normalized to unit peak modulus so the amplitude knob is the peak field
value and the forcing size functional scales linearly in eps.

Realization checks G once: it must decay at the seam (check_seam_decay) and
be odd by the rule the solve applies, Grid.is_odd on its transform G_hat.
The forcing is held as its factors (SeparableForcing: a(t_m), eps and
G_hat, never a series); its frequency_rows builds eps * a(t_m) * G_hat for
the nodes a reader asks for, frequency data odd at every node.
A perturbation's dipole is checked the same way. On the lattice a dipole is
odd only as far as it vanishes at the seam: on the reference and test grids
the default widths L/16 and L/19 pass, while L/13 to L/15 pass the seam
check but not Grid.is_odd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeamDecayViolation
from .spectral import Grid, Series, SpectralField

SEAM_DECAY_TOL = 1e-8

TEMPORAL_PROFILES = ("sin_fundamental", "cos_fundamental", "harmonic")


@dataclass
class ForcingSpec:
    """Separable forcing eps * a(t) * G(x) with a(t+T) = a(t) and G odd: the
    Gaussian dipole, or custom_profile when given."""

    amplitude: float
    period: float
    temporal_profile: str = "sin_fundamental"
    harmonic: int = 1
    sigma: float | None = None  # defaults to L/16 at realization time
    axis: int = 0
    custom_profile: SpectralField | None = None  # frequency data of G; None: the dipole

    def __post_init__(self):
        if not 0 <= self.amplitude < np.inf:
            raise ValueError(f"amplitude must be finite and nonnegative; got {self.amplitude}")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if self.temporal_profile not in TEMPORAL_PROFILES:
            raise ValueError(f"unknown temporal profile {self.temporal_profile!r}")
        if self.harmonic < 1:
            raise ValueError("harmonic index must be >= 1")


@dataclass
class PerturbationSpec:
    """Initial perturbation w0 = amplitude * P(x) / max|P| with P odd: the
    stability run steps odd perturbations only."""

    amplitude: float
    sigma: float | None = None
    axis: int = 0

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite; got {self.amplitude}")


def gauss_dipole(grid: Grid, sigma: float, axis: int = 0) -> np.ndarray:
    """x_axis * exp(-|x|^2 / (2 sigma^2)) on the lattice (not normalized)."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return grid.x[axis] * np.exp(-grid.x_abs ** 2 / (2.0 * sigma ** 2))


def check_seam_decay(profile: np.ndarray, grid: Grid) -> float:
    """Max profile modulus on the box boundary relative to the global max."""
    peak = np.abs(profile).max()
    if peak == 0.0:
        return 0.0
    seam = max(np.abs(np.take(profile, 0, axis=axis)).max() for axis in range(grid.dim))
    ratio = float(seam / peak)
    if ratio > SEAM_DECAY_TOL:
        raise SeamDecayViolation(
            f"profile modulus at the box boundary is {ratio:.3e} of its max "
            f"(tolerance {SEAM_DECAY_TOL:.0e}); the profile does not decay at the seam")
    return ratio


def temporal_values(spec: ForcingSpec, m_t: int) -> np.ndarray:
    """a(t_m) at the m_t + 1 uniform nodes, sin or cos of the phase
    2 pi k m / m_t (k = harmonic for "harmonic", else 1); exactly periodic by
    evaluating the phase at m mod m_t."""
    k = spec.harmonic if spec.temporal_profile == "harmonic" else 1
    phase = 2.0 * np.pi * k * (np.arange(m_t + 1) % m_t) / m_t
    return np.cos(phase) if spec.temporal_profile == "cos_fundamental" else np.sin(phase)


def spatial_profile(spec: ForcingSpec, grid: Grid) -> np.ndarray:
    """The spatial factor as frequency data, normalized to unit peak modulus
    in physical space, verified odd and seam-decaying."""
    if spec.custom_profile is not None:
        if spec.custom_profile.grid.shape != grid.shape:
            raise ValueError("custom profile grid does not match")
        profile_hat = spec.custom_profile.data
        profile = np.fft.ifftn(profile_hat)
    else:
        sigma = spec.sigma if spec.sigma is not None else grid.box_length / 16.0
        profile = gauss_dipole(grid, sigma, spec.axis).astype(complex)
        profile_hat = np.fft.fftn(profile)
    check_seam_decay(profile, grid)
    grid.require_odd(profile_hat[None], "forcing profile")
    peak = np.abs(profile).max()
    return profile_hat / peak if peak > 0 else profile_hat


@dataclass
class SeparableForcing(Series):
    """A realized forcing as its factors: g(t_m) = amplitude * values[m] *
    profile on the m_t + 1 nodes of one period, with profile the frequency
    data of G, built and checked at every amplitude. It holds one field and
    m_t + 1 numbers; frequency_rows builds the requested nodes."""

    grid: Grid
    period: float
    values: np.ndarray
    amplitude: float
    profile: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def frequency_rows(self, rows: slice) -> np.ndarray:
        """amplitude * a(t_m) * G_hat for the nodes m of `rows` (signed zeros for
        amplitude 0), in the order of operations the whole series had."""
        a = self.values[rows]
        return self.amplitude * a[(slice(None),) + (None,) * self.grid.dim] * self.profile


def realize_forcing(spec: ForcingSpec, grid: Grid, m_t: int) -> SeparableForcing:
    """Sample the forcing on the (m_t + 1)-node period grid.

    The result is frequency data, exactly periodic in time, and odd at every
    node. spatial_profile builds and checks G at every amplitude, 0 included
    (ValueError, SeamDecayViolation or OddnessViolation otherwise).
    """
    if m_t < 2:
        raise ValueError("m_t must be at least 2")
    return SeparableForcing(grid, spec.period, temporal_values(spec, m_t), spec.amplitude,
                            spatial_profile(spec, grid))


def realize_perturbation(spec: PerturbationSpec, grid: Grid) -> SpectralField:
    """Initial perturbation field (frequency data); unit peak modulus in
    physical space scaled by the amplitude, verified seam-decaying and odd
    (OddnessViolation otherwise).

    The default width L/19 puts the measured decay slopes of a dipole
    perturbation mid-band inside the box-truncation validity window at the
    reference resolution (L=64, n=32).
    """
    sigma = spec.sigma if spec.sigma is not None else grid.box_length / 19.0
    profile = gauss_dipole(grid, sigma, spec.axis).astype(complex)
    check_seam_decay(profile, grid)
    peak = np.abs(profile).max()
    if peak > 0:
        profile = profile / peak
    w0 = SpectralField(grid, np.fft.fftn(spec.amplitude * profile))
    grid.require_odd(w0.data[None], "perturbation profile")
    return w0
