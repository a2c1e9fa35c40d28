"""Run configuration: a single JSON key/value tree.

The reference configuration, reference.json beside this module, doubles as
schema documentation; every field has a default, so a config file only needs
the keys it overrides. "cutoffs" is "auto" or an object
{"r1": ..., "r_inf": ...}; a null forcing.sigma means L/16 (a null
stability.sigma, L/19).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .errors import ConfigError, OddnessViolation, SeamDecayViolation
from .forcing import ForcingSpec, PerturbationSpec, realize_forcing
from .operators import CutoffSpec, LinearOperatorSpec, auto_cutoffs, make_cutoffs, make_operator
from .periodic_solver import SolveOptions
from .spectral import FieldSeries, Grid, GridConfig, make_grid


def reference_config() -> dict:
    """The pinned desk-scale experiment (dim 3, n=32, L=64, T=1, eps=1e-2)."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object; "
                                  f"got {value!r}")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Read a JSON config file and merge it over the reference defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(reference_config(), raw)


def grid_config(cfg: dict) -> GridConfig:
    g = cfg["grid"]
    try:
        return GridConfig(dim=int(g["dim"]), n_per_axis=int(g["n_per_axis"]),
                          box_length=float(g["box_length"]),
                          dealias_fraction=float(g["dealias_fraction"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid config: {exc}")


def build_grid(cfg: dict) -> Grid:
    return make_grid(grid_config(cfg))


def _period(cfg: dict) -> float:
    try:
        period = float(cfg["period"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid period: {exc}")
    if not period > 0:
        raise ConfigError(f"period must be positive; got {period}")
    return period


def build_operator(grid: Grid, cfg: dict) -> LinearOperatorSpec:
    return make_operator(grid, _period(cfg))


def build_cutoffs(grid: Grid, cfg: dict) -> CutoffSpec:
    period = _period(cfg)
    spec = cfg["cutoffs"]
    try:
        if spec == "auto":
            cutoffs = auto_cutoffs(grid, period)
        elif isinstance(spec, dict):
            cutoffs = make_cutoffs(float(spec["r1"]), float(spec["r_inf"]), grid)
        else:
            raise ConfigError(f"cutoffs must be 'auto' or an object; got {spec!r}")
        cutoffs.validate(grid, period)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid cutoffs: {exc}")
    return cutoffs


def build_forcing(cfg: dict, grid: Grid) -> FieldSeries:
    """The forcing on solve.m_t + 1 nodes of one period: the solve's time grid.
    A forcing that cannot be realized (a bad value, a profile that does not
    decay at the seam or is not odd) is a config error."""
    f = cfg["forcing"]
    if f["spatial_profile"] == "custom":
        raise ConfigError("forcing.spatial_profile 'custom' needs a profile field, "
                          "which only the Python API (ForcingSpec.custom_profile) "
                          "can supply")
    try:
        m_t = int(cfg["solve"]["m_t"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solve.m_t: {exc}")
    if m_t < 8:
        raise ConfigError(f"solve.m_t must be >= 8; got {m_t}")
    try:
        spec = ForcingSpec(amplitude=float(f["amplitude"]), period=float(cfg["period"]),
                           temporal_profile=f["temporal_profile"],
                           harmonic=int(f["harmonic"]),
                           spatial_profile=f["spatial_profile"],
                           sigma=None if f["sigma"] is None else float(f["sigma"]),
                           axis=int(f["axis"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid forcing config: {exc}")
    try:
        return realize_forcing(spec, grid, m_t)
    except (ValueError, SeamDecayViolation, OddnessViolation) as exc:
        raise ConfigError(f"invalid forcing config: {exc}")


def build_solve_options(cfg: dict) -> SolveOptions:
    s = cfg["solve"]
    try:
        return SolveOptions(max_iterations=int(s["max_iterations"]),
                            z_tolerance=float(s["z_tolerance"]),
                            nonlinearity_enabled=bool(s["nonlinearity_enabled"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solve config: {exc}")


def build_perturbation_spec(cfg: dict) -> PerturbationSpec:
    s = cfg["stability"]
    try:
        return PerturbationSpec(amplitude=float(s["amplitude"]), profile=s["profile"],
                                sigma=None if s["sigma"] is None else float(s["sigma"]),
                                axis=int(s["axis"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid stability config: {exc}")


def build_stability_settings(cfg: dict) -> dict:
    """t_max, record_stride, order and linear_only of the stability block,
    checked against the config period before any base is solved or loaded."""
    s = cfg["stability"]
    try:
        settings = {"t_max": float(s["t_max"]), "record_stride": int(s["record_stride"]),
                    "order": int(s["order"]), "linear_only": bool(s["linear_only"])}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid stability config: {exc}")
    min_t = 10.0 * _period(cfg)
    if not min_t <= settings["t_max"] < math.inf:
        raise ConfigError(f"stability.t_max must be finite and cover at least 10 "
                          f"periods ({min_t:g}); got {settings['t_max']:g}")
    if settings["record_stride"] < 1:
        raise ConfigError(f"stability.record_stride must be >= 1; "
                          f"got {settings['record_stride']}")
    if settings["order"] not in (1, 2):
        raise ConfigError(f"stability.order must be 1 or 2; got {settings['order']}")
    return settings
