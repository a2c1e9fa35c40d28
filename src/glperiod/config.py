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
from .forcing import ForcingSpec, PerturbationSpec, SeparableForcing, realize_forcing
from .operators import CutoffSpec, LinearOperatorSpec, auto_cutoffs, make_cutoffs, make_operator
from .periodic_solver import SolveOptions
from .spectral import Grid, GridConfig, make_grid

M_T_MIN = 8  # time nodes per period of any solve


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


def integer(value, key: str, low: int | None = None) -> int:
    """A JSON integer (or an integral float) as an int, at least `low` if
    given; ConfigError naming `key` for anything else, a boolean included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ConfigError(f"invalid {key}: {json.dumps(value)} is not an integer")
    if low is not None and value < low:
        raise ConfigError(f"{key} must be >= {low}; got {int(value)}")
    return int(value)


def number(value, key: str) -> float:
    """A finite JSON number as a float; ConfigError naming `key` for anything
    else: a string, a boolean, null, a list, an infinity or NaN."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"invalid {key}: {json.dumps(value)} is not a number")
    return float(value)


def boolean(value, key: str) -> bool:
    """JSON true or false; ConfigError naming `key` for anything else."""
    if not isinstance(value, bool):
        raise ConfigError(f"invalid {key}: {json.dumps(value)} is not true or false")
    return value


def grid_config(cfg: dict, keys: dict | None = None) -> GridConfig:
    """The grid block; a bad value names grid.<field>, or keys[field] if copied there."""
    g, key = cfg["grid"], lambda field: (keys or {}).get(field, f"grid.{field}")
    dim, n = integer(g["dim"], key("dim")), integer(g["n_per_axis"], key("n_per_axis"))
    box_length = number(g["box_length"], key("box_length"))
    dealias_fraction = number(g["dealias_fraction"], key("dealias_fraction"))
    try:
        return GridConfig(dim=dim, n_per_axis=n, box_length=box_length,
                          dealias_fraction=dealias_fraction)
    except (TypeError, ValueError) as exc:
        field, rule = str(exc).split(" ", 1)  # GridConfig names the field first
        raise ConfigError(f"invalid grid config: {key(field)} {rule}")


def build_grid(cfg: dict) -> Grid:
    config = grid_config(cfg)
    try:
        return make_grid(config)
    except MemoryError:
        raise ConfigError(f"invalid grid.n_per_axis: a lattice of {config.n_per_axis}^"
                          f"{config.dim} points cannot be allocated")


def _period(cfg: dict) -> float:
    period = number(cfg["period"], "period")
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
            cutoffs = make_cutoffs(number(spec["r1"], "cutoffs.r1"),
                                   number(spec["r_inf"], "cutoffs.r_inf"), grid)
        else:
            raise ConfigError(f"cutoffs must be 'auto' or an object; got {spec!r}")
        cutoffs.validate(grid, period)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid cutoffs: {exc}")
    return cutoffs


def forcing_spec(cfg: dict, keys: dict | None = None) -> ForcingSpec:
    """The forcing block; a bad value names forcing.<field>, or keys[field] if
    copied there (ForcingSpec names the field first)."""
    f, key = cfg["forcing"], lambda field: (keys or {}).get(field, f"forcing.{field}")
    harmonic, axis = integer(f["harmonic"], key("harmonic")), integer(f["axis"], key("axis"))
    amplitude, period = number(f["amplitude"], key("amplitude")), number(cfg["period"], "period")
    sigma = None if f["sigma"] is None else number(f["sigma"], key("sigma"))
    try:
        return ForcingSpec(amplitude=amplitude, period=period,
                           temporal_profile=f["temporal_profile"], harmonic=harmonic,
                           axis=axis, sigma=sigma)
    except (TypeError, ValueError) as exc:
        field, rule = str(exc).split(" ", 1)
        raise ConfigError(f"invalid forcing config: {keys[field]} {rule}" if field in (keys or {})
                          else f"invalid forcing config: {exc}")


def build_forcing(cfg: dict) -> SeparableForcing:
    """The forcing on solve.m_t + 1 nodes of one period, the solve's time
    grid, on the config's grid, built after every key is read. A forcing
    that cannot be realized (a bad value, a profile that does not decay at
    the seam or is not odd) is a config error."""
    m_t = integer(cfg["solve"]["m_t"], "solve.m_t", M_T_MIN)
    spec = forcing_spec(cfg)
    try:
        return realize_forcing(spec, build_grid(cfg), m_t)
    except (ValueError, SeamDecayViolation, OddnessViolation) as exc:
        raise ConfigError(f"invalid forcing config: {exc}")


def build_solve_options(cfg: dict) -> SolveOptions:
    s = cfg["solve"]
    max_iterations = integer(s["max_iterations"], "solve.max_iterations")
    nonlinear = boolean(s["nonlinearity_enabled"], "solve.nonlinearity_enabled")
    z_tolerance = number(s["z_tolerance"], "solve.z_tolerance")
    try:
        return SolveOptions(max_iterations=max_iterations, z_tolerance=z_tolerance,
                            nonlinearity_enabled=nonlinear)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solve config: {exc}")


def build_perturbation_spec(cfg: dict) -> PerturbationSpec:
    s = cfg["stability"]
    axis = integer(s["axis"], "stability.axis")
    amplitude = number(s["amplitude"], "stability.amplitude")
    sigma = None if s["sigma"] is None else number(s["sigma"], "stability.sigma")
    try:
        return PerturbationSpec(amplitude=amplitude, sigma=sigma, axis=axis)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid stability config: {exc}")


def build_stability_settings(cfg: dict) -> dict:
    """t_max, record_stride, order and linear_only of the stability block,
    checked against the config period before any base is solved or loaded."""
    s = cfg["stability"]
    settings = {"record_stride": integer(s["record_stride"], "stability.record_stride", 1),
                "order": integer(s["order"], "stability.order"),
                "linear_only": boolean(s["linear_only"], "stability.linear_only"),
                "t_max": number(s["t_max"], "stability.t_max")}
    min_t = 10.0 * _period(cfg)
    if not min_t <= settings["t_max"] < math.inf:
        raise ConfigError(f"stability.t_max must be finite and cover at least 10 "
                          f"periods ({min_t:g}); got {settings['t_max']:g}")
    if settings["order"] not in (1, 2):
        raise ConfigError(f"stability.order must be 1 or 2; got {settings['order']}")
    return settings
