"""Command line interface.

Exit codes: 0 success, 1 verification batteries failed, 2 config error,
3 numeric divergence or missing/diverged base run. GLPERIOD_THREADS caps the
sweep worker pool.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, GLPeriodError, NonFiniteField, SeamDecayViolation
from .forcing import realize_forcing, realize_perturbation
from .manifest import RunManifest, atomic_write_text, load_manifest, verify_manifest
from .periodic_solver import equation_residual, solve_periodic
from .spectral import FieldSeries, Grid, read_snapshot, write_snapshot
from .stability import StabilityRunConfig, run_stability
from .verification import reports_to_json, run_all_checks

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _print_headline(title: str, rows: dict) -> None:
    print(title)
    width = max(len(k) for k in rows) if rows else 0
    for key, value in rows.items():
        if isinstance(value, float):
            print(f"  {key:<{width}}  {value:.6g}")
        else:
            print(f"  {key:<{width}}  {value}")


def _out_dir(cfg: dict, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_solve(cfg: dict):
    grid = cfgmod.build_grid(cfg)
    op = cfgmod.build_operator(grid, cfg)
    cutoffs = cfgmod.build_cutoffs(grid, cfg)
    opts = cfgmod.build_solve_options(cfg)
    g = realize_forcing(cfgmod.build_forcing_spec(cfg), grid, opts.m_t)
    u, report = solve_periodic(g, op, cutoffs, opts)
    return grid, op, cutoffs, g, u, report


def cmd_solve_periodic(cfg: dict, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    manifest = RunManifest(config=cfg)
    status = EXIT_OK
    try:
        grid, op, cutoffs, g, u, report = _run_solve(cfg)
    except NonFiniteField as exc:
        manifest.headline = {"error": str(exc)}
        manifest.finish()
        manifest.write(out / "manifest.json")
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    resid = equation_residual(u, g, op)
    report_path = out / "report.json"
    atomic_write_text(report_path, report.to_json())
    manifest.add_artifact(report_path, out)

    if cfg["output"]["save_fields"]:
        for m in range(len(u)):
            snap = out / f"field_{m:04d}.glpf"
            write_snapshot(u.field(m), snap)
            manifest.add_artifact(snap, out)

    manifest.headline = {
        "converged": report.converged,
        "iterations": report.iterations,
        "periodicity_residual": report.periodicity_residual,
        "equation_residual": resid,
        "z_norm": report.z_norm,
        "g_bracket": report.g_bracket,
        "c_estimate": report.c_estimate,
        "contraction_factor": report.contraction_factor,
        "contraction_factor_reason": report.contraction_factor_reason,
    }
    manifest.finish()
    manifest.write(out / "manifest.json")

    _print_headline("periodic solve", manifest.headline)
    if not report.converged:
        print("solver did not converge"
              + (f": {report.divergence_reason}" if report.divergence_reason else ""),
              file=sys.stderr)
        status = EXIT_DIVERGED
    return status


def _load_base_series(manifest_path: str, grid: Grid, period: float) -> FieldSeries:
    """The saved periodic solution of a solve-periodic run, read onto the
    config's grid. The manifest's hashes, grid and period are checked first;
    any mismatch is a config error."""
    base = Path(manifest_path)
    if not base.exists():
        raise ConfigError(f"base manifest not found: {manifest_path}")
    try:
        problems = verify_manifest(base)
        man = load_manifest(base)
        base_grid = cfgmod.grid_config(man["config"])
        base_period = float(man["config"]["period"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"base manifest {manifest_path} is unreadable: {exc}")
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ConfigError(f"base manifest failed verification: {problems[0]}{more}")
    if base_grid != grid.config:
        raise ConfigError(f"base grid {base_grid} differs from the config grid {grid.config}")
    if base_period != period:
        raise ConfigError(f"base period {base_period:g} differs from the config "
                          f"period {period:g}")
    if not man.get("headline", {}).get("converged", False):
        raise GLPeriodError("base run did not converge; refusing to run stability about it")
    snaps = sorted(e["path"] for e in man.get("artifacts", [])
                   if e["path"].endswith(".glpf"))
    if not snaps:
        raise GLPeriodError(
            "base manifest indexes no field snapshots (run solve-periodic with "
            "output.save_fields = true)")
    data = np.empty((len(snaps),) + grid.shape, dtype=complex)
    try:
        for m, name in enumerate(snaps):
            field = read_snapshot(base.parent / name, grid)
            data[m] = field.data
    except ValueError as exc:
        raise ConfigError(f"base snapshot rejected: {exc}")
    return FieldSeries(grid, field.representation, data, period)


def cmd_stability(cfg: dict, base: str | None = None,
                  out_override: str | None = None) -> int:
    # the whole stability block is checked before a base is solved or loaded
    settings = cfgmod.build_stability_settings(cfg)
    grid = cfgmod.build_grid(cfg)
    try:
        w0 = realize_perturbation(cfgmod.build_perturbation_spec(cfg), grid)
    except (ValueError, SeamDecayViolation) as exc:
        raise ConfigError(f"invalid stability perturbation: {exc}")
    out = _out_dir(cfg, out_override)
    manifest = RunManifest(config=cfg)
    if base is not None:
        op = cfgmod.build_operator(grid, cfg)
        cutoffs = cfgmod.build_cutoffs(grid, cfg)
        v_per = _load_base_series(base, grid, op.period)
    else:
        try:
            grid, op, cutoffs, _g, v_per, report = _run_solve(cfg)
        except NonFiniteField as exc:
            print(f"inline base solve diverged: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        if not report.converged:
            print("inline base solve did not converge", file=sys.stderr)
            return EXIT_DIVERGED

    decay = run_stability(StabilityRunConfig(v_per=v_per, w0=w0, **settings), op, cutoffs)

    csv_path = out / "decay.csv"
    decay.write_csv(csv_path)
    manifest.add_artifact(csv_path, out)
    json_path = out / "decay.json"
    atomic_write_text(json_path, decay.to_json())
    manifest.add_artifact(json_path, out)

    # the timing stays out of decay.json, a hashed artifact, so a rerun
    # writes the same bytes; bench/run.py skips runtime_s when it compares runs
    manifest.headline = {**decay.summary_dict(), "step_loop": {"runtime_s": decay.step_s}}
    manifest.finish()
    manifest.write(out / "manifest.json")

    _print_headline("stability run", {
        "slope_l0": decay.fitted_slope_l0,
        "slope_l1": decay.fitted_slope_l1,
        "fit_window": f"[{decay.fit_window[0]:g}, {decay.fit_window[1]:g}]",
        "escaped": decay.escaped,
    })
    if decay.escaped:
        print(f"warning: perturbation escaped at t = {decay.escape_time:.4g} "
              "(finding, not a failure)", file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: dict, seed: int | None = None,
               out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    v = cfg["verify"]
    root_seed = int(seed if seed is not None else cfg["seed"])

    # Reduced-size config for the battery grid and the trajectory checks.
    small = copy.deepcopy(cfg)
    small["grid"].update(v["grid"])
    try:
        small["solve"]["m_t"] = int(v["m_t"])
        small["forcing"]["amplitude"] = float(v["solve_amplitude"])
        samples = int(v["samples"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid verify config: {exc}")
    grid = cfgmod.build_grid(small)
    op = cfgmod.build_operator(grid, small)
    cutoffs = cfgmod.build_cutoffs(grid, small)
    opts = cfgmod.build_solve_options(small)
    try:
        g = realize_forcing(cfgmod.build_forcing_spec(small), grid, opts.m_t)
    except GLPeriodError as exc:
        raise ConfigError(f"verification battery construction failed: {exc}")

    u, report = solve_periodic(g, op, cutoffs, opts)
    if not report.converged:
        print("verification base solve did not converge", file=sys.stderr)
        return EXIT_DIVERGED

    reports = run_all_checks(grid, op, cutoffs, samples=samples,
                             seed=root_seed, u_series=u, g_series=g)
    checks_path = out / "checks.json"
    atomic_write_text(checks_path, reports_to_json(reports))

    all_passed = all(r.passed for r in reports)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        print(f"  [{verdict}] {r.check_name}: fitted constant {r.fitted_constant:.6g} "
              f"({r.samples} samples)")
    print(f"verification {'passed' if all_passed else 'FAILED'}; report at {checks_path}")
    return EXIT_OK if all_passed else EXIT_CHECKS_FAILED


def _sweep_value_config(cfg: dict, axis: str, value) -> dict:
    row = copy.deepcopy(cfg)
    if axis == "epsilon":
        row["forcing"]["amplitude"] = float(value)
    elif axis == "m_t":
        row["solve"]["m_t"] = int(value)
    elif axis == "n":
        row["grid"]["n_per_axis"] = int(value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return row


def _sweep_row(row_cfg: dict, value) -> dict:
    started = time.perf_counter()
    row = {"value": value, "c_estimate": "", "contraction_factor": "",
           "periodicity_residual": "", "runtime_s": "", "error": ""}
    try:
        _grid, op, _cutoffs, g, u, report = _run_solve(row_cfg)
        row["c_estimate"] = report.c_estimate if report.c_estimate is not None else ""
        row["contraction_factor"] = (report.contraction_factor
                                     if report.contraction_factor is not None else "")
        row["periodicity_residual"] = report.periodicity_residual
        if not report.converged:
            row["error"] = "not converged"
    except GLPeriodError as exc:
        row["error"] = str(exc)
    row["runtime_s"] = time.perf_counter() - started
    return row


def cmd_sweep(cfg: dict, axis: str, out_override: str | None = None) -> int:
    values = cfg["sweep"].get(axis)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep axis {axis!r} needs a non-empty list of values "
                          f"in the config; got {values!r}")
    try:
        row_cfgs = [_sweep_value_config(cfg, axis, v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep.{axis} value: {exc}")
    threads = os.environ.get("GLPERIOD_THREADS", "0")
    if not threads.strip().isdecimal():
        raise ConfigError(f"GLPERIOD_THREADS must be a non-negative integer; got {threads!r}")
    out = _out_dir(cfg, out_override)
    max_workers = int(threads) or min(4, len(values))
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
        rows = list(pool.map(_sweep_row, row_cfgs, values))

    csv_path = out / f"sweep_{axis}.csv"
    tmp = csv_path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    os.replace(tmp, csv_path)

    print(f"{axis:>12}  {'c_estimate':>12}  {'contraction':>12}  "
          f"{'periodicity':>12}  {'runtime_s':>10}  error")
    for row in rows:
        def _fmt(x):
            return f"{x:.4g}" if isinstance(x, float) else str(x)
        print(f"{_fmt(row['value']):>12}  {_fmt(row['c_estimate']):>12}  "
              f"{_fmt(row['contraction_factor']):>12}  "
              f"{_fmt(row['periodicity_residual']):>12}  "
              f"{_fmt(row['runtime_s']):>10}  {row['error']}")
    ok_rows = sum(1 for r in rows if not r["error"])
    return EXIT_OK if ok_rows >= 1 else EXIT_DIVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glperiod",
        description="Periodic-response solver and stability harness for the "
                    "forced cubic Ginzburg-Landau equation on a periodic box")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve-periodic", help="compute the periodic solution")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_stab = sub.add_parser("stability", help="integrate a perturbation and fit decay")
    p_stab.add_argument("--config", required=True)
    p_stab.add_argument("--base", default=None,
                        help="manifest of a saved periodic run (else solve inline)")
    p_stab.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the operator check batteries")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="independent runs along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["epsilon", "m_t", "n"])
    p_sweep.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        if args.command == "solve-periodic":
            return cmd_solve_periodic(cfg, args.out)
        if args.command == "stability":
            return cmd_stability(cfg, args.base, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.seed, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.axis, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteField as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except GLPeriodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
