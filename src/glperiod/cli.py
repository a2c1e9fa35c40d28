"""Command line interface.

Exit codes: 0 success, 1 verification batteries failed, 2 config error (a
stability perturbation or base that is not odd too), 3 numeric divergence or
missing/diverged base run. GLPERIOD_THREADS caps the sweep worker pool.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import io
import math
import os
import re
import sys
import time
from pathlib import Path

from . import config as cfgmod
from .errors import (ConfigError, GLPeriodError, NonFiniteField, OddnessViolation,
                     SeamDecayViolation)
from .forcing import realize_perturbation
from .manifest import RunManifest, atomic_write, load_manifest, verify_manifest
from .periodic_solver import equation_residual, solve_periodic
from .spectral import Grid, Series, SpectralField, read_snapshot, write_snapshot
from .stability import StabilityRunConfig, run_stability
from .verification import reports_to_json, run_all_checks

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _print_headline(title: str, rows: dict) -> None:
    print(title)
    width = max(map(len, rows), default=0)
    for key, value in rows.items():
        print(f"  {key:<{width}}  " + (f"{value:.6g}" if isinstance(value, float) else str(value)))


def _out_dir(cfg: dict, override: str | None) -> Path:
    out = override or cfg["output"]["dir"]
    if not isinstance(out, str):
        raise ConfigError(f"output.dir must be a path string; got {out!r}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}")
    return out


def _build_solve(cfg: dict) -> tuple:
    """The arguments of a config's solve_periodic call: forcing, operator,
    cutoffs and options."""
    opts = cfgmod.build_solve_options(cfg)
    g = cfgmod.build_forcing(cfg)  # the forcing's keys are read before its grid is built
    return g, cfgmod.build_operator(g.grid, cfg), cfgmod.build_cutoffs(g.grid, cfg), opts


def _run_solve(cfg: dict):
    g, op, cutoffs, opts = _build_solve(cfg)
    u, report = solve_periodic(g, op, cutoffs, opts)
    return g.grid, op, cutoffs, g, u, report


def cmd_solve_periodic(cfg: dict, out_override: str | None = None) -> int:
    out = _out_dir(cfg, out_override)
    save_fields = cfgmod.boolean(cfg["output"]["save_fields"], "output.save_fields")
    manifest = RunManifest(config=cfg)
    try:
        grid, op, cutoffs, g, u, report = _run_solve(cfg)
    except NonFiniteField as exc:
        manifest.headline = {"error": str(exc)}
        manifest.finish()
        manifest.write(out / "manifest.json")
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    resid = equation_residual(u, g, op, cfg["solve"]["nonlinearity_enabled"])
    report_path = out / "report.json"
    atomic_write(report_path, report.to_json())
    manifest.add_artifact(report_path, out)

    if save_fields:
        for m in range(len(u)):  # one node of u expanded at a time
            snap = out / f"field_{m:04d}.glpf"
            write_snapshot(SpectralField(grid, u.frequency_rows(slice(m, m + 1))[0]), snap)
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
    manifest.headline["layout"] = report.layout  # recorded, not printed
    manifest.finish()
    manifest.write(out / "manifest.json")

    _print_headline("periodic solve", {k: v for k, v in manifest.headline.items()
                                       if k != "layout"})
    if not report.converged:
        print("solver did not converge"
              + (f": {report.divergence_reason}" if report.divergence_reason else ""),
              file=sys.stderr)
    return EXIT_OK if report.converged else EXIT_DIVERGED


class _SavedBase(Series):
    """A saved run's base, read one snapshot at a time: frequency_rows yields node by
    node (stacked 8-node chunks on the pool once raised the stability --base peak RSS
    on the reference base from 64.4 to 79.2 MB; it now peaks at 54.7 MB, 2 vCPUs)."""

    def __init__(self, grid: Grid, paths: list[Path], period: float):
        self.grid, self.paths, self.period = grid, paths, period

    def __len__(self) -> int:
        return len(self.paths)

    def frequency_rows(self, rows: slice):
        try:
            for path in self.paths[rows]:
                yield read_snapshot(path, self.grid).data
        except ValueError as exc:
            raise ConfigError(f"base snapshot rejected: {exc}")


def _load_base_series(manifest_path: str, grid: Grid, period: float) -> _SavedBase:
    """The saved periodic solution of a solve-periodic run, on the config's
    grid. The manifest's hashes, grid and period are checked before any
    snapshot is read; any mismatch is a config error."""
    base = Path(manifest_path)
    if not base.is_file():
        raise ConfigError(f"base manifest not found (not a file): {manifest_path}")
    try:
        man = load_manifest(base)
        if not isinstance(man, dict) or not isinstance(man.get("headline", {}), dict):
            raise TypeError("it or its headline is not a JSON object")
        problems = verify_manifest(base)
        base_grid = cfgmod.grid_config(man["config"])
        base_period = cfgmod.number(man["config"]["period"], "period")
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
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
    snaps = [e["path"] for e in man.get("artifacts", []) if e["path"].endswith(".glpf")]
    if len(snaps) < 2:
        raise GLPeriodError(
            f"base manifest indexes {len(snaps)} field snapshots, fewer than two (run "
            "solve-periodic with output.save_fields = true)")
    return _SavedBase(grid, [base.parent / name for name in _in_node_order(snaps)], period)


def _in_node_order(names: list[str]) -> list[str]:
    """Snapshot names field_<m>.glpf sorted by the integer m, which must run
    over 0..N-1 once each (a gap would shorten the series and change its dt)."""
    def node(name: str) -> int:
        match = re.fullmatch(r"field_(\d+)\.glpf", name)
        if match is None:
            raise ConfigError(f"base snapshot {name} is not named field_<m>.glpf")
        return int(match[1])

    names = sorted(names, key=node)
    for m, name in enumerate(names):
        if node(name) != m:
            problem = f"{m} is missing" if node(name) > m else f"{m - 1} is repeated"
            raise ConfigError(f"base snapshots are not nodes 0..{len(names) - 1} once each: "
                              f"node {problem}")
    return names


def cmd_stability(cfg: dict, base: str | None = None,
                  out_override: str | None = None) -> int:
    # the whole stability block is checked before a base is solved or loaded
    settings = cfgmod.build_stability_settings(cfg)
    spec = cfgmod.build_perturbation_spec(cfg)
    grid = cfgmod.build_grid(cfg)
    try:
        w0 = realize_perturbation(spec, grid)
    except (ValueError, SeamDecayViolation, OddnessViolation) as exc:
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

    try:  # an odd w0 is checked above; a base that is not odd ends here
        decay = run_stability(StabilityRunConfig(v_per=v_per, w0=w0, **settings), op, cutoffs)
    except OddnessViolation as exc:
        raise ConfigError(f"invalid stability base: {exc}")

    csv_path = out / "decay.csv"
    decay.write_csv(csv_path)
    manifest.add_artifact(csv_path, out)
    json_path = out / "decay.json"
    atomic_write(json_path, decay.to_json())
    manifest.add_artifact(json_path, out)

    # the timing and the base layout stay out of decay.json, a hashed artifact, so
    # a rerun writes the same bytes; bench/run.py skips runtime_s when it compares runs
    manifest.headline = {**decay.summary_dict(), "base": decay.base,
                         "step_loop": {"runtime_s": decay.step_s}}
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
    root_seed = cfgmod.integer(cfg["seed"], "seed") if seed is None else seed
    if root_seed < 0:
        raise ConfigError(f"invalid seed: {root_seed} is negative")
    out = _out_dir(cfg, out_override)
    manifest = RunManifest(config=cfg)
    v = cfg["verify"]

    # Reduced-size config for the batteries, each value checked under its verify key.
    small = copy.deepcopy(cfg)
    small["grid"].update(v["grid"])
    cfgmod.grid_config(small, {key: f"verify.grid.{key}" for key in v["grid"]})
    small["solve"]["m_t"] = cfgmod.integer(v["m_t"], "verify.m_t", cfgmod.M_T_MIN)
    samples = cfgmod.integer(v["samples"], "verify.samples", 1)
    amplitude = cfgmod.number(v["solve_amplitude"], "verify.solve_amplitude")
    if not amplitude > 0:  # the trajectory batteries need a nonzero u
        raise ConfigError(f"verify.solve_amplitude must be positive; got {amplitude:g}")
    small["forcing"]["amplitude"] = amplitude
    grid, op, cutoffs, g, u, report = _run_solve(small)
    if not report.converged:
        print("verification base solve did not converge", file=sys.stderr)
        return EXIT_DIVERGED

    started = time.perf_counter()
    reports = run_all_checks(grid, op, cutoffs, samples=samples, seed=root_seed,
                             u_series=u, g_series=g, u_z_norm=report.z_norm)
    checks_s = time.perf_counter() - started
    checks_path = out / "checks.json"
    atomic_write(checks_path, reports_to_json(reports))
    manifest.add_artifact(checks_path, out)

    all_passed = all(r.passed for r in reports)
    # the timing goes under runtime_s only, which bench/run.py skips when it compares runs
    manifest.headline = {"all_passed": all_passed, "batteries": len(reports),
                         "run_all_checks": {"runtime_s": checks_s}}
    manifest.finish()
    manifest.write(out / "manifest.json")
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        print(f"  [{verdict}] {r.check_name}: fitted constant {r.fitted_constant:.6g} "
              f"({r.samples} samples)")
    print(f"verification {'passed' if all_passed else 'FAILED'}; report at {checks_path}")
    return EXIT_OK if all_passed else EXIT_CHECKS_FAILED


def _sweep_value_config(cfg: dict, axis: str, value) -> dict:
    row, key = copy.deepcopy(cfg), f"sweep.{axis}"
    if axis == "epsilon":
        row["forcing"]["amplitude"] = value
        cfgmod.forcing_spec(row, {"amplitude": key})
    elif axis == "m_t":
        row["solve"]["m_t"] = cfgmod.integer(value, key, cfgmod.M_T_MIN)
    elif axis == "n":
        row["grid"]["n_per_axis"] = value
        cfgmod.grid_config(row, {"n_per_axis": key})
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return row


def _sweep_row(solve_args: tuple, value) -> dict:
    started = time.perf_counter()
    row = {"value": value, "c_estimate": "", "contraction_factor": "",
           "periodicity_residual": "", "runtime_s": "", "error": ""}
    try:
        _u, report = solve_periodic(*solve_args)
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


def _with_observed_order(rows: list[dict]) -> list[dict]:
    """The m_t sweep's rows with observed_order after c_estimate: log2 of the
    ratio of successive c_estimate differences (Richardson), empty in the
    first two rows and where an estimate or a nonzero difference is missing."""
    c = [row["c_estimate"] for row in rows]
    for i, row in enumerate(rows):
        order = ""
        if i >= 2 and all(isinstance(x, float) for x in c[i - 2:i + 1]):
            coarse, fine = abs(c[i - 1] - c[i - 2]), abs(c[i] - c[i - 1])
            order = math.log2(coarse / fine) if coarse > 0 and fine > 0 else ""
        items = list(row.items())
        rows[i] = dict(items[:2] + [("observed_order", order)] + items[2:])
    return rows


def cmd_sweep(cfg: dict, axis: str, out_override: str | None = None) -> int:
    values = cfg["sweep"].get(axis)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep axis {axis!r} needs a non-empty list of values "
                          f"in the config; got {values!r}")
    row_cfgs = [_sweep_value_config(cfg, axis, v) for v in values]
    # a bad row ends the sweep (exit 2) before any row is solved
    solves = [_build_solve(row_cfg) for row_cfg in row_cfgs]
    threads = os.environ.get("GLPERIOD_THREADS", "0")
    if not threads.strip().isdecimal():
        raise ConfigError(f"GLPERIOD_THREADS must be a non-negative integer; got {threads!r}")
    out = _out_dir(cfg, out_override)
    max_workers = int(threads) or min(4, len(values))
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
        rows = list(pool.map(_sweep_row, solves, values))
    if axis == "m_t":
        rows = _with_observed_order(rows)

    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    atomic_write(out / f"sweep_{axis}.csv", text.getvalue())

    def line(cells):  # value and the figures right-aligned, then the error
        widths = (12,) * (len(cells) - 2) + (10,)
        return "  ".join(f"{c:>{w}}" for c, w in zip(cells, widths)) + f"  {cells[-1]}"

    order = ("order",) if axis == "m_t" else ()
    print(line((axis, "c_estimate", *order, "contraction", "periodicity", "runtime_s",
                "error")))
    for row in rows:
        print(line([f"{x:.4g}" if isinstance(x, float) else str(x) for x in row.values()]))
    return EXIT_OK if any(not r["error"] for r in rows) else EXIT_DIVERGED


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
