"""glperiod benchmark: four CLI workloads, one fresh process per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest [--seed N]

Workloads: ``ref-solve``, ``ref-stability`` and ``verify`` are the ones
BENCHMARK.json lists. ``sweep-eps-2t`` (the epsilon sweep on a 2-worker pool)
runs the same way on request, but is left out of BENCHMARK.json: on a shared
2-core host its wall time moves by more than any allowed bound between runs.

Each run of the command is a fresh
``python3 bench/child.py`` process that imports glperiod from ``src/`` and
calls ``glperiod.cli.main(argv)`` once: a closed loop with one client and one
command at a time. Commands are repeated for ``--seconds`` and each metric is
the median over those runs. The configs the commands read are generated from
``configs/reference.json`` in a scratch directory under ``.bench_work/``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` untraced and traced runs alternate; the
last line holds the per-layer metrics, and the run fails its correctness
check if traced and untraced runs wrote different results. Every run's
outputs are checked against ``bench/expected.json``; a run that exits
non-zero or fails a check counts as failed and is never retried.

``--selftest`` makes one traced pass over every workload and exits non-zero
unless tracing left every output unchanged and the top-level spans cover at
least 90% of the ``ref-solve`` wall time.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ref-solve", "ref-stability", "verify", "sweep-eps-2t")
SETUP_PROBES = 5          # import-only processes per run, for setup_s
CHILD_TIMEOUT_S = 100.0   # a command still running after this counts as failed
RUN_BUDGET_S = 120.0      # no new command starts once a run would pass this
MIN_COVERAGE = 0.9
# Sweep-pool layer figures: measured on sweep-eps-2t, which BENCHMARK.json
# leaves out because its wall time is too unsteady on a shared 2-core host.
UNLISTED_UNITS = {"cli.sweep.row_s_sum": "s", "cli.sweep.speedup_2t": "x"}
THREAD_VARS = ("GLPERIOD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed preparation)."""


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_block(env: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{base}/size")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": scipy_version,
        "fft_backend": "numpy.fft (pocketfft)" if pocketfft else "numpy.fft",
        **{var: env.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(workload: str, threads: int | None = None) -> dict:
    """Environment of a child: one BLAS/OpenMP thread; the sweep's pool size
    (2 unless given) in GLPERIOD_THREADS, which only the sweep reads."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if workload == "sweep-eps-2t":
        env["GLPERIOD_THREADS"] = str(threads or 2)
    return env


class Run:
    """One child process: its result file, rusage and output checks."""

    def __init__(self, kind: str, out: Path):
        self.kind = kind            # "probe", "untraced", "traced" or "traced-1t"
        self.out = out
        self.result: dict = {}
        self.rusage = None
        self.exit_code = None
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall_s(self) -> float:
        return self.result.get("wall_s", math.nan)


def spawn(kind: str, out: Path, cli_args: list[str], env: dict,
          residuals: bool = False) -> Run:
    """Start child.py, wait for it with os.wait4 and load its result."""
    out.mkdir(parents=True, exist_ok=True)
    run = Run(kind, out)
    result_path = out / "bench_result.json"
    trace = "1" if kind.startswith("traced") else "0"
    argv = [sys.executable, str(BENCH / "child.py"), str(result_path),
            repr(time.clock_gettime(time.CLOCK_MONOTONIC)), trace,
            "1" if residuals else "0", *cli_args]
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, rusage = os.wait4(proc.pid, 0)
                    run.problems.append(f"timed out after {CHILD_TIMEOUT_S:g} s")
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    run.rusage = rusage
    if proc.returncode != 0:
        run.problems.append(f"benchmark child exited with {proc.returncode}")
    if result_path.exists():
        run.result = json.loads(result_path.read_text())
        run.exit_code = run.result.get("exit_code")
        if run.exit_code not in (None, 0):
            run.problems.append(f"glperiod exited with {run.exit_code}")
    else:
        run.problems.append("no result file")
    if run.problems:
        tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"[{kind}] {'; '.join(run.problems)}\n{tail}", file=sys.stderr)
    return run


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(name: str, value, expected: float, rel_tol: float) -> list[str]:
    if not isinstance(value, (int, float)) or not math.isclose(value, expected,
                                                                rel_tol=rel_tol):
        return [f"{name} = {value!r}, expected {expected!r} (rel tol {rel_tol:g})"]
    return []


def check_solve_headline(headline: dict, exp: dict, rel_tol: float) -> list[str]:
    problems = []
    if headline.get("converged") is not True:
        problems.append("solve did not converge")
    periodicity = headline.get("periodicity_residual")
    if not isinstance(periodicity, float) or not periodicity <= exp["periodicity_residual_max"]:
        problems.append(f"periodicity_residual = {periodicity!r} above "
                        f"{exp['periodicity_residual_max']:g}")
    for key in ("z_norm", "c_estimate", "equation_residual"):
        problems += _close(key, headline.get(key), exp[key], rel_tol)
    return problems


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return exc


def _load_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Configs, commands, output checks and metrics of one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.rel_tol = self.expected["rel_tol"]
        self.base_headline: dict | None = None
        self.base_prep_s = 0.0
        reference = ROOT / "configs" / "reference.json"
        cfg = json.loads(reference.read_text())
        if name == "ref-stability":
            cfg["output"]["save_fields"] = True
        if name == "sweep-eps-2t":
            cfg["grid"].update({"dim": 3, "n_per_axis": 16, "box_length": 32.0})
        cfg["output"]["dir"] = str(work / "default_out")
        self.config = work / f"{name}.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.cfg = cfg
        self.residuals = name in ("verify", "sweep-eps-2t")

    def cli_args(self, out: Path) -> list[str]:
        config = str(self.config)
        if self.name == "ref-solve":
            return ["solve-periodic", "--config", config, "--out", str(out)]
        if self.name == "ref-stability":
            return ["stability", "--config", config,
                    "--base", str(self.work / "base" / "manifest.json"), "--out", str(out)]
        if self.name == "verify":
            return ["verify", "--config", config, "--seed", str(self.seed), "--out", str(out)]
        return ["sweep", "--config", config, "--axis", "epsilon", "--out", str(out)]

    def prepare(self) -> None:
        """ref-stability: solve and save the base once, then check it."""
        if self.name != "ref-stability":
            return
        started = time.perf_counter()
        base = self.work / "base"
        run = spawn("base", base, ["solve-periodic", "--config", str(self.config),
                                   "--out", str(base)], child_env(self.name))
        if run.problems:
            raise BenchError("base preparation failed: " + "; ".join(run.problems))
        problems = self.check_base(base / "manifest.json")
        if problems:
            raise BenchError("saved base rejected: " + "; ".join(problems))
        self.base_prep_s = time.perf_counter() - started

    def check_base(self, manifest_path: Path) -> list[str]:
        sys.path.insert(0, str(ROOT / "src"))
        from glperiod.manifest import load_manifest, verify_manifest
        from glperiod.spectral import read_snapshot

        problems = verify_manifest(manifest_path)
        manifest = load_manifest(manifest_path)
        grid = self.cfg["grid"]
        if manifest["config"]["grid"] != grid:
            problems.append(f"base grid {manifest['config']['grid']} != config grid {grid}")
        if manifest["config"]["period"] != self.cfg["period"]:
            problems.append("base period differs from the config period")
        snaps = sorted(a["path"] for a in manifest["artifacts"] if a["path"].endswith(".glpf"))
        if len(snaps) != self.cfg["solve"]["m_t"] + 1:
            problems.append(f"base has {len(snaps)} snapshots, expected "
                            f"{self.cfg['solve']['m_t'] + 1}")
        else:
            snap = read_snapshot(manifest_path.parent / snaps[0]).grid.config
            if (snap.dim, snap.n_per_axis, snap.box_length) != (
                    grid["dim"], grid["n_per_axis"], grid["box_length"]):
                problems.append("base snapshot grid differs from the config grid")
        self.base_headline = manifest.get("headline", {})
        problems += check_solve_headline(self.base_headline, self.expected["ref-solve"],
                                         self.rel_tol)
        return problems

    def check(self, run: Run) -> None:
        """Append to run.problems every way its outputs miss expected.json."""
        if run.exit_code != 0:
            return
        exp = self.expected[self.name]
        p = run.problems
        if self.name == "ref-solve":
            manifest = _load_json(run.out / "manifest.json")
            if isinstance(manifest, Exception):
                p.append(f"manifest.json unreadable: {manifest}")
            else:
                p += check_solve_headline(manifest.get("headline", {}), exp, self.rel_tol)
        elif self.name == "ref-stability":
            decay = _load_json(run.out / "decay.json")
            if isinstance(decay, Exception):
                p.append(f"decay.json unreadable: {decay}")
                return
            if decay.get("escaped") is not False:
                p.append("perturbation escaped")
            for key in ("fitted_slope_l0", "fitted_slope_l1"):
                lo, hi = exp[key]
                value = decay.get(key)
                if not isinstance(value, float) or not lo <= value <= hi:
                    p.append(f"{key} = {value!r} outside [{lo}, {hi}]")
        elif self.name == "verify":
            checks = _load_json(run.out / "checks.json")
            if isinstance(checks, Exception):
                p.append(f"checks.json unreadable: {checks}")
                return
            if len(checks) != exp["reports"]:
                p.append(f"{len(checks)} battery reports, expected {exp['reports']}")
            p += [f"battery {c['check_name']} failed" for c in checks if not c["passed"]]
        else:
            rows = _load_csv(run.out / "sweep_epsilon.csv")
            if len(rows) != len(self.cfg["sweep"]["epsilon"]):
                p.append(f"sweep wrote {len(rows)} rows, expected "
                         f"{len(self.cfg['sweep']['epsilon'])}")
            p += [f"sweep row {r['value']}: {r['error']}" for r in rows if r["error"]]
        solves = run.result.get("solves", [])
        if self.residuals and (not solves or any(s["equation_residual"] is None
                                                 for s in solves)):
            p.append("no periodic solve was recorded")

    def solve_figures(self, run: Run) -> tuple[float, float]:
        """(Picard iterations, equation residual) of the run's solves."""
        if self.name == "ref-stability":
            head = self.base_headline or {}
        elif self.name == "ref-solve":
            head = _load_json(run.out / "manifest.json")
            head = head.get("headline", {}) if isinstance(head, dict) else {}
        else:
            solves = run.result.get("solves") or [{"iterations": math.nan,
                                                   "equation_residual": math.nan}]
            return (float(sum(s["iterations"] for s in solves)),
                    max(s["equation_residual"] or math.nan for s in solves))
        return (float(head.get("iterations", math.nan)),
                float(head.get("equation_residual", math.nan)))


# ---------------------------------------------------------------------------
# Traced-versus-untraced comparison
# ---------------------------------------------------------------------------

VOLATILE_KEYS = ("started", "finished", "runtime_s")
COMPARED_FILES = ("report.json", "manifest.json", "decay.json", "decay.csv",
                  "checks.json", "sweep_epsilon.csv")


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def normalized_outputs(out: Path) -> dict[str, object]:
    """The run's result files without timestamps and runtime_s."""
    found = {}
    for name in COMPARED_FILES:
        path = out / name
        if not path.exists():
            continue
        if name.endswith(".json"):
            found[name] = _strip(json.loads(path.read_text()))
        else:
            found[name] = [_strip(r) for r in _load_csv(path)]
    return found


def compare_outputs(reference: Run, other: Run) -> list[str]:
    a, b = normalized_outputs(reference.out), normalized_outputs(other.out)
    if not a:
        return [f"{reference.kind} run wrote no result files"]
    return [f"{name} differs between {reference.kind} and {other.kind} runs"
            for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> tuple[dict, list[Run], list[str]]:
    """Run one workload; returns (metric values, command runs, trace problems)."""
    started = time.perf_counter()
    work = work_root / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, work)
        wl.prepare()
        probes = []
        if not trace:
            # The first import in a fresh checkout also compiles bytecode.
            spawn("probe", work / "warmup", [], child_env(name))
            probes = [spawn("probe", work / f"probe{i}", [], child_env(name))
                      for i in range(SETUP_PROBES)]
        kinds = ["untraced"]
        if trace:
            kinds += ["traced"] + (["traced-1t"] if name == "sweep-eps-2t" else [])
        runs: list[Run] = []
        loop_start = time.perf_counter()
        while True:
            for kind in kinds:
                out = work / f"{kind}{len(runs)}"
                threads = 1 if kind == "traced-1t" else None
                run = spawn(kind, out, wl.cli_args(out), child_env(name, threads),
                            wl.residuals)
                wl.check(run)
                runs.append(run)
            elapsed = time.perf_counter() - loop_start
            per_round = elapsed * len(kinds) / len(runs)
            if elapsed >= seconds or (time.perf_counter() - started + per_round
                                      > RUN_BUDGET_S):
                break

        trace_problems = []
        if trace:
            reference = runs[0]
            for other in runs[1:]:
                if other.kind != "untraced":
                    trace_problems += compare_outputs(reference, other)
        metrics = (layer_figures(wl, runs) if trace
                   else end_to_end_figures(wl, runs, probes))
        return metrics, runs, trace_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_figures(wl: Workload, runs: list[Run], probes: list[Run]) -> dict:
    figures = [wl.solve_figures(r) for r in runs]
    setups = [r.result["setup_s"] for r in probes + runs if "setup_s" in r.result]
    return {
        "wall_s": _median(r.wall_s for r in runs),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r.rusage.ru_maxrss / 1024.0 for r in runs),
        "iterations": _median(f[0] for f in figures),
        "equation_residual": _median(f[1] for f in figures),
        "ok_frac": sum(r.ok for r in runs) / len(runs),
    }


def layer_figures(wl: Workload, runs: list[Run]) -> dict:
    untraced = [r for r in runs if r.kind == "untraced"]
    traced = [r for r in runs if r.kind == "traced"]
    single = [r for r in runs if r.kind == "traced-1t"]
    layers = [r.result["layers"] for r in traced if "layers" in r.result]
    metrics = {key: _median(layer[key] for layer in layers)
               for key in (layers[0] if layers else {})}
    untraced_wall = _median(r.wall_s for r in untraced)
    traced_wall = _median(r.wall_s for r in traced)
    if single:
        metrics["cli.sweep.speedup_2t"] = _median(r.wall_s for r in single) / traced_wall
    metrics.update({
        "process.user_s": _median(r.rusage.ru_utime for r in untraced),
        "process.sys_s": _median(r.rusage.ru_stime for r in untraced),
        "process.minflt": _median(float(r.rusage.ru_minflt) for r in untraced),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "setup.base_prep.s": wl.base_prep_s,
    })
    missing = sorted({m for r in traced for m in r.result.get("trace_missing", [])})
    if missing:
        print("trace: not found, reported as zero: " + ", ".join(missing), file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_checkout() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "glperiod" / "cli.py",
              ROOT / "configs" / "reference.json", BENCH / "expected.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("not a glperiod checkout, missing: " + ", ".join(missing))
    return json.loads(spec_path.read_text())


def report(spec: dict, trace: bool, metrics: dict, runs: list[Run],
           trace_problems: list[str], machine: dict) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    absent = [m["name"] for m in listed
              if not math.isfinite(metrics.get(m["name"], math.nan))]
    if absent:
        raise BenchError("metrics not measured: " + ", ".join(absent))
    failed = sum(not r.ok for r in runs)
    print(json.dumps({"machine": machine}))
    for run in runs:
        print(f"  {run.kind:<9} wall {run.wall_s:8.3f} s  "
              f"user {run.rusage.ru_utime:7.3f} s  sys {run.rusage.ru_stime:6.3f} s  "
              f"rss {run.rusage.ru_maxrss / 1024:7.1f} MB  "
              f"{'ok' if run.ok else 'FAILED: ' + '; '.join(run.problems)}")
    for problem in trace_problems:
        print(f"  tracing changed the result: {problem}")
    print(f"  failed_frac {failed}/{len(runs)} = {failed / len(runs):.3f}")
    for m in listed:
        print(f"  {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    names = {m["name"] for m in listed}
    for name, unit in UNLISTED_UNITS.items():
        if metrics.get(name) and name not in names:
            print(f"  {name:<44} {metrics[name]:.6g} {unit} (not in BENCHMARK.json)")
    return {
        "correct": failed == 0 and not trace_problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def selftest(seed: int, work_root: Path) -> int:
    failures = []
    for name in WORKLOADS:
        metrics, runs, trace_problems = run_workload(name, seed, 0.0, True, work_root)
        failures += [f"{name}: {p}" for p in trace_problems]
        failures += [f"{name}: {r.kind}: {p}" for r in runs for p in r.problems]
        coverage = metrics.get("trace.coverage_frac", 0.0)
        print(f"{name}: traced and untraced outputs "
              f"{'differ' if trace_problems else 'identical'}; span coverage "
              f"{coverage:.3f}; overhead {metrics['trace.overhead_frac']:+.3f}")
        if name == "ref-solve" and not coverage >= MIN_COVERAGE:
            failures.append(f"ref-solve: spans cover {coverage:.3f} of wall_s, "
                            f"below {MIN_COVERAGE}")
    for failure in failures:
        print(f"selftest FAILED: {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        spec = check_checkout()
        work_root = ROOT / ".bench_work"
        if args.selftest:
            return selftest(args.seed, work_root)
        metrics, runs, trace_problems = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_root)
        machine = machine_block(child_env(args.workload))
        result = report(spec, bool(args.trace), metrics, runs, trace_problems, machine)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
