"""Alternating parent/change pairs of the glperiod benchmark, written to one file.

    python3 tools/bench_pairs.py --parent REF --out BENCH_N.json --seed S \\
        [--traced-seed S]

The parent is ``git archive REF`` unpacked under ``.bench_pairs/``; the
change is this checkout as it stands (committed or not). For every workload
in BENCHMARK.json, pair i of 10 runs
``python3 bench/run.py --workload W --seed S+i`` (the benchmark's own run
length) once in each tree, one after the other, the parent first in even
pairs and the change first in odd ones, so slow drift of the host falls on
both sides alike. ``bench/`` is used as it is; nothing under it is edited.

The output holds the machine block of ``bench/run.py``, and per workload the
seeds, every run's end-to-end metrics, their medians and quartiles on each
side, and per metric the number of pairs the change won (strictly better in
the direction BENCHMARK.json gives), the gap between the medians (change
minus parent), the parent's interquartile range, and whether the difference
is resolved: one side wins at least 9 of the 10 pairs and the gap exceeds
the parent's interquartile range. Each run also records the host's steal
share while it ran (steal jiffies over all jiffies of the ``cpu`` line of
/proc/stat, read before and after; null where that file is missing), and
each workload the median share per side. With ``--traced-seed`` each tree also
makes one ``--trace 1`` run per workload, whose per-layer metrics are stored
beside the pairs with the steal share of each traced run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
RESOLVE_WINS = 9  # pairs one side must win for a resolved difference
WORK = ROOT / ".bench_pairs"
PROC_STAT = Path("/proc/stat")  # read only, for the host's steal time


def _bench_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def export_parent(ref: str, work: Path) -> tuple[Path, str]:
    """Unpack `git archive ref` into work/parent; returns (tree, commit sha)."""
    sha = subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = work / "parent"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = work / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree, sha


def cpu_jiffies() -> list[int] | None:
    """The aggregate `cpu` line of /proc/stat as its first eight counters
    (user, nice, system, idle, iowait, irq, softirq, steal; guest time is
    already inside user and nice), or None where it cannot be read."""
    try:
        fields = PROC_STAT.read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Steal jiffies over all jiffies between two cpu_jiffies readings: the
    share of the host's time that other tenants' guests took."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One bench/run.py invocation in `tree`; returns its result line and
    the steal share of the host while it ran."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "1" if trace else "0"]
    before = cpu_jiffies()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    steal = steal_share(before, cpu_jiffies())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "steal_share": steal,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    """Pairs the change won, median gap (change - parent), the parent's
    q3 - q1, and `resolved`: one side strictly better in at least
    RESOLVE_WINS pairs and the gap wider than the parent's q3 - q1."""
    sign = 1 if direction == "lower" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d < 0 for d in diffs)
    p, c = summary(parent), summary(change)
    gap, iqr = c["median"] - p["median"], p["q3"] - p["q1"]
    return {"wins": wins, "median_gap": gap, "parent_iqr": iqr,
            "resolved": max(wins, sum(d > 0 for d in diffs)) >= RESOLVE_WINS
            and abs(gap) > iqr}


def pair_workload(trees: dict, workload: str, seed: int, better: dict) -> dict:
    runs = {"parent": [], "change": []}
    seeds = [seed + i for i in range(PAIRS)]
    for i, s in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], workload, s, False))
        print(f"{workload} pair {i + 1}/{PAIRS} seed {s}: " + "  ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']:.3f}" for side in order),
            file=sys.stderr, flush=True)
    out = {"seeds": seeds, "runs": runs, "steal_share": {}}
    for side in runs:
        shares = [r["steal_share"] for r in runs[side] if r.get("steal_share") is not None]
        out["steal_share"][side] = statistics.median(shares) if shares else None
    for side in runs:
        out[side] = {name: summary([r["metrics"][name] for r in runs[side]])
                     for name in better}
    for name, direction in better.items():
        result = compare(*([r["metrics"][name] for r in runs[side]]
                           for side in ("parent", "change")), direction)
        for key, value in result.items():
            out.setdefault(key, {})[name] = value
    return out


def traced_runs(trees: dict, workload: str, seed: int) -> dict:
    """One ``--trace 1`` run per tree: its per-layer metrics under the side's
    name, and the host's steal share while it ran under ``steal_share``."""
    out = {"seed": seed, "steal_share": {}}
    for side, tree in trees.items():
        run = run_bench(tree, workload, seed, True)
        out[side] = run["metrics"]
        out["steal_share"][side] = run["steal_share"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--traced-seed", type=int, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bench_run = _bench_run_module()
    WORK.mkdir(parents=True, exist_ok=True)
    parent, sha = export_parent(args.parent, WORK)
    trees = {"parent": parent, "change": ROOT}
    started = time.time()
    try:
        result = {
            "parent_commit": sha,
            "command": "python3 bench/run.py --workload W --seed S",
            "machine": bench_run.machine_block(bench_run.child_env(workloads[0])),
            "workloads": {},
        }
        for workload in workloads:
            entry = pair_workload(trees, workload, args.seed, better)
            if args.traced_seed is not None:
                entry["traced"] = traced_runs(trees, workload, args.traced_seed)
            result["workloads"][workload] = entry
        result["elapsed_s"] = round(time.time() - started, 1)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
