"""tools/bench_pairs.py: the per-metric comparison of parent and change runs
on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9]  # q1 4.225, q3 4.675


class TestCompare:
    def test_clear_gain_is_resolved(self):
        result = bench_pairs.compare(PARENT, [x - 1.0 for x in PARENT], "lower")
        assert result["wins"] == 10
        assert result["median_gap"] == pytest.approx(-1.0)
        assert result["parent_iqr"] == pytest.approx(0.45)
        assert result["resolved"] is True

    def test_eight_wins_are_not_enough(self):
        change = [x - 1.0 for x in PARENT[:8]] + [x + 1.0 for x in PARENT[8:]]
        result = bench_pairs.compare(PARENT, change, "lower")
        assert result["wins"] == 8
        assert result["resolved"] is False

    def test_gap_inside_the_parent_spread_is_not_resolved(self):
        # the change wins every pair, but by less than the parent's q3 - q1
        result = bench_pairs.compare(PARENT, [x - 0.3 for x in PARENT], "lower")
        assert result["wins"] == 10
        assert abs(result["median_gap"]) < result["parent_iqr"]
        assert result["resolved"] is False

    def test_resolved_regression(self):
        # "higher is better": the change is lower in 9 pairs by a wide gap
        change = [x - 1.0 for x in PARENT[:9]] + [PARENT[9] + 1.0]
        result = bench_pairs.compare(PARENT, change, "higher")
        assert result["wins"] == 1
        assert result["median_gap"] < 0
        assert result["resolved"] is True

    def test_ties_are_unresolved(self):
        result = bench_pairs.compare([2.0] * 10, [2.0] * 10, "lower")
        assert result == {"wins": 0, "median_gap": 0.0, "parent_iqr": 0.0,
                          "resolved": False}


def test_pair_workload_keeps_its_keys(monkeypatch):
    # runs alternate sides; each metric gets wins, gap, IQR and resolved
    values = {"parent": iter(PARENT), "change": iter(x - 1.0 for x in PARENT)}

    def fake_run(tree, workload, seed, trace):
        wall = next(values[tree])
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": wall, "iterations": 2}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = bench_pairs.pair_workload({"parent": "parent", "change": "change"}, "w", 100,
                                    {"wall_s": "lower", "iterations": "lower"})
    assert out["seeds"] == list(range(100, 110))
    assert out["wins"] == {"wall_s": 10, "iterations": 0}
    assert out["resolved"] == {"wall_s": True, "iterations": False}
    assert out["median_gap"]["wall_s"] == pytest.approx(-1.0)
    assert out["parent_iqr"]["iterations"] == 0
    assert out["parent"]["wall_s"]["median"] == pytest.approx(4.45)


class TestStealShare:
    STAT = "cpu  {} 0 {} {} 5 0 7 {} 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"

    def test_reads_the_aggregate_cpu_line(self, monkeypatch, tmp_path):
        stat = tmp_path / "stat"
        stat.write_text(self.STAT.format(100, 20, 800, 60))
        monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
        assert bench_pairs.cpu_jiffies() == [100, 0, 20, 800, 5, 0, 7, 60]

    def test_missing_file_reads_none(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "absent")
        assert bench_pairs.cpu_jiffies() is None
        assert bench_pairs.steal_share(None, [1] * 8) is None

    def test_share_of_the_interval(self):
        before = [100, 0, 20, 800, 5, 0, 7, 60]
        after = [160, 0, 30, 920, 5, 0, 7, 70]  # 200 jiffies, 10 of them stolen
        assert bench_pairs.steal_share(before, after) == pytest.approx(0.05)
        assert bench_pairs.steal_share(before, before) is None

    def test_run_bench_records_the_share(self, monkeypatch):
        # a stubbed reader around a stubbed bench/run.py: one reading before,
        # one after
        readings = iter([[0] * 7 + [0], [90, 0, 0, 0, 0, 0, 0, 10]])
        monkeypatch.setattr(bench_pairs, "cpu_jiffies", lambda: next(readings))

        class Proc:
            returncode = 0
            stdout = ('{"correct": true, "attempted": 1, "failed": 0, '
                      '"metrics": {"wall_s": {"value": 3.5}}}\n')
            stderr = ""

        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Proc())
        result = bench_pairs.run_bench(Path("."), "w", 1, False)
        assert result["steal_share"] == pytest.approx(0.1)
        assert result["metrics"] == {"wall_s": 3.5}

    def test_pair_workload_keeps_the_median_per_side(self, monkeypatch):
        shares = {"parent": iter([0.01 * i for i in range(10)]),
                  "change": iter([None] * 10)}

        def fake_run(tree, workload, seed, trace):
            return {"correct": True, "attempted": 1, "failed": 0,
                    "steal_share": next(shares[tree]), "metrics": {"wall_s": 1.0}}

        monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
        out = bench_pairs.pair_workload({"parent": "parent", "change": "change"}, "w", 0,
                                        {"wall_s": "lower"})
        assert out["steal_share"]["parent"] == pytest.approx(0.045)
        assert out["steal_share"]["change"] is None
        assert {"seeds", "runs", "parent", "change", "wins", "resolved"} <= out.keys()

    def test_traced_runs_record_the_share_per_side(self, monkeypatch):
        # a stubbed reader around stubbed traced bench/run.py runs: each
        # side's per-layer metrics and the steal share while it ran
        readings = iter([[0] * 8, [80, 0, 0, 0, 0, 0, 0, 20], None, [1] * 8])
        monkeypatch.setattr(bench_pairs, "cpu_jiffies", lambda: next(readings))
        argvs = []

        class Proc:
            returncode = 0
            stdout = ('{"correct": true, "attempted": 1, "failed": 0, "metrics": '
                      '{"norms.z_norm.s": {"value": 1.5}}}\n')
            stderr = ""

        monkeypatch.setattr(bench_pairs.subprocess, "run",
                            lambda argv, **k: argvs.append(argv) or Proc())
        out = bench_pairs.traced_runs({"parent": Path("p"), "change": Path("c")}, "w", 7)
        assert out["seed"] == 7
        assert out["parent"] == out["change"] == {"norms.z_norm.s": 1.5}
        assert out["steal_share"]["parent"] == pytest.approx(0.2)
        assert out["steal_share"]["change"] is None  # the reader failed before the run
        assert all(argv[argv.index("--trace") + 1] == "1" for argv in argvs)
