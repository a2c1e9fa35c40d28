"""The public surface, configuration, manifests and the command line
interface."""

import csv
import dataclasses
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import glperiod
from glperiod import cli, config
from glperiod.cli import main
from glperiod.config import load_config, reference_config
from glperiod.errors import ConfigError
from glperiod.manifest import load_manifest, sha256_of, verify_manifest
from glperiod.spectral import read_snapshot, write_snapshot

from oracles import write_physical_snapshot


def _small_config(tmp_path, **overrides):
    """A fast dim-2 configuration for CLI round trips."""
    cfg = {
        "grid": {"dim": 2, "n_per_axis": 16, "box_length": 32.0},
        "period": 1.0,
        "forcing": {"amplitude": 1e-2},
        "solve": {"m_t": 16},
        "stability": {"t_max": 10.0, "record_stride": 2},
        "verify": {"samples": 20, "grid": {"dim": 2, "n_per_axis": 16,
                                           "box_length": 32.0}, "m_t": 16},
        "sweep": {"epsilon": [1e-3, 1e-2], "m_t": [16, 32], "n": [8, 16]},
        "seed": 7,
        "output": {"dir": str(tmp_path / "out"), "save_fields": False},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _leaf_keys(tree: dict, prefix: str = "") -> list[str]:
    """Dotted keys of the leaves (lists and scalars) of a config tree."""
    return [leaf for key, value in tree.items()
            for leaf in (_leaf_keys(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


# The single-field API that only tests called, and the physical-space oddness
# rule that the frequency-space even-part test (Grid.node_stats and
# Grid.parity) replaced; their reference forms live in tests/oracles.py.
REMOVED_NAMES = (
    "transform", "dealias", "cubic_nonlinearity", "time_derivative",
    "project", "semigroup_apply", "period_inverse_apply", "verify_multiplier_bound",
    "linear_period_map", "picard_step", "duhamel_integral", "periodic_initial_data",
    "split_series", "split_equation_residual", "contraction_estimate",
    "exp_step", "direct_step", "perturbation_rhs", "BoundReport", "check_oddness",
)


# Lines of src/glperiod/*.py (wc -l). Lower it when lines go; a change that
# raises it says why in CHANGES.md.
SRC_LINE_BUDGET = 3282


def test_src_within_line_budget():
    lines = sum(path.read_bytes().count(b"\n")
                for path in Path(glperiod.__file__).parent.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, (
        f"src/glperiod is {lines} lines, above its budget of {SRC_LINE_BUDGET}. "
        "Lower the budget whenever lines go, so deletions stick; a change that "
        "raises it states why in CHANGES.md")


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        assert [name for name in glperiod.__all__ if not hasattr(glperiod, name)] == []

    def test_test_only_api_is_not_exported(self):
        assert [name for name in REMOVED_NAMES if hasattr(glperiod, name)] == []

    def test_every_traced_glperiod_function_resolves(self):
        # the bench tracer reports a missing name as zero time, not as an error
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = []
        for module_name, attr, _ in tracer.TRACED:
            if module_name.startswith("glperiod"):
                owner, _, leaf = attr.rpartition(".")
                module = importlib.import_module(module_name)
                holder = getattr(module, owner, None) if owner else module
                if not callable(getattr(holder, leaf, None)):
                    missing.append(f"{module_name}.{attr}")
        assert missing == []


class TestConfig:
    def test_reference_defaults_load(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg == reference_config()

    def test_shipped_reference_config_matches_defaults(self):
        # configs/reference.json is a link to the file the package ships
        shipped = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        packaged = Path(config.__file__)
        assert shipped.resolve() == packaged.with_name("reference.json").resolve()
        assert json.loads(shipped.read_text()) == reference_config()

    def test_override_merging(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"forcing": {"amplitude": 0.5}}))
        cfg = load_config(path)
        assert cfg["forcing"]["amplitude"] == 0.5
        assert cfg["forcing"]["axis"] == 0  # untouched default

    def test_solve_options_are_the_solve_block(self):
        # every solve knob lives in both places; m_t sets the forcing's time grid
        fields = {f.name for f in dataclasses.fields(glperiod.SolveOptions)}
        assert fields == set(reference_config()["solve"]) - {"m_t"}

    def test_removed_solve_key_rejected(self, tmp_path, capsys):
        # the mean-mode tolerance went with the solve's mean-mode check
        cfg_path = _small_config(tmp_path, solve={"m_t": 16, "zero_mode_tol": 1e-10})
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown config key 'solve.zero_mode_tol'\n"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"forcign": {}}))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestManifest:
    def test_verify_detects_corruption(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        manifest_path = out / "manifest.json"
        assert verify_manifest(manifest_path) == []
        (out / "report.json").write_text('{"tampered": true}')
        problems = verify_manifest(manifest_path)
        assert problems and "hash mismatch" in problems[0]

    def test_headline_recorded(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        main(["solve-periodic", "--config", str(cfg_path)])
        man = load_manifest(tmp_path / "out" / "manifest.json")
        assert man["headline"]["converged"] is True
        assert man["headline"]["periodicity_residual"] <= 1e-8
        assert "glperiod" in man["versions"]
        assert man["versions"]["fft_backend"] == "numpy.fft"
        assert man["versions"]["workers"] >= 1


class TestSolveCommand:
    def test_reference_style_run_converges(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] <= 15
        assert "half_lattice" not in report  # every solve runs on half the lattice

    def test_reference_run_says_why_contraction_factor_is_null(self, tmp_path):
        # the reference config converges in 2 iterations: too few residuals
        path = tmp_path / "reference.json"
        path.write_text("{}")
        assert main(["solve-periodic", "--config", str(path),
                     "--out", str(tmp_path / "ref")]) == 0
        report = json.loads((tmp_path / "ref" / "report.json").read_text())
        headline = load_manifest(tmp_path / "ref" / "manifest.json")["headline"]
        assert report["iterations"] == 2
        for summary in (report, headline):
            assert summary["contraction_factor"] is None
            assert summary["contraction_factor_reason"] == "fewer than 3 residuals (got 2)"

    def test_linear_run_certifies_the_linear_equation(self, tmp_path):
        # at amplitude 1 the cubic term moves the residual in the 4th digit
        cfg_path = _small_config(tmp_path, forcing={"amplitude": 1.0},
                                 solve={"m_t": 32, "nonlinearity_enabled": False})
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        headline = load_manifest(tmp_path / "out" / "manifest.json")["headline"]
        cfg = load_config(cfg_path)
        g = config.build_forcing(cfg)
        grid = g.grid
        op = config.build_operator(grid, cfg)
        u, _ = glperiod.solve_periodic(g, op, config.build_cutoffs(grid, cfg),
                                       config.build_solve_options(cfg))
        expected = glperiod.equation_residual(u, g, op, False)
        assert headline["equation_residual"] == pytest.approx(expected, rel=1e-12)

    def test_zero_amplitude_null_c_estimate(self, tmp_path):
        cfg_path = _small_config(tmp_path, forcing={"amplitude": 0.0})
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["c_estimate"] is None

    def test_malformed_cutoffs_exit_2(self, tmp_path):
        cfg_path = _small_config(tmp_path, cutoffs={"r1": 0.9, "r_inf": 0.5})
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 2

    def test_determinism_across_runs(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["solve-periodic", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
        assert main(["solve-periodic", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
        assert sha256_of(out1 / "report.json") == sha256_of(out2 / "report.json")

    def test_save_fields_snapshots_indexed(self, tmp_path):
        cfg_path = _small_config(tmp_path, output={"dir": str(tmp_path / "out"),
                                                   "save_fields": True})
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        man = load_manifest(tmp_path / "out" / "manifest.json")
        snaps = [a for a in man["artifacts"] if a["path"].endswith(".glpf")]
        assert len(snaps) == 17  # m_t + 1 nodes
        assert verify_manifest(tmp_path / "out" / "manifest.json") == []


class TestStabilityCommand:
    def test_inline_base(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "decay.json").read_text())
        assert summary["escaped"] is False
        assert "half_lattice" not in summary  # every run steps half the lattice
        csv_text = (tmp_path / "out" / "decay.csv").read_text()
        assert csv_text.startswith("t,l2_w,h1_grad_w,n1,n2,n")

    def test_even_perturbation_rejected(self, tmp_path, monkeypatch, capsys):
        # a perturbation profile is no config key (the run steps the odd
        # dipole only): one line, before the inline base is solved
        def no_solve(*args):
            raise AssertionError("the base was solved")

        monkeypatch.setattr(cli, "solve_periodic", no_solve)
        cfg_path = _small_config(tmp_path, stability={"t_max": 10.0, "record_stride": 2,
                                                      "profile": "gauss"})
        assert main(["stability", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown config key 'stability.profile'\n"

    def test_perturbation_not_odd_rejected_before_the_base(self, tmp_path, monkeypatch,
                                                            capsys):
        # sigma = 4.571 (L/14) on the reference grid decays at the seam but
        # is not odd by the run's rule: one line, before the base is solved
        def no_solve(*args):
            raise AssertionError("the base was solved")

        monkeypatch.setattr(cli, "solve_periodic", no_solve)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stability": {"sigma": 4.571},
                                    "output": {"dir": str(tmp_path / "out")}}))
        assert main(["stability", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid stability perturbation: "
                              "perturbation profile is not odd on the lattice")
        assert err.count("\n") == 1 and "Traceback" not in err

    def _saved_base(self, tmp_path, **overrides):
        cfg_path = _small_config(tmp_path, output={"dir": str(tmp_path / "base"),
                                                   "save_fields": True}, **overrides)
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        return cfg_path, tmp_path / "base" / "manifest.json"

    def test_saved_base(self, tmp_path):
        cfg_path, manifest = self._saved_base(tmp_path)
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 0
        assert (tmp_path / "stab" / "decay.csv").exists()

    def test_snapshots_are_read_in_node_order(self):
        # by the integer in field_<m>.glpf, not as strings: field_10000 sorts
        # after field_9999, not between field_1000 and field_1001
        names = [f"field_{m:04d}.glpf" for m in range(10002)]
        shuffled = list(np.random.default_rng(5).permutation(names))
        assert sorted(shuffled)[1001] == "field_10000.glpf"
        assert cli._in_node_order(shuffled) == names

    @pytest.mark.parametrize("names, problem", [
        (["field_0000.glpf", "field_0002.glpf"], "node 1 is missing"),
        (["field_0001.glpf", "field_0002.glpf"], "node 0 is missing"),
        (["field_0000.glpf", "field_0001.glpf", "field_001.glpf"], "node 1 is repeated"),
        (["field_0000.glpf", "node_0001.glpf"], "node_0001.glpf is not named field_<m>.glpf")])
    def test_snapshots_not_each_node_once_rejected(self, names, problem):
        with pytest.raises(ConfigError, match=problem):
            cli._in_node_order(names)

    def test_manifest_missing_a_snapshot_rejected(self, tmp_path, capsys):
        # node 3's entry dropped from the manifest (its file kept): the base
        # would be one node short with another dt, so no run, one line
        cfg_path, manifest = self._saved_base(tmp_path)
        man = load_manifest(manifest)
        man["artifacts"] = [a for a in man["artifacts"] if a["path"] != "field_0003.glpf"]
        manifest.write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: base snapshots are not nodes 0..15 once each: node 3 " \
                      "is missing\n"
        assert not (tmp_path / "stab" / "decay.csv").exists()

    def test_missing_base_exit(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        code = main(["stability", "--config", str(cfg_path),
                     "--base", str(tmp_path / "missing.json")])
        assert code == 2

    def test_directory_base_exit(self, tmp_path, capsys):
        # the run directory in place of its manifest.json
        cfg_path, manifest = self._saved_base(tmp_path)
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest.parent),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base manifest") and err.count("\n") == 1

    def test_artifact_that_cannot_be_read_exit(self, tmp_path, monkeypatch, capsys):
        # an OSError while an artifact is hashed is a config error, as a
        # directory named as an artifact is (test_exit_2_with_one_line)
        cfg_path, manifest = self._saved_base(tmp_path)
        capsys.readouterr()

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(glperiod.manifest, "sha256_of", unreadable)
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base manifest") and err.count("\n") == 1
        assert "Permission denied" in err

    @staticmethod
    def _rehash(manifest, snap):
        """Write snap's new hash and size into the manifest, so the file
        passes the hash check and is judged when read."""
        man = load_manifest(manifest)
        entry = next(a for a in man["artifacts"] if a["path"] == snap.name)
        entry.update(sha256=sha256_of(snap), bytes=snap.stat().st_size)
        manifest.write_text(json.dumps(man))

    def test_snapshot_in_physical_representation(self, tmp_path):
        # node 3 rewritten as physical values (flag 0) and re-hashed into the
        # manifest is read by its own flag: the run is the untouched base's
        # to roundoff (read as frequency data it would not be)
        cfg_path, manifest = self._saved_base(tmp_path)
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "frequency")]) == 0
        snap = manifest.parent / "field_0003.glpf"
        write_physical_snapshot(read_snapshot(snap), snap)
        self._rehash(manifest, snap)
        assert int.from_bytes(snap.read_bytes()[24:28], "little") == 0
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "mixed")]) == 0
        frequency, mixed = (np.loadtxt(tmp_path / name / "decay.csv", delimiter=",",
                                       skiprows=1) for name in ("frequency", "mixed"))
        np.testing.assert_allclose(mixed, frequency, rtol=1e-10, atol=0)

    def test_snapshot_shorter_than_its_header_rejected(self, tmp_path, capsys):
        # node 3 cut to 6 bytes and re-hashed into the manifest: it passes the
        # hash check and is rejected when read
        cfg_path, manifest = self._saved_base(tmp_path)
        snap = manifest.parent / "field_0003.glpf"
        snap.write_bytes(snap.read_bytes()[:6])
        self._rehash(manifest, snap)
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base snapshot rejected: ")
        assert "field_0003.glpf: shorter than the 28-byte" in err and err.count("\n") == 1

    def test_snapshot_with_unknown_flag_rejected(self, tmp_path, capsys):
        # node 3's representation flag set to 2 and re-hashed into the
        # manifest: neither physical nor frequency data, so no run
        cfg_path, manifest = self._saved_base(tmp_path)
        snap = manifest.parent / "field_0003.glpf"
        raw = bytearray(snap.read_bytes())
        raw[24:28] = (2).to_bytes(4, "little")
        snap.write_bytes(bytes(raw))
        self._rehash(manifest, snap)
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base snapshot rejected: ")
        assert "field_0003.glpf: unknown snapshot representation flag 2" in err
        assert err.count("\n") == 1 and not (tmp_path / "stab" / "decay.csv").exists()

    def test_base_with_an_even_part_rejected(self, tmp_path, capsys):
        # node 3 given an even part of 1e-6 of its peak and re-hashed into
        # the manifest: one line, and no decay files
        cfg_path, manifest = self._saved_base(tmp_path)
        snap = manifest.parent / "field_0003.glpf"
        field = read_snapshot(snap)
        grid = field.grid
        even = np.fft.fftn(np.exp(-grid.x_abs ** 2 / 8.0).astype(complex))
        even *= 1e-6 * np.abs(field.data).max() / np.abs(even).max()
        write_snapshot(type(field)(grid, field.data + even), snap)
        self._rehash(manifest, snap)
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid stability base: base is not odd on "
                              "the lattice: its even part exceeds 1e-12")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "stab" / "decay.csv").exists()

    def test_base_without_snapshots_rejected(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        code = main(["stability", "--config", str(cfg_path),
                     "--base", str(tmp_path / "out" / "manifest.json")])
        assert code == 3

    @pytest.mark.parametrize("edit", ["root", "headline"])
    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, capsys, edit):
        # a JSON list in place of the manifest, or of its headline
        cfg_path, manifest = self._saved_base(tmp_path)
        man = load_manifest(manifest)
        if edit == "root":
            man = [1, 2]
        else:
            man["headline"] = [1, 2]
        manifest.write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base manifest") and "not a JSON object" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tampered_snapshot_rejected(self, tmp_path, capsys):
        cfg_path, manifest = self._saved_base(tmp_path)
        snap = tmp_path / "base" / "field_0003.glpf"
        raw = bytearray(snap.read_bytes())
        raw[-1] ^= 0xFF
        snap.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "hash mismatch: field_0003.glpf" in err

    @pytest.mark.parametrize("grid", [{"box_length": 16.0}, {"dealias_fraction": 0.5}],
                             ids=["box_length", "dealias_fraction"])
    def test_grid_mismatch_rejected(self, tmp_path, capsys, grid):
        _, manifest = self._saved_base(tmp_path)
        (tmp_path / "other").mkdir()
        other = _small_config(tmp_path / "other", grid=grid)
        capsys.readouterr()
        assert main(["stability", "--config", str(other), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base grid") and err.count("\n") == 1

    def test_period_mismatch_rejected(self, tmp_path, capsys):
        _, manifest = self._saved_base(tmp_path)
        (tmp_path / "other").mkdir()
        other = _small_config(tmp_path / "other", period=2.0,
                              stability={"t_max": 20.0, "record_stride": 2})
        capsys.readouterr()
        assert main(["stability", "--config", str(other), "--base", str(manifest),
                     "--out", str(tmp_path / "stab")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base period") and err.count("\n") == 1

    def test_base_honours_dealias_fraction(self, tmp_path):
        # a saved base run must step exactly like the inline one, on the
        # config's own (non-default) dealias fraction
        cfg_path, manifest = self._saved_base(tmp_path, grid={"dealias_fraction": 0.5})
        assert main(["stability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "inline")]) == 0
        assert main(["stability", "--config", str(cfg_path), "--base", str(manifest),
                     "--out", str(tmp_path / "saved")]) == 0
        assert ((tmp_path / "saved" / "decay.csv").read_text()
                == (tmp_path / "inline" / "decay.csv").read_text())

    def test_short_fit_window_is_strict_json(self, tmp_path):
        # samples every 2.0 put only t = 2, 4, 6 in the window [1, 6.48]
        cfg_path = _small_config(tmp_path, stability={"t_max": 10.0,
                                                      "record_stride": 32})
        assert main(["stability", "--config", str(cfg_path)]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        out = tmp_path / "out"
        decay = json.loads((out / "decay.json").read_text(), parse_constant=reject)
        headline = json.loads((out / "manifest.json").read_text(),
                              parse_constant=reject)["headline"]
        for summary in (decay, headline):
            assert summary["fitted_slope_l0"] is None
            assert summary["fit_r2_l1"] is None
            assert "8 samples" in summary["fit_reason"]

    def test_step_telemetry_in_headline_not_in_artifact(self, tmp_path):
        # decay.json is hashed into the manifest, so it carries counts but no
        # timing and a rerun writes the same bytes; the headline adds the
        # step loop's seconds
        cfg_path = _small_config(tmp_path)
        for out in ("r1", "r2"):
            assert main(["stability", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)]) == 0
        assert sha256_of(tmp_path / "r1" / "decay.json") == sha256_of(
            tmp_path / "r2" / "decay.json")
        decay = json.loads((tmp_path / "r1" / "decay.json").read_text())
        headline = load_manifest(tmp_path / "r1" / "manifest.json")["headline"]
        assert decay["steps"] == headline["steps"] == 10 * 16
        assert decay["rhs_evals"] == headline["rhs_evals"] == 10 * 16 + 1
        assert "step_loop" not in decay
        assert headline["step_loop"]["runtime_s"] > 0

    @pytest.mark.parametrize("overrides, layout", [
        ({}, {"antiperiodic": True, "nodes_held": 8}),
        ({"forcing": {"temporal_profile": "harmonic", "harmonic": 2}},
         {"antiperiodic": False, "nodes_held": 16}),
        ({"stability": {"t_max": 10.0, "record_stride": 2, "linear_only": True}},
         {"antiperiodic": None, "nodes_held": 0}),
        ({"stability": {"axis": 1}},
         {"antiperiodic": True, "nodes_held": 8, "parity": None, "modes_per_node": 256}),
    ], ids=["antiperiodic", "harmonic-2", "linear", "mixed-axis"])
    def test_base_layout_in_headline_not_in_artifact(self, tmp_path, overrides, layout,
                                                     capsys):
        # the base the run held (m_t = 16): half its nodes when antiperiodic,
        # every node when not, none in a linear run; and the layout stepped:
        # the quadrant (planes 0..8 of both axes) when w0 and the base are
        # both odd in x_0 and even in x_1, else the whole lattice (w0 odd in
        # x_1). The headline records it without printing it; decay.json
        # names none of it
        cfg_path = _small_config(tmp_path, **overrides)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        headline = load_manifest(tmp_path / "out" / "manifest.json")["headline"]
        assert headline["base"] == {"parity": [-1, 1], "modes_per_node": 81, **layout}
        assert "base" not in json.loads((tmp_path / "out" / "decay.json").read_text())
        assert not {"parity", "modes_per_node", "nodes_held"} & set(
            capsys.readouterr().out.split())

    def test_escape_is_finding_not_failure(self, tmp_path):
        cfg_path = _small_config(tmp_path, stability={"t_max": 10.0,
                                                      "amplitude": 10.0,
                                                      "record_stride": 2})
        assert main(["stability", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "decay.json").read_text())
        assert summary["escaped"] is True


class TestVerifyCommand:
    def test_manifest_indexes_the_checks(self, tmp_path):
        # the config echo, versions, the hash of checks.json and a headline
        # with the verdict and the battery count; the one timing sits under
        # runtime_s, which bench/run.py strips when it compares runs
        cfg_path = _small_config(tmp_path)
        assert main(["verify", "--config", str(cfg_path)]) == 0
        path = tmp_path / "out" / "manifest.json"
        assert verify_manifest(path) == []
        man = load_manifest(path)
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert [a["path"] for a in man["artifacts"]] == ["checks.json"]
        assert man["config"]["seed"] == 7 and man["config"]["verify"]["samples"] == 20
        assert man["versions"]["fft_backend"] == "numpy.fft"
        assert man["headline"]["all_passed"] is True
        assert man["headline"]["batteries"] == len(checks)
        assert man["headline"]["run_all_checks"]["runtime_s"] > 0
        (tmp_path / "out" / "checks.json").write_text("[]")
        assert verify_manifest(path) == ["hash mismatch: checks.json"]

    def test_default_seed_passes(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["verify", "--config", str(cfg_path)]) == 0
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert checks and all(c["passed"] for c in checks)

    def test_seed_override_changes_constants(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "a"),
              "--seed", "1"])
        main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--seed", "2"])
        a = json.loads((tmp_path / "a" / "checks.json").read_text())
        b = json.loads((tmp_path / "b" / "checks.json").read_text())
        assert [c["passed"] for c in a] == [c["passed"] for c in b]
        assert any(x["fitted_constant"] != y["fitted_constant"]
                   for x, y in zip(a, b))


class TestMalformedInput:
    """Bad inputs end in exit 2 with a one-line message, not a traceback."""

    @pytest.mark.parametrize("command, overrides, threads", [
        (["solve-periodic"], {"grid": {"dim": None}}, None),
        (["verify"], {"verify": {"grid": {"dim": None}}}, None),
        (["solve-periodic"], {"period": None}, None),
        (["solve-periodic"], {"solve": {"m_t": None}}, None),
        (["solve-periodic"], {"solve": {"m_t": 4}}, None),
        (["sweep", "--axis", "epsilon"], {}, "abc"),
        (["sweep", "--axis", "epsilon"], {}, "-1"),
        (["stability"], {"stability": {"t_max": 5.0}}, None),
        (["stability"], {"stability": {"t_max": None}}, None),
        (["stability"], {"stability": {"record_stride": 0}}, None),
        (["stability"], {"stability": {"order": 3}}, None),
        (["stability"], {"stability": {"axis": 5}}, None),
        (["stability"], {"stability": {"sigma": -1.0}}, None),
        (["verify"], {"verify": {"grid": None}}, None),
        (["sweep", "--axis", "epsilon"], {"sweep": {"epsilon": [None]}}, None),
        (["solve-periodic"], {"forcing": {"spatial_profile": "custom"}}, None),
        (["verify"], {"verify": {"solve_amplitude": 0}}, None),
        (["verify"], {"verify": {"samples": 0}}, None),
        (["verify"], {"verify": {"samples": -3}}, None),
        (["verify"], {"verify": {"m_t": 4}}, None),
        (["verify"], {"verify": {"grid": {"n_per_axis": 6}}}, None),
        (["verify"], {"verify": {"solve_amplitude": -1}}, None),
        (["sweep", "--axis", "m_t"], {"sweep": {"m_t": [4]}}, None),
        (["sweep", "--axis", "n"], {"sweep": {"n": [6]}}, None),
        (["sweep", "--axis", "epsilon"], {"sweep": {"epsilon": [-1]}}, None),
        (["stability", "--base", "."], {}, None),
    ], ids=["grid-dim-null", "verify-grid-dim-null", "period-null", "m_t-null", "m_t-4",
            "threads-abc", "threads-negative", "t_max-below-10-periods",
            "t_max-null", "record_stride-0", "order-3", "perturbation-axis-5",
            "perturbation-sigma-negative", "verify-grid-null",
            "sweep-epsilon-null", "forcing-custom-profile", "verify-zero-amplitude",
            "verify-samples-0", "verify-samples-negative", "verify-m_t-4",
            "verify-grid-n-6", "verify-amplitude-negative", "sweep-m_t-4", "sweep-n-6",
            "sweep-epsilon-negative", "base-artifact-is-a-directory"])
    def test_exit_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                  command, overrides, threads):
        if threads is not None:
            monkeypatch.setenv("GLPERIOD_THREADS", threads)
        cfg_path = _small_config(tmp_path, **overrides)
        if "--base" in command:  # a converged base whose artifact index names a directory
            manifest = tmp_path / "base" / "manifest.json"
            manifest.parent.mkdir()
            manifest.write_text(json.dumps({
                "config": load_config(cfg_path), "headline": {"converged": True},
                "artifacts": [{"path": command[-1], "sha256": "0" * 64, "bytes": 0}]}))
            command = command[:-1] + [str(manifest)]
        assert main(command + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # a bad verify or sweep value is named by the key the user wrote,
        # not by the solve key it is copied into
        for key in _leaf_keys({k: overrides[k] for k in ("verify", "sweep") if k in overrides}):
            assert key in err

    @pytest.mark.parametrize("command, zero", [
        ("solve-periodic", {}), ("stability", {}), ("verify", {}), ("sweep", {}),
        ("solve-periodic", {"forcing": {"amplitude": 0}}),
        ("stability", {"forcing": {"amplitude": 0}}),
        ("sweep", {"sweep": {"epsilon": [0.0]}}),
    ], ids=["solve-periodic", "stability", "verify", "sweep",
            "solve-periodic-eps-0", "stability-eps-0", "sweep-eps-0"])
    @pytest.mark.parametrize("forcing", [{"axis": 5}, {"sigma": -1.0}, {"sigma": 8.0}],
                             ids=["axis-5", "sigma-negative", "sigma-wide"])
    def test_forcing_that_cannot_be_realized(self, tmp_path, capsys, command, zero, forcing):
        # stability solves its base inline; sigma 8 = L/4 does not decay at the seam;
        # a sweep's rows share the forcing, so the sweep ends on the first row's error;
        # at amplitude 0 (eps-0) the profile is realized and checked all the same
        cfg_path = _small_config(tmp_path, forcing={**forcing, **zero.get("forcing", {})},
                                 sweep=zero.get("sweep", {}))
        axis = ["--axis", "epsilon"] if command == "sweep" else []
        assert main([command, "--config", str(cfg_path)] + axis) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid forcing config: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, overrides, key", [
        ("solve-periodic", {"forcing": {"amplitude": float("nan")}}, "forcing.amplitude"),
        ("stability", {"forcing": {"amplitude": float("nan")}}, "forcing.amplitude"),
        ("verify", {"verify": {"solve_amplitude": float("nan")}}, "verify.solve_amplitude"),
        ("stability", {"stability": {"amplitude": float("nan")}}, "stability.amplitude"),
        ("stability", {"stability": {"amplitude": float("inf")}}, "stability.amplitude"),
    ], ids=["solve", "stability-base", "verify", "perturbation", "perturbation-inf"])
    def test_non_finite_amplitude(self, tmp_path, capsys, command, overrides, key):
        # JSON NaN and Infinity, which the config parser accepts, are not numbers
        cfg_path = _small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid {key}: ")
        assert err.endswith(" is not a number\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("seed", ["abc", None, -1])
    def test_seed_that_is_not_a_non_negative_integer(self, tmp_path, capsys, seed):
        cfg_path = _small_config(tmp_path, seed=seed)
        assert main(["verify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid seed: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve-periodic", "stability", "verify", "sweep"])
    @pytest.mark.parametrize("out", [5, "a_file"], ids=["number", "file"])
    def test_output_dir_that_is_not_a_directory(self, tmp_path, capsys, command, out):
        if out == "a_file":
            out = str(tmp_path / out)
            Path(out).write_text("")
        cfg_path = _small_config(tmp_path, output={"dir": out})
        axis = ["--axis", "epsilon"] if command == "sweep" else []
        assert main([command, "--config", str(cfg_path)] + axis) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert ("must be a path string; got 5" if out == 5 else "File exists") in err

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # 100000^3 complex points: numpy refuses the 7 PiB mesh at once, with
        # nothing touched
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"n_per_axis": 100000},
                                    "output": {"dir": str(tmp_path / "out")}}))
        assert main(["solve-periodic", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid grid.n_per_axis: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_forcing_not_odd_rejected_before_the_solve(self, tmp_path, monkeypatch, capsys):
        # sigma = 4.571 (L/14) on the reference grid decays at the seam but
        # is not odd by the solve's rule, so no whole-lattice solve runs
        def no_solve(*args):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli, "solve_periodic", no_solve)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"forcing": {"sigma": 4.571},
                                    "output": {"dir": str(tmp_path / "out")}}))
        assert main(["solve-periodic", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid forcing config: forcing "
                              "profile is not odd") and err.count("\n") == 1
        assert not (tmp_path / "out" / "report.json").exists()


class TestSweepCommand:
    def test_epsilon_axis(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--axis", "epsilon"]) == 0
        csv_text = (tmp_path / "out" / "sweep_epsilon.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("value,c_estimate,contraction_factor")

    def test_m_t_axis_reports_the_observed_order(self, tmp_path, capsys, monkeypatch):
        # log2 of the ratio of successive c_estimate differences, empty for
        # the first two rows: the reference's 0.0273780, 0.0275690 and
        # 0.0276172 read 1.99
        estimates = iter([0.0273780, 0.0275690, 0.0276172])
        monkeypatch.setattr(cli, "_sweep_row", lambda solve_args, value: {
            "value": value, "c_estimate": next(estimates), "contraction_factor": 0.5,
            "periodicity_residual": 1e-16, "runtime_s": 0.1, "error": ""})
        monkeypatch.setenv("GLPERIOD_THREADS", "1")
        cfg_path = _small_config(tmp_path, sweep={"m_t": [32, 64, 128]})
        assert main(["sweep", "--config", str(cfg_path), "--axis", "m_t"]) == 0
        with open(tmp_path / "out" / "sweep_m_t.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["value", "c_estimate", "observed_order", "contraction_factor",
                                 "periodicity_residual", "runtime_s", "error"]
        assert [r["observed_order"] for r in rows[:2]] == ["", ""]
        order = float(rows[2]["observed_order"])
        assert order == math.log2((0.0275690 - 0.0273780) / (0.0276172 - 0.0275690))
        assert round(order, 2) == 1.99
        header, *table = capsys.readouterr().out.splitlines()
        assert header.split() == ["m_t", "c_estimate", "order", "contraction", "periodicity",
                                  "runtime_s", "error"]
        assert table[2].split()[2] == "1.986"

    def test_epsilon_rows_hold_one_profile_each(self, tmp_path, monkeypatch):
        # every row's forcing is a(t_m) and one G_hat, not a series of m_t + 1 fields
        forcings, solve = [], cli.solve_periodic

        def recording(g, *args):
            forcings.append(g)
            return solve(g, *args)

        monkeypatch.setattr(cli, "solve_periodic", recording)
        cfg_path = _small_config(tmp_path, sweep={"epsilon": [1e-3, 3e-3, 1e-2]})
        assert main(["sweep", "--config", str(cfg_path), "--axis", "epsilon"]) == 0
        assert len(forcings) == 3
        for g in forcings:
            held = sum(v.nbytes for v in vars(g).values() if isinstance(v, np.ndarray))
            assert held == (g.grid.n ** g.grid.dim) * 16 + len(g) * 8

    def test_unknown_axis_rejected(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg_path), "--axis", "bogus"])

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLPERIOD_THREADS", "1")
        cfg_path = _small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--axis", "n"]) == 0

    def test_bad_row_ends_the_sweep_before_any_solve(self, tmp_path, monkeypatch, capsys):
        # n = 7 is no grid: the n = 16 row is not solved first
        def no_solve(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(cli, "solve_periodic", no_solve)
        cfg_path = _small_config(tmp_path, sweep={"n": [16, 7]})
        assert main(["sweep", "--config", str(cfg_path), "--axis", "n"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid grid config: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "sweep_n.csv").exists()

    def test_partial_failure_still_exits_zero(self, tmp_path):
        # one diverging amplitude, one fine: the failed row is recorded and
        # the sweep still succeeds
        import csv as csvmod
        cfg_path = _small_config(tmp_path, sweep={"epsilon": [1e-2, 200.0],
                                                  "m_t": [16], "n": [16]})
        assert main(["sweep", "--config", str(cfg_path), "--axis", "epsilon"]) == 0
        with open(tmp_path / "out" / "sweep_epsilon.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 2
        by_value = {float(r["value"]): r for r in rows}
        assert by_value[1e-2]["error"] == ""
        assert by_value[200.0]["error"] != ""
