"""Configuration, manifests and the command line interface."""

import json

import pytest

from glperiod.cli import main
from glperiod.config import load_config, reference_config
from glperiod.errors import ConfigError
from glperiod.manifest import load_manifest, sha256_of, verify_manifest


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


class TestConfig:
    def test_reference_defaults_load(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg == reference_config()

    def test_shipped_reference_config_matches_defaults(self):
        from pathlib import Path
        shipped = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        assert json.loads(shipped.read_text()) == reference_config()

    def test_override_merging(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"forcing": {"amplitude": 0.5}}))
        cfg = load_config(path)
        assert cfg["forcing"]["amplitude"] == 0.5
        assert cfg["forcing"]["axis"] == 0  # untouched default

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
        csv_text = (tmp_path / "out" / "decay.csv").read_text()
        assert csv_text.startswith("t,l2_w,h1_grad_w,n1,n2,n")

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

    def test_missing_base_exit(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        code = main(["stability", "--config", str(cfg_path),
                     "--base", str(tmp_path / "missing.json")])
        assert code == 2

    def test_base_without_snapshots_rejected(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["solve-periodic", "--config", str(cfg_path)]) == 0
        code = main(["stability", "--config", str(cfg_path),
                     "--base", str(tmp_path / "out" / "manifest.json")])
        assert code == 3

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

    def test_escape_is_finding_not_failure(self, tmp_path):
        cfg_path = _small_config(tmp_path, stability={"t_max": 10.0,
                                                      "amplitude": 10.0,
                                                      "record_stride": 2})
        assert main(["stability", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "decay.json").read_text())
        assert summary["escaped"] is True


class TestVerifyCommand:
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
    ], ids=["grid-dim-null", "verify-grid-dim-null", "period-null", "m_t-null",
            "threads-abc", "threads-negative", "t_max-below-10-periods",
            "t_max-null", "record_stride-0", "order-3", "perturbation-axis-5",
            "perturbation-sigma-negative", "verify-grid-null",
            "sweep-epsilon-null", "forcing-custom-profile"])
    def test_exit_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                  command, overrides, threads):
        if threads is not None:
            monkeypatch.setenv("GLPERIOD_THREADS", threads)
        cfg_path = _small_config(tmp_path, **overrides)
        assert main(command + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestSweepCommand:
    def test_epsilon_axis(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--axis", "epsilon"]) == 0
        csv_text = (tmp_path / "out" / "sweep_epsilon.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("value,c_estimate,contraction_factor")

    def test_unknown_axis_rejected(self, tmp_path):
        cfg_path = _small_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg_path), "--axis", "bogus"])

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLPERIOD_THREADS", "1")
        cfg_path = _small_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--axis", "n"]) == 0

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
