import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbac_lab import cli
from dbac_lab.dbac import dbac_energy_analytic


def _write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigValidation:
    def test_minimal_config_fully_defaulted(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = sweep-theta\n"), out_override=tmp_path / "o"
        )
        assert cfg.s == (np.pi / 4,)
        assert cfg.phi == np.pi / 4
        assert cfg.k == 1 and cfg.m == (1,)
        assert cfg.seed == 0

    def test_no_config_with_subcommand(self, tmp_path):
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path)
        assert cfg.experiment == "trotter"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="wobble"):
            cli.validate_config(
                _write_cfg(tmp_path, "experiment = trotter\nwobble = 3\n"), out_override=tmp_path
            )

    def test_negative_m_names_field(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="m"):
            cli.validate_config(
                _write_cfg(tmp_path, "experiment = sweep-theta\nm = -1\n"), out_override=tmp_path
            )

    def test_single_point_grid_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="theta_count"):
            cli.validate_config(
                _write_cfg(tmp_path, "experiment = sweep-theta\ntheta_count = 1\n"),
                out_override=tmp_path,
            )

    def test_degree_suffix_accepted(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = trajectory\ntheta = 90deg\nm = exact\n"),
            out_override=tmp_path,
        )
        assert cfg.theta == pytest.approx(np.pi / 2)
        assert cfg.m is None

    def test_experiment_subcommand_mismatch(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.validate_config(
                _write_cfg(tmp_path, "experiment = trotter\n"),
                experiment="sweep-theta",
                out_override=tmp_path,
            )

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="does not exist"):
            cli.validate_config(tmp_path / "nope.txt", out_override=tmp_path)

    def test_workers_below_one_rejected(self, tmp_path):
        # --workers is a no-op, but configs that set it are still checked
        with pytest.raises(cli.ConfigError, match="workers"):
            cli.validate_config(None, experiment="trotter", out_override=tmp_path, workers_override=0)

    def test_missing_out_dir(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="out"):
            cli.validate_config(_write_cfg(tmp_path, "experiment = trotter\n"))


class TestRunners:
    def test_sweep_theta_analytic_column(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(
                tmp_path,
                "experiment = sweep-theta\ntheta_count = 181\nk = 1\nm = 1\n"
                "s = 0.7853981633974483\n",
            ),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "sweep_theta.csv").read_text().splitlines()
        assert rows[0] == "theta,E_target,E_instr_1,E_analytic"
        assert len(rows) == 182
        for line in rows[1:]:
            theta, _, _, e_analytic = (float(v) for v in line.split(","))
            assert abs(e_analytic - dbac_energy_analytic(-np.cos(theta), np.pi / 4)) < 1e-9

    def test_trotter_csv_slope(self, tmp_path):
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out", seed_override=5)
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "trotter.csv").read_text().splitlines()[1:]
        ms, errs = [], []
        for line in rows:
            _, m, err = line.split(",")
            if int(m) in (1, 2, 4, 8, 16, 32, 64):
                ms.append(int(m))
                errs.append(float(err))
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_manifest_lists_every_file(self, tmp_path):
        cfg = cli.validate_config(None, experiment="ptm", out_override=tmp_path / "out")
        manifest = cli.run_config(cfg)
        emitted = {
            p.name for p in (tmp_path / "out").iterdir() if p.name != "results_manifest.json"
        }
        assert set(manifest["files"]) == emitted
        assert len(emitted) >= 9

    def test_deterministic_reruns(self, tmp_path):
        text = "experiment = sweep-theta\ntheta_count = 7\nseed = 11\n"
        sums = []
        for name in ("a", "b"):
            cfg = cli.validate_config(_write_cfg(tmp_path, text, f"{name}.txt"), out_override=tmp_path / name)
            sums.append(cli.run_config(cfg)["files"])
        assert sums[0] == sums[1]

    def test_trajectory_exact(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = trajectory\ntheta = 1.2\nk = 3\nm = exact\ns = 0.6\n"),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "step,x,y,z"
        assert len(rows) == 5  # header + k+1 states

    def test_baselines_rows(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = baselines\nrounds = 3\n"), out_override=tmp_path / "out"
        )
        cli.run_config(cfg)
        text = (tmp_path / "out" / "baselines.csv").read_text()
        assert "hbac,target_polarization" in text
        assert "cem,p_success" in text

    def test_failed_stage_recorded_in_manifest(self, tmp_path, monkeypatch):
        def boom(cfg, out):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli.run_config.__globals__, "_run_trotter", boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(RuntimeError, match="manifest records"):
            cli.run_config(cfg)
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["failed_stage"]["error"] == "RuntimeError: synthetic failure"

    def test_grid_km_with_exact(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = grid-km\nk_list = 1\nm_list = 1,exact\n"),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "grid_km.csv").read_text().splitlines()
        assert rows[0] == "k,M,s_opt,F_min_basin"
        assert rows[1].startswith("1,1,") and rows[2].startswith("1,exact,")


class TestInProcessMain:
    def test_long_dme_chain_trajectory_exits_zero(self, tmp_path):
        cfg = _write_cfg(tmp_path, "experiment = trajectory\ntheta = 2.0\nk = 6\nm = 8\ns = 0.8\n")
        assert cli.main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 8  # header + k+1 states

    def test_exit_three_on_runtime_failure(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, out):
            raise ValueError("synthetic\nfailure")

        monkeypatch.setattr(cli, "_run_trotter", boom)
        assert cli.main(["trotter", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "ValueError: synthetic failure" in err
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["failed_stage"]["error"] == "ValueError: synthetic\nfailure"

    def test_runtime_failure_chains_its_cause(self, tmp_path, monkeypatch):
        def boom(cfg, out):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli, "_run_trotter", boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(cli.RunError) as info:
            cli.run_config(cfg)
        assert isinstance(info.value.__cause__, ValueError)


class TestCommandLine:
    def _run(self, *args):
        # the child imports dbac_lab from where this process did, installed or not
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run(
            [sys.executable, "-m", "dbac_lab.cli", *args], capture_output=True, text=True, env=env
        )

    def test_exit_zero_on_success(self, tmp_path):
        proc = self._run("trotter", "--out", str(tmp_path / "out"), "--seed", "1")
        assert proc.returncode == 0
        assert (tmp_path / "out" / "results_manifest.json").exists()

    def test_exit_one_on_config_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("experiment = trotter\nm_max = 0\n")
        proc = self._run("trotter", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "m_max" in proc.stderr

    def test_workers_option_matches_serial(self, tmp_path):
        a = self._run("sweep-theta", "--out", str(tmp_path / "a"), "--workers", "1")
        b = self._run("sweep-theta", "--out", str(tmp_path / "b"), "--workers", "2")
        assert a.returncode == 0 and b.returncode == 0
        fa = json.loads((tmp_path / "a" / "results_manifest.json").read_text())["files"]
        fb = json.loads((tmp_path / "b" / "results_manifest.json").read_text())["files"]
        assert fa == fb


class TestIgnoredNoiseRejected:
    @pytest.mark.parametrize(
        "text",
        [
            "experiment = sweep-theta\nnoise_t1_us = 0.01\n",
            "experiment = trajectory\nm = 2\nnoise_t1_us = 0.01\nnoise_t2_us = 0.01\n",
            "experiment = trajectory\nm = exact\nnoise_p1 = 0.01\n",
            "experiment = trajectory\nm = exact\nnoise_p2 = 0.01\n",
            "experiment = ptm\nnoise_t2_us = 5\n",
            "experiment = ptm\nnoise_p1 = 0.01\nnoise_t2_us = 5\n",
            "experiment = grid-km\nnoise_p2 = 0.01\n",
        ],
    )
    def test_exit_one(self, tmp_path, capsys, text):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ("noise_" in err or "t2 requires t1" in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = sweep-theta\ntheta_count = 3\nnoise_p1 = 0.01\nnoise_p2 = 0.01\n",
            "experiment = trajectory\nm = 2\nnoise_p2 = 0.01\n",
            "experiment = ptm\nphi_list = 0.3\nnoise_t1_us = 50\nnoise_t2_us = 60\n",
        ],
    )
    def test_applied_noise_accepted(self, tmp_path, text):
        cfg = cli.validate_config(_write_cfg(tmp_path, text), out_override=tmp_path / "out")
        assert cfg.noise() is not None


class TestUnusableValuesRejected:
    # each of these passed validation and then exited 3 as a runtime error
    @pytest.mark.parametrize(
        "text, names_line",
        [
            ("experiment = trajectory\nm = 2\ntheta = nan\n", True),
            ("experiment = trajectory\nm = exact\ntheta = -inf deg\n", True),
            ("experiment = sweep-theta\ntheta_stop = nan\n", True),
            ("experiment = grid-km\ntheta = 0\n", False),
            ("experiment = grid-km\ntheta = 180deg\n", False),
            ("experiment = ptm\nnoise_t1_us = nan\n", False),
        ],
    )
    def test_exit_one(self, tmp_path, capsys, text, names_line):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ("line " in err) == names_line
        assert not (tmp_path / "out").exists()
