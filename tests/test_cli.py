import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
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

    def test_phi_key_exits_one(self, tmp_path, capsys):
        # no experiment reads a single phi (ptm takes phi_list), so the key is unknown
        cfg = _write_cfg(tmp_path, "experiment = ptm\nphi = 0.3\n")
        assert cli.main(["ptm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'phi'" in err
        assert not (tmp_path / "out").exists()

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


# key -> (value text, parsed attribute): one row per config key
_KEY_ROWS = {
    "experiment": ("ptm", "ptm"),
    "out": ("results/ptm", "results/ptm"),
    "seed": ("7", 7),
    "workers": ("2", 2),
    "k": ("3", 3),
    "m": ("exact", None),
    "s": ("0.25, 0.5", (0.25, 0.5)),
    "recursion": ("fresh", "fresh"),
    "theta": ("45deg", np.pi / 4),
    "theta_start": ("0.5", 0.5),
    "theta_stop": ("2.5", 2.5),
    "theta_count": ("5", 5),
    "s_start": ("0.125", 0.125),
    "s_stop": ("1.5", 1.5),
    "s_count": ("8", 8),
    "k_list": ("2, 4", (2, 4)),
    "m_list": ("1,exact", (1, None)),
    "f_target": ("0.75", 0.75),
    "t": ("0.5", 0.5),
    "m_max": ("16", 16),
    "rounds": ("4", 4),
    "eps0": ("0.25", 0.25),
    "eps_bath": ("-0.5", -0.5),
    "x0": ("0.125", 0.125),
    "phi_list": ("0.5,1", (0.5, 1.0)),
    "noise_p1": ("0.01", 0.01),
    "noise_p2": ("0.02", 0.02),
    "noise_t1_us": ("50", 50.0),
    "noise_t2_us": ("150", 150.0),
}


class TestEveryKeyParsed:
    def test_rows_cover_exactly_the_config_fields(self):
        assert set(_KEY_ROWS) == {f.name for f in fields(cli.ExperimentConfig)} - {"raw"}

    @pytest.mark.parametrize("key", sorted(_KEY_ROWS))
    def test_value_text_parsed(self, tmp_path, key):
        text, want = _KEY_ROWS[key]
        # ptm applies every noise key; t2 needs a t1 of at least half its value
        lines = {"experiment": "ptm", "out": "out", "noise_t1_us": "100", key: f" {text} "}
        cfg = cli.validate_config(_write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in lines.items())))
        got = getattr(cfg, key)
        assert got == (pytest.approx(want, rel=1e-15) if isinstance(want, float) else want)
        assert type(got) is type(want) and cfg.raw[key] == text


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

    def test_sweep_s_is_one_engine_pass(self, tmp_path, monkeypatch):
        # k * M kernel calls over all theta_count * s_count points, not
        # theta_count * k * M; rows run over s within each theta
        from dbac_lab import dbac

        calls = []
        swap = dbac.partial_swap

        def counting_swap(sig, step):
            calls.append(np.shape(sig))
            return swap(sig, step)

        monkeypatch.setattr(dbac, "partial_swap", counting_swap)
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = sweep-s\nk = 3\nm = 2\ntheta_count = 5\ns_count = 7\n"),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        assert calls == [(3, 5 * 7)] * (3 * 2)
        rows = [
            [float(v) for v in line.split(",")]
            for line in (tmp_path / "out" / "sweep_s.csv").read_text().splitlines()[1:]
        ]
        thetas = np.linspace(cfg.theta_start, cfg.theta_stop, 5)
        svals = np.linspace(cfg.s_start, cfg.s_stop, 7)
        assert len(rows) == 35
        for i, theta in enumerate(thetas):
            fids = dbac.final_fidelities_over_s(float(theta), 3, 2, svals, cfg.recursion)
            for j, (s, f) in enumerate(zip(svals, fids)):
                assert rows[7 * i + j] == pytest.approx([theta, s, f], abs=1e-11)

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

    def test_acceptance_reruns_write_identical_bytes(self, tmp_path):
        # runtimes vary between runs, so they go to the manifest, not acceptance.json
        texts, manifests = [], []
        for name in ("a", "b"):
            cfg = cli.validate_config(None, "acceptance", out_override=tmp_path / name)
            manifests.append(cli.run_config(cfg))
            texts.append((tmp_path / name / "acceptance.json").read_bytes())
        assert texts[0] == texts[1]
        assert manifests[0]["files"] == manifests[1]["files"]
        assert b"runtime_s" not in texts[0]
        for manifest in manifests:
            runtimes = manifest["acceptance"]["runtime_s"]
            assert list(runtimes) == [r["cid"] for r in json.loads(texts[0])["results"]]
            assert all(isinstance(t, float) and t >= 0.0 for t in runtimes.values())
            assert manifest["acceptance"]["failed"] == ["5d"]

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
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "trotter", boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(RuntimeError, match="manifest records"):
            cli.run_config(cfg)
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["failed_stage"]["error"] == "RuntimeError: synthetic failure"

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        # a 1-angle run into a directory holding a 4-angle run's files
        out = tmp_path / "out"
        cli.run_config(cli.validate_config(None, experiment="ptm", out_override=out))
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = ptm\nphi_list = 0.3\n"), out_override=out
        )
        manifest = cli.run_config(cfg)
        assert list(manifest["files"]) == ["ptm_analytic_0.csv", "ptm_compiled_0.csv", "ptm_fidelities.json"]
        assert (out / "ptm_analytic_3.csv").exists()  # the earlier run's files are left alone

    def test_failed_run_lists_no_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cli.run_config(cli.validate_config(None, experiment="trotter", out_override=out))

        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "trotter", boom)
        with pytest.raises(cli.RunError):
            cli.run_config(cli.validate_config(None, experiment="trotter", out_override=out))
        manifest = json.loads((out / "results_manifest.json").read_text())
        assert manifest["files"] == {} and "failed_stage" in manifest
        assert (out / "trotter.csv").exists()

    def test_grid_km_with_exact(self, tmp_path):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = grid-km\nk_list = 1\nm_list = 1,exact\n"),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "grid_km.csv").read_text().splitlines()
        assert rows[0] == "k,M,s_opt,F_min_basin"
        assert rows[1].startswith("1,1,") and rows[2].startswith("1,exact,")


# values whose text the writer must give exactly as f"{v:.12g}" (floats) or str(v)
_CELLS = [0.0, -0.0, 1e-17, 5e-324, 1e22, float("nan"), float("inf"), float("-inf"),
          0.9999999999999998, np.float64(np.pi), np.int32(-7), np.int64(2**40), 3, "exact"]


class TestWriter:
    @pytest.mark.parametrize("v", _CELLS, ids=lambda v: f"{type(v).__name__}({v})")
    def test_cell_text(self, v):
        want = str(v) if isinstance(v, (int, np.integer, str)) else f"{v:.12g}"
        expected = f"a,b\n{want},{want}\n".encode()
        assert cli._render("t.csv", (["a", "b"], [[v, v]])) == expected
        if isinstance(v, float):  # a float array takes the whole-table format
            assert cli._render("t.csv", (["a", "b"], np.array([[v, v]]))) == expected


class TestInProcessMain:
    def test_long_dme_chain_trajectory_exits_zero(self, tmp_path):
        cfg = _write_cfg(tmp_path, "experiment = trajectory\ntheta = 2.0\nk = 6\nm = 8\ns = 0.8\n")
        assert cli.main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 8  # header + k+1 states

    def test_exit_three_on_runtime_failure(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise ValueError("synthetic\nfailure")

        monkeypatch.setitem(cli._RUNNERS, "trotter", boom)
        assert cli.main(["trotter", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "ValueError: synthetic failure" in err
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["failed_stage"]["error"] == "ValueError: synthetic\nfailure"

    def test_write_failure_lists_files_written(self, tmp_path, monkeypatch):
        # b.csv's payload cannot be rendered; a.csv was already written
        def half(cfg):
            return {"a.csv": (["x"], [[1.5]]), "b.csv": None}

        monkeypatch.setitem(cli._RUNNERS, "trotter", half)
        assert cli.main(["trotter", "--out", str(tmp_path / "out")]) == 3
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["files"] == {"a.csv": hashlib.sha256(b"x\n1.5\n").hexdigest()}
        assert manifest["failed_stage"]["error"].startswith("TypeError: ")

    def test_runtime_failure_chains_its_cause(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise ValueError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "trotter", boom)
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
            ("experiment = baselines\neps0 = nan\n", False),
            ("experiment = baselines\neps_bath = nan\n", False),
            ("experiment = grid-km\nk_list = 0\n", False),
            ("experiment = grid-km\nm_list = 0\n", False),
            ("experiment = grid-km\nm_list = -2\n", False),
            # an empty list ran and emitted nothing: a header-only grid_km.csv or `[]`
            ("experiment = grid-km\nk_list =\n", False),
            ("experiment = grid-km\nm_list = ,\n", False),
            ("experiment = ptm\nphi_list = ,\n", False),
        ],
    )
    def test_exit_one(self, tmp_path, capsys, text, names_line):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ("line " in err) == names_line
        assert not (tmp_path / "out").exists()
