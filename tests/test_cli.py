import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbac_lab import cli, dbac
from dbac_lab.dbac import dbac_energy_analytic

from conftest import counted_swaps
from oracles import render_rows


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

    def test_duplicate_key_rejected(self, tmp_path):
        # the last value used to win silently, and the manifest showed only it
        cfg = _write_cfg(tmp_path, "experiment = trotter\nm_max = 3\n\nm_max = 5\n")
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_config(cfg, out_override=tmp_path / "out")
        assert str(info.value) == "line 4: duplicate key 'm_max' (first set on line 2)"

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
        # nothing reads the key, but configs that set it are still checked
        with pytest.raises(cli.ConfigError, match="^workers: "):
            cli.validate_config(_write_cfg(tmp_path, "experiment = trotter\nworkers = 0\n"), out_override=tmp_path)

    def test_missing_out_dir(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="out"):
            cli.validate_config(_write_cfg(tmp_path, "experiment = trotter\n"))

    @pytest.mark.parametrize("text, key", [("k = 3\ns = 0.1, 0.2\n", "s"), ("k = 3\nm = 1, 2\n", "m")])
    def test_per_step_lists_need_one_or_k_values(self, tmp_path, text, key):
        with pytest.raises(cli.ConfigError, match=f"^{key}: give one value or 3 per-step values, got 2$"):
            cli.validate_config(_write_cfg(tmp_path, "experiment = sweep-theta\n" + text), out_override=tmp_path)

    def test_per_step_lists_expand_to_k(self, tmp_path):
        text = "experiment = trajectory\nk = 3\ns = 0.1, 0.2, 0.3\nm = 2\n"
        cfg = cli.validate_config(_write_cfg(tmp_path, text), out_override=tmp_path)
        assert cfg.schedule.s == (0.1, 0.2, 0.3) and cfg.schedule.m == (2, 2, 2)

    def test_config_cannot_exist_unvalidated(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.ExperimentConfig()

    def test_config_is_frozen(self, tmp_path):
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 3
        assert cfg.seed == 0


class TestBuiltOnce:
    @pytest.mark.parametrize(
        "text",
        [
            "experiment = sweep-theta\ntheta_count = 3\nk = 2\nnoise_p1 = 0.01\n",
            "experiment = trajectory\nk = 2\nm = 2\nnoise_p2 = 0.01\n",
        ],
    )
    def test_one_schedule_and_noise_model_per_run(self, tmp_path, monkeypatch, text):
        # validation builds them and the runner reads what it built
        built = []
        for name in ("DbacSchedule", "NoiseModel"):
            cls = getattr(cli, name)

            def counting(*args, _cls=cls, **kwargs):
                built.append(_cls.__name__)
                return _cls(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        cfg = cli.validate_config(_write_cfg(tmp_path, text), out_override=tmp_path / "out")
        cli.run_config(cfg)
        assert sorted(built) == ["DbacSchedule", "NoiseModel"]

    def test_sweep_s_builds_no_schedule(self, tmp_path, monkeypatch):
        # sweep-s reads its grids and one common depth, never `s`: an `s` list
        # of the wrong length is not its concern
        built = []
        schedule = cli.DbacSchedule

        def counting(*args, **kwargs):
            built.append("DbacSchedule")
            return schedule(*args, **kwargs)

        monkeypatch.setattr(cli, "DbacSchedule", counting)
        text = "experiment = sweep-s\nk = 3\ns = 0.1, 0.2\ntheta_count = 3\ns_count = 4\n"
        cfg = cli.validate_config(_write_cfg(tmp_path, text), out_override=tmp_path / "out")
        cli.run_config(cfg)
        assert built == []
        assert len((tmp_path / "out" / "sweep_s.csv").read_text().splitlines()) == 1 + 3 * 4


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


# key -> (a value its rule rejects, the edge value it accepts): one row per key with a rule
_RULE_ROWS = {
    "seed": ("-1", "0"),
    "workers": ("0", "1"),
    "k": ("0", "1"),
    "m": ("1, 0", "1"),
    "recursion": ("chained", "fresh"),
    "theta_count": ("1", "2"),
    "s_count": ("1", "2"),
    "k_list": ("2, 0", "1"),
    "m_list": ("exact, 0", "1"),
    "f_target": ("nan", "5e-324"),
    "m_max": ("0", "1"),
    "rounds": ("0", "1"),
    "eps0": ("nan", "-1"),
    "eps_bath": ("nan", "1"),
    "x0": ("nan", "0"),
    "phi_list": (",", "0"),
    "noise_p1": ("nan", "1"),
    "noise_p2": ("nan", "1"),
}


class TestKeyRules:
    def test_rows_cover_exactly_the_keys_with_a_rule(self):
        assert set(_RULE_ROWS) == {f.name for f in fields(cli.ExperimentConfig) if f.metadata.get("rule")}

    @pytest.mark.parametrize("key", sorted(_RULE_ROWS))
    def test_rejected_value_names_its_key_alone(self, tmp_path, key):
        # ptm applies every noise key, so each key's own rule is all that can reject it
        rejected, edge = _RULE_ROWS[key]
        with pytest.raises(cli.ConfigError) as info:
            cli.validate_config(_write_cfg(tmp_path, f"{key} = {rejected}\n"), "ptm", out_override=tmp_path)
        assert str(info.value).startswith(f"{key}: ")
        cfg = cli.validate_config(_write_cfg(tmp_path, f"{key} = {edge}\n"), "ptm", out_override=tmp_path)
        assert cfg.raw == {key: edge}


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
        calls = counted_swaps(monkeypatch)
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = sweep-s\nk = 3\nm = 2\ntheta_count = 5\ns_count = 7\n"),
            out_override=tmp_path / "out",
        )
        cli.run_config(cfg)
        # k M - 1 whole swaps, then only the z plane of the last, all that is read
        assert calls == [("partial_swap", (3, 5 * 7))] * (3 * 2 - 1) + [("swap_z", (3, 5 * 7))]
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

    @pytest.mark.parametrize(
        "text", ["k = 5\nm = 3\n", "k = 30\nm = exact\n", "k = 30\nm = exact\nrecursion = fresh\n"],
        ids=["dme", "exact-chain", "exact-fresh"],
    )
    def test_trajectory_at_theta_zero_writes_no_negative_zero(self, tmp_path, text):
        # from |0> the state stays at the pole: its x and y are zeros, written as 0
        cfg = cli.validate_config(
            _write_cfg(tmp_path, "experiment = trajectory\ntheta = 0\n" + text), out_override=tmp_path / "out"
        )
        cli.run_config(cfg)
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[1:3]]
        assert "0" in cells and "-0" not in cells

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


def _per_row(rows) -> str:
    """The writer's text of a list table, one format lookup and `%` per row."""
    return "".join(cli._row_format(tuple(map(type, r))) % tuple(r) for r in rows)


class TestWholeTableFormat:
    @pytest.mark.parametrize(
        "experiment, text, name",
        [
            ("grid-km", "m_list = 1,exact,2\nk_list = 1,2\n", "grid_km.csv"),
            ("baselines", "rounds = 3\n", "baselines.csv"),
            ("ptm", "phi_list = 0.3,1.1\nnoise_p2 = 0.01\n", "ptm_noisy_1.csv"),
        ],
    )
    def test_list_table_matches_per_row_format(self, tmp_path, experiment, text, name):
        cfg = cli.validate_config(
            _write_cfg(tmp_path, f"experiment = {experiment}\n{text}"), out_override=tmp_path / "out"
        )
        header, rows = cli._RUNNERS[experiment](cfg)[name]
        assert isinstance(rows, list)
        if experiment == "grid-km":  # the M column mixes ints and `exact`
            assert {type(r[1]) for r in rows} == {int, str}
        assert cli._render(name, (header, rows)) == (",".join(header) + "\n" + _per_row(rows)).encode()

    @pytest.mark.parametrize("experiment", ["sweep-theta", "trotter", "trajectory"])
    def test_float_array_is_the_12_digit_join(self, tmp_path, experiment):
        cfg = cli.validate_config(None, experiment=experiment, out_override=tmp_path / "out")
        (name, (header, rows)), = cli._RUNNERS[experiment](cfg).items()
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        body = "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows.tolist())
        assert cli._render(name, (header, rows)) == (",".join(header) + "\n" + body).encode()

    def test_empty_table_is_its_header(self):
        assert cli._render("t.csv", (["a", "b"], [])) == b"a,b\n"


class TestWork:
    """`ExperimentConfig.work` is the partial-swap entry-steps a sweep-s run
    makes, and bounds those of a grid-km run: a swap entry-step is one entry
    of one search batch through one of its k·M swaps (k steps of one exact
    reflection each for m = exact)."""

    @staticmethod
    def _entry_steps(monkeypatch, cfg) -> int:
        seen = []
        final_energies = dbac._final_energies

        def counting(thetas, k, table, mode, counts=None):
            seen.append(table.cos_phi.size * k * (table.m or 1))
            return final_energies(thetas, k, table, mode, counts)

        monkeypatch.setattr(dbac, "_final_energies", counting)
        cli._RUNNERS[cfg.experiment](cfg)
        return sum(seen)

    @pytest.mark.parametrize(
        "text", ["theta_count = 5\ns_count = 7\nk = 3\nm = 2\n", "k = 2\nm = 4\nrecursion = fresh\ntheta_count = 2\n"]
    )
    def test_sweep_s_work_is_its_entry_steps(self, tmp_path, monkeypatch, text):
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="sweep-s", out_override=tmp_path / "out")
        assert cfg.work == cfg.theta_count * cfg.s_count * cfg.k * cfg.m[0] == self._entry_steps(monkeypatch, cfg)

    @pytest.mark.parametrize(
        "text",
        [
            "k_list = 1,2\nm_list = 1,exact,3\n",
            "k_list = 2\nm_list = exact\nrecursion = fresh\nf_target = 0.99\n",
            "k_list = 3\nm_list = 2\nf_target = 0.9999999\n",
        ],
    )
    def test_grid_km_work_bounds_its_entry_steps(self, tmp_path, monkeypatch, text):
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="grid-km", out_override=tmp_path / "out")
        cells = sum(k * (m or 1) for k in cfg.k_list for m in cfg.m_list)
        assert cfg.work == dbac.SEARCH_ENTRIES * cells >= self._entry_steps(monkeypatch, cfg)

    def test_grid_km_passes_are_bounded(self):
        # 17 passes: the optimal step's, one at each end of the basin interval
        # and one per halving of its width 1 - 2e-6 down to 1e-4
        halvings = int(np.ceil(np.log2((1 - 2e-6) / 1e-4)))
        assert dbac.SEARCH_ENTRIES == (1 + 2 + halvings) * (dbac.step_size_grid().size + dbac._WITNESSES)

    def test_default_configs_within_budget(self, tmp_path):
        for experiment in cli.EXPERIMENTS:
            cfg = cli.validate_config(None, experiment=experiment, out_override=tmp_path)
            assert cfg.work <= cli.WORK_BUDGET // 100 and cfg.cells <= cli.CELL_BUDGET // 100

    @pytest.mark.parametrize(
        "text, key",
        [
            ("theta_count = 100000\ns_count = 20000\n", "theta_count"),
            ("k = 400\nm = 2\ntheta_count = 10000\ns_count = 400\n", "theta_count"),
            ("k = 50000\nm = 3\n", "k"),
        ],
    )
    def test_largest_factor_is_named(self, tmp_path, capsys, text, key):
        cfg = _write_cfg(tmp_path, text)
        assert cli.main(["sweep-s", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "out").exists()


# floats whose text is easy to get wrong: a signed zero, an exponent form, the
# smallest subnormal, integral values
_CELL_FLOATS = st.one_of(
    st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, 3.0, -7.0]), st.floats(), st.integers(-(10**15), 10**15).map(float)
)


class TestCells:
    """`ExperimentConfig.cells` is the values a sweep-s or sweep-theta run's
    batch and table hold: one per (angle, step size) for sweep-s, and for
    sweep-theta one per state and instruction marginal of each angle's
    record, whose energies fill the angle's row."""

    @pytest.mark.parametrize("text", ["theta_count = 5\ns_count = 7\nk = 3\nm = 2\n", "theta_count = 2\ns_count = 3\n"])
    def test_sweep_s_cells_are_its_rows(self, tmp_path, text):
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="sweep-s", out_override=tmp_path / "out")
        header, axes, fids = cli._run_sweep_s(cfg)["sweep_s.csv"]
        assert cfg.cells == fids.size == cfg.theta_count * cfg.s_count

    @pytest.mark.parametrize(
        "text", ["theta_count = 5\nk = 3\nm = 2\n", "theta_count = 4\nk = 3\nm = 1,4,2\ns = 0.3\n", ""]
    )
    def test_sweep_theta_cells_are_its_record(self, tmp_path, monkeypatch, text):
        records = []
        via_dme = cli.dbac_via_dme
        monkeypatch.setattr(cli, "dbac_via_dme", lambda *args: records.append(via_dme(*args)) or records[-1])
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="sweep-theta", out_override=tmp_path / "out")
        (header, rows), = cli._run_sweep_theta(cfg).values()
        (rec,) = records
        assert cfg.cells == rec.energies.size + rec.instruction_energies.size
        n = len(header) - 3  # theta, E_target, E_analytic and one column per marginal
        assert rows.shape == (cfg.theta_count, len(header)) and cfg.cells == cfg.theta_count * (cfg.k + 1 + n)

    @pytest.mark.parametrize(
        "experiment, text, key",
        [
            ("sweep-s", "theta_count = 3000\ns_count = 2000\n", "theta_count"),
            ("sweep-s", "theta_count = 2000\ns_count = 2501\n", "s_count"),
            ("sweep-theta", "theta_count = 2000000\n", "theta_count"),
            ("sweep-theta", "k = 30000\nm = 1\n", "k"),
            ("sweep-theta", "k = 10\nm = 5000\n", "m"),
            ("sweep-theta", "k = 2\nm = 3,5000000\ntheta_count = 2\n", "m"),
            ("trajectory", "k = 2500000\nm = exact\n", "k"),
            ("trajectory", "k = 2\nm = 3,2500000\n", "m"),
            ("trotter", "m_max = 2500001\n", "m_max"),
            ("baselines", "rounds = 1250001\n", "rounds"),
        ],
    )
    def test_largest_factor_is_named(self, tmp_path, capsys, experiment, text, key):
        cfg = _write_cfg(tmp_path, text)
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        budget = f"{cli.CELL_BUDGET:.0e}"
        assert err == f"config error: {key}: the run's batch and table values would exceed the budget, {budget}\n"
        assert not (tmp_path / "out").exists()

    def test_budget_is_inclusive(self, tmp_path):
        cfg = _write_cfg(tmp_path, "theta_count = 2500\ns_count = 2000\n")
        assert cli.validate_config(cfg, experiment="sweep-s", out_override=tmp_path / "out").cells == cli.CELL_BUDGET

    @pytest.mark.parametrize("text", ["k = 3\nm = 2\n", "k = 4\nm = exact\n", "k = 3\nm = 1,4,2\ns = 0.3\n", ""])
    def test_trajectory_cells_are_twice_its_record(self, tmp_path, monkeypatch, text):
        records = []
        for name in ("dbac_via_dme", "dbac_recursive_exact"):
            engine = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, engine=engine: records.append(engine(*args)) or records[-1])
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="trajectory", out_override=tmp_path / "out")
        (header, rows), = cli._run_trajectory(cfg).values()
        (rec,) = records
        assert cfg.cells == 2 * (rec.energies.size + rec.instruction_energies.size) and len(rows) == cfg.k + 1

    @pytest.mark.parametrize(
        "experiment, text", [("trotter", "m_max = 7\n"), ("baselines", "rounds = 5\n"), ("trotter", "")]
    )
    def test_trotter_and_baselines_cells_weigh_their_rows(self, tmp_path, experiment, text):
        # 2 per trotter depth, one row each; 4 per baselines round, three rows each and two more
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment=experiment, out_override=tmp_path / "out")
        (header, rows), = cli._RUNNERS[experiment](cfg).values()
        assert cfg.cells == (2 * len(rows) if experiment == "trotter" else 4 * (len(rows) - 2) // 3)

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("trajectory", "k = 2499999\nm = exact\n"),
            ("trotter", "m_max = 2500000\n"),
            ("baselines", "rounds = 1250000\n"),
        ],
    )
    def test_new_terms_budget_is_inclusive(self, tmp_path, experiment, text):
        # validation only: each config at the budget's edge, whose run peaked at 0.6-1.0 GB
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment=experiment, out_override=tmp_path / "out")
        assert cfg.cells == cli.CELL_BUDGET


class TestProductTable:
    """A `(header, axes, values)` table gives the row writer's bytes for the
    rows of the axes' product, first axis slowest, each ending in its value."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        axes=st.lists(st.lists(_CELL_FLOATS, min_size=1, max_size=4), min_size=1, max_size=3),
        pool=st.lists(_CELL_FLOATS, min_size=1, max_size=24),
    )
    @example(axes=[[-0.5, -0.0], [1e-05, 5e15, 1e16]], pool=[5e-324, 1.0, -0.0])
    @example(axes=[[2.0], [-0.0]], pool=[1e16])  # one-value axes
    def test_gives_the_row_writers_bytes(self, axes, pool):
        axes = [np.array(a) for a in axes]
        values = np.resize(np.array(pool), [a.size for a in axes])
        points = [p.ravel() for p in np.meshgrid(*axes, indexing="ij")]
        rows = np.column_stack(points + [values.ravel()])
        header = [f"c{i}" for i in range(rows.shape[1])]
        assert cli._render("t.csv", (header, axes, values)) == render_rows(header, rows)

    def test_sweep_s_is_a_product_table(self, tmp_path):
        text = "theta_start = -0.5\ntheta_stop = -0\ns_start = 0.00001\ns_stop = 1e16\ntheta_count = 2\ns_count = 3\n"
        cfg = cli.validate_config(_write_cfg(tmp_path, text), experiment="sweep-s", out_override=tmp_path / "out")
        header, (thetas, svals), fids = cli._run_sweep_s(cfg)["sweep_s.csv"]
        assert fids.shape == (thetas.size, svals.size)
        rows = np.column_stack([np.repeat(thetas, svals.size), np.tile(svals, thetas.size), fids.ravel()])
        got = cli._render("sweep_s.csv", (header, (thetas, svals), fids))
        assert got == render_rows(header, rows)
        cells = [line.split(",")[:2] for line in got.decode().splitlines()[1:]]
        assert cells[3:] == [["-0", "1e-05"], ["-0", "5e+15"], ["-0", "1e+16"]]


class TestInProcessMain:
    @pytest.mark.parametrize("sub", ["", "x"], ids=["file", "path-through-file"])
    def test_unusable_out_is_a_config_error(self, tmp_path, capsys, sub):
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        out = blocker / sub if sub else blocker
        assert cli.main(["trotter", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and err.count("\n") == 1
        assert blocker.read_text() == "keep\n" and sorted(tmp_path.iterdir()) == [blocker]

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

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["sweep-theta", "--seed", "abc"], "--seed"),
            (["sweep-theta", "--bogus", "1"], "--bogus"),
            (["no-such-experiment"], "no-such-experiment"),
            (["acceptance", "--seed", "x"], "--seed"),
        ],
        ids=["bad-int", "unknown-option", "unknown-experiment", "acceptance-bad-int"],
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, argv, names):
        # exit 2 is kept for a failed acceptance gate
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and names in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_workers_option_is_a_usage_error(self, tmp_path, capsys):
        assert cli.main(["sweep-theta", "--workers", "2", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--workers" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dbac-lab")

    def test_write_failure_lists_files_written(self, tmp_path, monkeypatch):
        # b.csv's payload cannot be rendered; a.csv was already written
        def half(cfg):
            return {"a.csv": (["x"], [[1.5]]), "b.csv": None}

        monkeypatch.setitem(cli._RUNNERS, "trotter", half)
        assert cli.main(["trotter", "--out", str(tmp_path / "out")]) == 3
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["files"] == {"a.csv": hashlib.sha256(b"x\n1.5\n").hexdigest()}
        assert manifest["failed_stage"]["error"].startswith("TypeError: ")

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"k = 2\xff\n")
        assert cli.main(["sweep-theta", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fails", [False, True], ids=["run-ok", "run-failed"])
    def test_unwritable_manifest_is_a_runtime_error(self, tmp_path, monkeypatch, capsys, fails):
        # a directory in the manifest's place: the run's record cannot be written
        if fails:
            monkeypatch.setitem(cli._RUNNERS, "baselines", lambda cfg: 1 / 0)
        (tmp_path / "out" / "results_manifest.json").mkdir(parents=True)
        assert cli.main(["baselines", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot write results_manifest.json") and err.count("\n") == 1
        assert ("ZeroDivisionError" in err) == fails

    def test_runtime_failure_chains_its_cause(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise ValueError("synthetic failure")

        monkeypatch.setitem(cli._RUNNERS, "trotter", boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(cli.RunError) as info:
            cli.run_config(cfg)
        assert isinstance(info.value.__cause__, ValueError)


class TestCommandLine:
    def _run(self, *args, **kwargs):
        # the child imports dbac_lab from where this process did, installed or not
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run(
            [sys.executable, "-m", "dbac_lab.cli", *args], capture_output=True, text=True, env=env, **kwargs
        )

    @pytest.mark.parametrize(
        "experiment, text, key",
        [
            ("sweep-s", "m = 100000000000000000000\ns_count = 2\ntheta_count = 2\nk = 1\n", "m"),
            ("grid-km", "m_list = 100000000000000000000\n", "m_list"),
        ],
    )
    def test_work_over_budget_is_a_config_error(self, tmp_path, experiment, text, key):
        # both ran without end; now refused at validation, before any
        # allocation, in a child limited to 2 GB of address space
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

        cfg = _write_cfg(tmp_path, text)
        proc = self._run(experiment, "--config", str(cfg), "--out", str(tmp_path / "out"), preexec_fn=limit, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {key}: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("sweep-s", "theta_count = 40000\ns_count = 25000\nk = 1\nm = 1\n"),
            ("sweep-theta", "theta_count = 50000000\n"),
        ],
    )
    def test_cells_over_budget_is_a_config_error(self, tmp_path, experiment, text):
        # both were accepted and then exited 3 with MemoryError in a child
        # limited to 2 GB of address space; now refused at validation, the
        # sweep-s one within the work budget
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

        cfg = _write_cfg(tmp_path, text)
        proc = self._run(experiment, "--config", str(cfg), "--out", str(tmp_path / "out"), preexec_fn=limit, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: theta_count: the run's batch and table values")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, text, key",
        [
            ("baselines", "rounds = 1000000000\n", "rounds"),
            ("trotter", "m_max = 10000000\n", "m_max"),
            ("trajectory", "k = 100000000\nm = exact\n", "k"),
            ("trajectory", "k = 10000000\nm = 1\n", "k"),
        ],
    )
    def test_accepted_failures_are_config_errors(self, tmp_path, experiment, text, key):
        # accepted before the trajectory, trotter and baselines cells terms: in
        # a child limited to 2 GB of address space the first two exited 3 with
        # MemoryError, the third exited 1 with a traceback, and the fourth was
        # still running after 30 s
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

        cfg = _write_cfg(tmp_path, text)
        proc = self._run(experiment, "--config", str(cfg), "--out", str(tmp_path / "out"), preexec_fn=limit, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {key}: the run's batch and table values")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
            "experiment = grid-km\nnoise_t1_us = 0\n",
            "experiment = grid-km\nnoise_t1_us = -0.0\n",
        ],
    )
    def test_exit_one(self, tmp_path, capsys, text):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ("noise_" in err or "t2 requires t1" in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-0.0"])
    def test_key_set_to_zero_is_set(self, tmp_path, capsys, value):
        # a key counts as set when it differs from its default (None for t1),
        # so the error names the unapplied key, not a noise model grid-km never builds
        cfg = _write_cfg(tmp_path, f"experiment = grid-km\nnoise_t1_us = {value}\n")
        assert cli.main(["grid-km", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: noise_t1_us: grid-km would run without it (applies: none)\n"

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_noise_built_only_where_applied(self, tmp_path, experiment):
        cfg = cli.validate_config(None, experiment=experiment, out_override=tmp_path / "out")
        # a cached property that was built sits in the instance dict
        assert ("noise" in vars(cfg)) == (experiment in ("sweep-theta", "ptm", "trajectory"))

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
        assert cfg.noise is not None


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
            ("experiment = trotter\nseed = -1\n", False),
            # a span or an echo angle s (w_max - w_min) that overflows
            ("experiment = sweep-theta\ntheta_start = 1e308\ntheta_stop = -1e308\n", False),
            ("experiment = sweep-s\ntheta_start = -1e308\ntheta_stop = 1e308\n", False),
            ("experiment = sweep-s\ns_start = 1e308\ns_stop = -1e308\n", False),
            ("experiment = sweep-s\ns_stop = 1e308\n", False),
            ("experiment = sweep-theta\ns = 1e308\n", False),
            ("experiment = trajectory\nm = 2\ns = 1e308\n", False),
            ("experiment = trajectory\nm = exact\ns = -1e308\n", False),
            # a grid count numpy cannot index or size: rejected before anything is allocated
            ("experiment = sweep-theta\ntheta_count = 10000000000000000000\n", False),
            ("experiment = sweep-theta\ntheta_count = 4611686018427387904\n", False),
            ("experiment = sweep-s\ns_count = 10000000000000000000\n", False),
            ("experiment = sweep-s\ns_count = 4611686018427387904\n", False),
            # a step count the per-step values cannot be repeated over, or a
            # Trotter depth range numpy cannot build: refused before any allocation
            ("experiment = trajectory\nk = 100000000000000000000\n", False),
            ("experiment = trajectory\nk = 4611686018427387904\n", False),
            ("experiment = trotter\nm_max = 100000000000000000000\n", False),
            ("experiment = trotter\nm_max = 4611686018427387904\n", False),
            # a copy count whose indices 1..M numpy cannot build
            ("experiment = sweep-theta\nm = 100000000000000000000\n", False),
            ("experiment = sweep-theta\nm = 4611686018427387904\n", False),
            ("experiment = trajectory\nm = 100000000000000000000\n", False),
            ("experiment = trajectory\nm = 4611686018427387904\n", False),
        ],
    )
    def test_exit_one(self, tmp_path, capsys, text, names_line):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and ("line " in err) == names_line
        assert not (tmp_path / "out").exists()


class TestDerivedValueErrorsNameKeys:
    # a library contract violation while building what the runner reads is a
    # config error that names the keys the failed value derives from; a grid
    # count numpy cannot build names its count key
    @pytest.mark.parametrize(
        "text, keys",
        [
            ("experiment = ptm\nnoise_t1_us = 10\nnoise_t2_us = 30\n", "noise_*"),
            ("experiment = ptm\nnoise_t1_us = nan\n", "noise_*"),
            ("experiment = sweep-theta\ns = 1e308\n", "s/m"),
            ("experiment = trajectory\nm = 2\ns = 1e308\n", "s/m"),
            ("experiment = sweep-s\ntheta_start = -1e308\ntheta_stop = 1e308\n", "theta_start/theta_stop"),
            ("experiment = sweep-s\ns_stop = 1e308\n", "s_start/s_stop"),
            ("experiment = sweep-theta\ntheta_count = 10000000000000000000\n", "theta_count"),
            ("experiment = sweep-s\ns_count = 4611686018427387904\n", "s_count"),
            ("experiment = sweep-theta\nk = 100000000000000000000\n", "k"),
            ("experiment = trajectory\nk = 4611686018427387904\n", "k"),
            ("experiment = trotter\nm_max = 100000000000000000000\n", "m_max"),
            ("experiment = sweep-theta\nm = 4611686018427387904\n", "m"),
            ("experiment = trajectory\nm = 100000000000000000000\n", "m"),
        ],
    )
    def test_message_names_keys(self, tmp_path, capsys, text, keys):
        cfg = _write_cfg(tmp_path, text)
        experiment = text.split("\n", 1)[0].split("=")[1].strip()
        assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {keys}: ")
        assert not (tmp_path / "out").exists()


class TestManifestEnvironment:
    def test_recorded_and_built_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        show_config = np.show_config

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return show_config(*args, **kwargs)

        monkeypatch.setattr(np, "show_config", counting)
        cli._environment.cache_clear()
        try:
            manifests = [
                cli.run_config(cli.validate_config(None, experiment="baselines", out_override=tmp_path / name))
                for name in ("a", "b")
            ]
        finally:
            cli._environment.cache_clear()
        assert len(calls) == 1
        env = manifests[0]["environment"]
        assert env == manifests[1]["environment"]
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert set(env) == {"python", "numpy", "blas", "blas_version", "cpu_count"}
        written = json.loads((tmp_path / "a" / "results_manifest.json").read_text())
        assert written["environment"] == env
