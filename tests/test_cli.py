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

import runs
from conftest import config, config_error, counted_swaps
from oracles import render_rows


def _refused(*stems, ids=None):
    """A test that the reject files ``stems`` end as listed in the one child
    of ``conftest.traced_runs``, each under the id its case had inline: ``ids``
    formatted with the file's experiment, text, error's key, ``line`` (the error
    names a line) and ``value`` (the text's last); one file alone, no ``ids``."""

    def test(self, traced_runs, stem):
        assert traced_runs.faults[f"unusable/{stem}"] == ""

    if ids is None:
        return lambda self, traced_runs: test(self, traced_runs, *stems)
    cases = [runs.reject_case(runs.CONFIGS / "reject" / f"{stem}.txt") for stem in stems]
    names = [ids.format(experiment=e, text=text, key=message.split(":")[0], line=message.startswith("line "),
                        value=text.split("= ")[-1].strip()) for e, message, text in cases]
    return pytest.mark.parametrize("stem", stems, ids=names)(test)


class TestConfigValidation:
    def test_minimal_config_fully_defaulted(self, tmp_path):
        cfg = config(tmp_path, None, "experiment = sweep-theta\n")
        assert cfg.s == (np.pi / 4,)
        assert cfg.k == 1 and cfg.m == (1,)
        assert cfg.seed == 0

    def test_no_config_with_subcommand(self, tmp_path):
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path)
        assert cfg.experiment == "trotter"

    test_unknown_key_rejected = _refused("trotter-unknown-key")
    test_duplicate_key_rejected = _refused("trotter-duplicate-key")
    test_phi_key_exits_one = _refused("ptm-phi-key")
    test_negative_m_names_field = _refused("sweep-theta-m-negative")
    test_single_point_grid_rejected = _refused("sweep-theta-theta-count-one")

    def test_degree_suffix_accepted(self, tmp_path):
        cfg = config(tmp_path, "trajectory", "theta = 90deg\nm = exact\n")
        assert cfg.theta == pytest.approx(np.pi / 2)
        assert cfg.m is None

    test_experiment_subcommand_mismatch = _refused("trotter-experiment-mismatch")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="does not exist"):
            cli.validate_config(tmp_path / "nope.txt", out_override=tmp_path)

    test_workers_below_one_rejected = _refused("trotter-workers-zero")

    def test_missing_out_dir(self, tmp_path):
        assert config_error(tmp_path, "trotter", "", out=None) == "out: an output directory is required"

    test_per_step_lists_need_one_or_k_values = _refused(
        "sweep-theta-s-per-step-count", "sweep-theta-m-per-step-count", ids="{text}-{key}"
    )

    def test_per_step_lists_expand_to_k(self, tmp_path):
        cfg = config(tmp_path, "trajectory", "k = 3\ns = 0.1, 0.2, 0.3\nm = 2\n")
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
        cli.run_config(config(tmp_path, None, text))
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
        cli.run_config(config(tmp_path, "sweep-s", "k = 3\ns = 0.1, 0.2\ntheta_count = 3\ns_count = 4\n"))
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
        cfg = config(tmp_path, None, "".join(f"{k} = {v}\n" for k, v in lines.items()), out=None)
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
    "phi_list": ("", "0"),
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
        assert config_error(tmp_path, "ptm", f"{key} = {rejected}\n").startswith(f"{key}: ")
        assert config(tmp_path, "ptm", f"{key} = {edge}\n").raw == {key: edge}


def _boom(cfg):  # a runner that fails
    raise ValueError("synthetic\nfailure")


def _runner(monkeypatch, experiment, run):
    """Make ``run`` the runner of ``experiment`` while ``monkeypatch`` is active."""
    monkeypatch.setitem(cli._EXPERIMENTS, experiment, cli._EXPERIMENTS[experiment]._replace(run=run))


def _cost(cfg, name) -> int:
    """The size of ``cfg``'s ``cells`` or ``work``, by its experiment's record in ``cli._EXPERIMENTS``."""
    return getattr(cli._EXPERIMENTS[cfg.experiment], name)(cfg)[0]


class TestRunners:
    def test_sweep_theta_analytic_column(self, tmp_path):
        cli.run_config(config(tmp_path, "sweep-theta", "theta_count = 181\nk = 1\nm = 1\ns = 0.7853981633974483\n"))
        rows = (tmp_path / "out" / "sweep_theta.csv").read_text().splitlines()
        assert rows[0] == "theta,E_target,E_instr_1,E_analytic"
        assert len(rows) == 182
        for line in rows[1:]:
            theta, _, _, e_analytic = (float(v) for v in line.split(","))
            assert abs(e_analytic - dbac_energy_analytic(-np.cos(theta), np.pi / 4)) < 1e-9

    def test_sweep_s_is_one_engine_pass(self, tmp_path, monkeypatch):
        # k * M kernel calls on one (theta_count, s_count) block, not
        # theta_count * k * M; rows run over s within each theta
        calls = counted_swaps(monkeypatch)
        cfg = config(tmp_path, "sweep-s", "k = 3\nm = 2\ntheta_count = 5\ns_count = 7\n")
        cli.run_config(cfg)
        # k M - 1 whole swaps, then only the z plane of the last, all that is read
        assert calls == [("partial_swap", (3, 5, 7))] * (3 * 2 - 1) + [("swap_z", (3, 5, 7))]
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
        sums = []
        for name in ("a", "b"):
            cfg = config(tmp_path, "sweep-theta", "theta_count = 7\nseed = 11\n", out=name)
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
        cli.run_config(config(tmp_path, "trajectory", "theta = 1.2\nk = 3\nm = exact\ns = 0.6\n"))
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "step,x,y,z"
        assert len(rows) == 5  # header + k+1 states

    @pytest.mark.parametrize(
        "text", ["theta = 0\nk = 5\nm = 3\n", "theta = 0\nk = 30\nm = exact\n",
                 (runs.CONFIGS / "trajectory-theta0.txt").read_text()],
        ids=["dme", "exact-chain", "exact-fresh"],
    )
    def test_trajectory_at_theta_zero_writes_no_negative_zero(self, tmp_path, text):
        # from |0> the state stays at the pole: its x and y are zeros, written as 0
        cli.run_config(config(tmp_path, "trajectory", text))
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[1:3]]
        assert "0" in cells and "-0" not in cells

    def test_baselines_rows(self, tmp_path):
        cli.run_config(config(tmp_path, "baselines", "rounds = 3\n"))
        text = (tmp_path / "out" / "baselines.csv").read_text()
        assert "hbac,target_polarization" in text
        assert "cem,p_success" in text

    def test_failed_stage_recorded_in_manifest(self, tmp_path, monkeypatch):
        _runner(monkeypatch, "trotter", _boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(RuntimeError, match="manifest records"):
            cli.run_config(cfg)
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["failed_stage"]["error"] == "ValueError: synthetic\nfailure"

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        # a 1-angle run into a directory holding a 4-angle run's files
        out = tmp_path / "out"
        cli.run_config(cli.validate_config(None, experiment="ptm", out_override=out))
        manifest = cli.run_config(config(tmp_path, "ptm", "phi_list = 0.3\n"))
        assert list(manifest["files"]) == ["ptm_analytic_0.csv", "ptm_compiled_0.csv", "ptm_fidelities.json"]
        assert (out / "ptm_analytic_3.csv").exists()  # the earlier run's files are left alone

    def test_failed_run_lists_no_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cli.run_config(cli.validate_config(None, experiment="trotter", out_override=out))
        _runner(monkeypatch, "trotter", _boom)
        with pytest.raises(cli.RunError):
            cli.run_config(cli.validate_config(None, experiment="trotter", out_override=out))
        manifest = json.loads((out / "results_manifest.json").read_text())
        assert manifest["files"] == {} and "failed_stage" in manifest
        assert (out / "trotter.csv").exists()

    def test_grid_km_with_exact(self, tmp_path):
        cli.run_config(config(tmp_path, "grid-km", "k_list = 1\nm_list = 1,exact\n"))
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
        header, rows = cli._EXPERIMENTS[experiment].run(config(tmp_path, experiment, text))[name]
        assert isinstance(rows, list)
        if experiment == "grid-km":  # the M column mixes ints and `exact`
            assert {type(r[1]) for r in rows} == {int, str}
        assert cli._render(name, (header, rows)) == (",".join(header) + "\n" + _per_row(rows)).encode()

    @pytest.mark.parametrize("experiment", ["sweep-theta", "trotter", "trajectory"])
    def test_float_array_is_the_12_digit_join(self, tmp_path, experiment):
        cfg = cli.validate_config(None, experiment=experiment, out_override=tmp_path / "out")
        (name, (header, rows)), = cli._EXPERIMENTS[experiment].run(cfg).items()
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        body = "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows.tolist())
        assert cli._render(name, (header, rows)) == (",".join(header) + "\n" + body).encode()

    def test_empty_table_is_its_header(self):
        assert cli._render("t.csv", (["a", "b"], [])) == b"a,b\n"


class TestWork:
    """An experiment's `work`, in its record in `cli._EXPERIMENTS`, is the
    partial-swap entry-steps a sweep-s run makes, and bounds those of a
    grid-km run: a swap entry-step is one entry of one search batch through
    one of its k·M swaps (k steps of one exact reflection each for m =
    exact), and each of its k steps costs `cli._SEARCH_STEP` more."""

    @staticmethod
    def _entry_steps(monkeypatch, cfg) -> int:
        seen = []
        final_energies = dbac._final_energies

        def counting(thetas, k, table, mode, counts=None):
            entries = table.cos_phi.size * (thetas.size if counts is None else 1)  # without counts, S per angle
            seen.append(entries * k * ((table.m or 1) + cli._SEARCH_STEP))
            return final_energies(thetas, k, table, mode, counts)

        monkeypatch.setattr(dbac, "_final_energies", counting)
        cli._EXPERIMENTS[cfg.experiment].run(cfg)
        return sum(seen)

    @pytest.mark.parametrize(
        "text", ["theta_count = 5\ns_count = 7\nk = 3\nm = 2\n", "k = 2\nm = 4\nrecursion = fresh\ntheta_count = 2\n"]
    )
    def test_sweep_s_work_is_its_entry_steps(self, tmp_path, monkeypatch, text):
        cfg = config(tmp_path, "sweep-s", text)
        work = _cost(cfg, "work")
        steps = cfg.theta_count * cfg.s_count * cfg.k
        assert work == steps * (cfg.m[0] + cli._SEARCH_STEP) == self._entry_steps(monkeypatch, cfg)

    @pytest.mark.parametrize(
        "text",
        [
            "k_list = 1,2\nm_list = 1,exact,3\n",
            "k_list = 2\nm_list = exact\nrecursion = fresh\nf_target = 0.99\n",
            "k_list = 3\nm_list = 2\nf_target = 0.9999999\n",
        ],
    )
    def test_grid_km_work_bounds_its_entry_steps(self, tmp_path, monkeypatch, text):
        cfg = config(tmp_path, "grid-km", text)
        cells = sum(k * ((m or 1) + cli._SEARCH_STEP) for k in cfg.k_list for m in cfg.m_list)
        assert _cost(cfg, "work") == dbac.SEARCH_ENTRIES * cells >= self._entry_steps(monkeypatch, cfg)

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("sweep-theta", "theta_count = 5\nk = 3\nm = 2\n"),
            ("sweep-theta", "theta_count = 4\nk = 3\nm = 1,4,2\ns = 0.3\n"),
            ("trajectory", "k = 4\nm = 3\n"),
            ("trajectory", "k = 4\nm = exact\n"),
        ],
    )
    def test_dme_record_work_counts_its_steps_and_values(self, tmp_path, experiment, text):
        # a per-step cost, and a per-value cost for each state after the first
        # and each instruction marginal of each angle; the exact record's, per step
        cfg = config(tmp_path, experiment, text)
        if cfg.m is None:
            assert _cost(cfg, "work") == cli._EXACT_STEP * cfg.k
            return
        thetas = cfg.theta_grid if experiment == "sweep-theta" else np.array([cfg.theta])
        rec = dbac.dbac_via_dme(thetas, cfg.schedule, cfg.noise)
        values = rec.energies.size - thetas.size + rec.instruction_energies.size
        assert _cost(cfg, "work") == cli._RECORD_STEP * cfg.k + cli._RECORD_VALUE * values

    def test_grid_km_passes_are_bounded(self):
        # 17 passes: the optimal step's, one at each end of the basin interval
        # and one per halving of its width 1 - 2e-6 down to 1e-4, each of the
        # grid, the witness slots and the upper end's first-step slot
        halvings = int(np.ceil(np.log2((1 - 2e-6) / 1e-4)))
        assert dbac.SEARCH_ENTRIES == (1 + 2 + halvings) * (dbac.step_size_grid().size + dbac._WITNESSES + 1)

    test_step_cost_refuses_the_m_one_edge = _refused("sweep-s-work-m-one")

    def test_step_cost_accepts_below_the_m_one_edge(self, tmp_path):
        # one step fewer than the reject file sweep-s-work-m-one: T·S·k·(1 + 4) is within the budget
        cfg = config(tmp_path, "sweep-s", "k = 17265\nm = 1\n")
        assert _cost(cfg, "work") == 181 * 64 * 17265 * (1 + cli._SEARCH_STEP) <= cli.WORK_BUDGET

    def test_default_configs_within_budget(self, tmp_path):
        for experiment in cli.EXPERIMENTS:
            cfg = cli.validate_config(None, experiment=experiment, out_override=tmp_path)
            assert _cost(cfg, "work") <= cli.WORK_BUDGET // 100 and _cost(cfg, "cells") <= cli.CELL_BUDGET // 100

    test_largest_factor_is_named = _refused(
        "sweep-s-cells-and-work", "sweep-s-work-theta-count", "sweep-s-work-k", ids="{text}-{key}"
    )


# floats whose text is easy to get wrong: a signed zero, an exponent form, the
# smallest subnormal, integral values
_CELL_FLOATS = st.one_of(
    st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, 3.0, -7.0]), st.floats(), st.integers(-(10**15), 10**15).map(float)
)


class TestCells:
    """An experiment's `cells`, in its record in `cli._EXPERIMENTS`, is the
    values a sweep-s or sweep-theta run's batch and table hold: one per
    (angle, step size) for sweep-s, and for sweep-theta one per state and
    instruction marginal of each angle's record, whose energies fill the
    angle's row."""

    @pytest.mark.parametrize("text", ["theta_count = 5\ns_count = 7\nk = 3\nm = 2\n", "theta_count = 2\ns_count = 3\n"])
    def test_sweep_s_cells_are_its_rows(self, tmp_path, text):
        cfg = config(tmp_path, "sweep-s", text)
        header, axes, fids = cli._run_sweep_s(cfg)["sweep_s.csv"]
        assert _cost(cfg, "cells") == fids.size == cfg.theta_count * cfg.s_count

    @pytest.mark.parametrize(
        "text", ["theta_count = 5\nk = 3\nm = 2\n", "theta_count = 4\nk = 3\nm = 1,4,2\ns = 0.3\n", ""]
    )
    def test_sweep_theta_cells_are_its_record(self, tmp_path, monkeypatch, text):
        records = []
        via_dme = cli.dbac_via_dme
        monkeypatch.setattr(cli, "dbac_via_dme", lambda *args: records.append(via_dme(*args)) or records[-1])
        cfg = config(tmp_path, "sweep-theta", text)
        (header, rows), = cli._run_sweep_theta(cfg).values()
        (rec,) = records
        cells = _cost(cfg, "cells")
        assert cells == rec.energies.size + rec.instruction_energies.size
        n = len(header) - 3  # theta, E_target, E_analytic and one column per marginal
        assert rows.shape == (cfg.theta_count, len(header)) and cells == cfg.theta_count * (cfg.k + 1 + n)

    test_largest_factor_is_named = _refused(
        "sweep-s-cells-theta-count", "sweep-s-cells-s-count", "sweep-theta-cells-theta-count", "sweep-theta-cells-k",
        "sweep-theta-cells-m", "sweep-theta-cells-m-per-step", "trajectory-cells-k-exact",
        "trajectory-cells-m-per-step", "trotter-cells-m-max", "baselines-cells-rounds", ids="{experiment}-{text}-{key}",
    )

    def test_budget_is_inclusive(self, tmp_path):
        assert _cost(config(tmp_path, "sweep-s", "theta_count = 2500\ns_count = 2000\n"), "cells") == cli.CELL_BUDGET

    @pytest.mark.parametrize("text", ["k = 3\nm = 2\n", "k = 4\nm = exact\n", "k = 3\nm = 1,4,2\ns = 0.3\n", ""])
    def test_trajectory_cells_are_twice_its_record(self, tmp_path, monkeypatch, text):
        records = []
        for name in ("dbac_via_dme", "dbac_recursive_exact"):
            engine = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, engine=engine: records.append(engine(*args)) or records[-1])
        cfg = config(tmp_path, "trajectory", text)
        (header, rows), = cli._run_trajectory(cfg).values()
        (rec,) = records
        cells = _cost(cfg, "cells")
        assert cells == 2 * (rec.energies.size + rec.instruction_energies.size) and len(rows) == cfg.k + 1

    @pytest.mark.parametrize(
        "experiment, text", [("trotter", "m_max = 7\n"), ("baselines", "rounds = 5\n"), ("trotter", "")]
    )
    def test_trotter_and_baselines_cells_weigh_their_rows(self, tmp_path, experiment, text):
        # 2 per trotter depth, one row each; 4 per baselines round, three rows each and two more
        cfg = config(tmp_path, experiment, text)
        (header, rows), = cli._EXPERIMENTS[experiment].run(cfg).values()
        assert _cost(cfg, "cells") == (2 * len(rows) if experiment == "trotter" else 4 * (len(rows) - 2) // 3)

    @pytest.mark.parametrize("text", ["", "phi_list = 0.3\nnoise_p2 = 0.01\n", "phi_list = 0,1\nnoise_t1_us = 40\n"])
    def test_ptm_cells_weigh_its_ptms(self, tmp_path, text):
        # _PTM_CELLS for each PTM table written: ideal and compiled, and noisy with a noise key
        cfg = config(tmp_path, "ptm", text)
        tables = [name for name in cli._run_ptm(cfg) if name.endswith(".csv")]
        assert _cost(cfg, "cells") == cli._PTM_CELLS * len(tables)

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("trajectory", "k = 2499999\nm = exact\n"),
            ("trotter", "m_max = 2500000\n"),
            ("baselines", "rounds = 1250000\n"),
        ],
    )
    def test_new_terms_budget_is_inclusive(self, tmp_path, traced_runs, experiment, text):
        # validation only: each config at the budget's edge, whose run peaked at 0.6-1.0 GB; the exact
        # trajectory there is refused by the work budget alone (its reject file), since the cell budget
        # names a config over both
        if experiment == "trajectory":
            assert runs.reject_case(runs.CONFIGS / "reject" / "trajectory-work-cell-edge.txt")[2] == text
            assert traced_runs.faults["unusable/trajectory-work-cell-edge"] == ""
        else:
            assert _cost(config(tmp_path, experiment, text), "cells") == cli.CELL_BUDGET


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
        cfg = config(tmp_path, "sweep-s", (runs.CONFIGS / "sweep-s-extremes.txt").read_text())
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
        (cfg := tmp_path / "cfg.txt").write_text("theta = 2.0\nk = 6\nm = 8\ns = 0.8\n")
        assert cli.main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 8  # header + k+1 states

    def test_exit_three_on_runtime_failure(self, tmp_path, monkeypatch, capsys):
        _runner(monkeypatch, "trotter", _boom)
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

        _runner(monkeypatch, "trotter", half)
        assert cli.main(["trotter", "--out", str(tmp_path / "out")]) == 3
        manifest = json.loads((tmp_path / "out" / "results_manifest.json").read_text())
        assert manifest["files"] == {"a.csv": hashlib.sha256(b"x\n1.5\n").hexdigest()}
        assert manifest["failed_stage"]["error"].startswith("TypeError: ")

    @pytest.mark.parametrize("out", ["a-directory", "non-utf8"], ids=["directory", "non-utf8"])
    def test_unreadable_config_is_a_config_error(self, traced_runs, out):
        assert traced_runs.faults[f"unusable/{out}"] == ""  # runs.UNREADABLE

    @pytest.mark.parametrize("fails", [False, True], ids=["run-ok", "run-failed"])
    def test_unwritable_manifest_is_a_runtime_error(self, tmp_path, monkeypatch, capsys, fails):
        # a directory in the manifest's place: the run's record cannot be written
        if fails:
            _runner(monkeypatch, "baselines", lambda cfg: 1 / 0)
        (tmp_path / "out" / "results_manifest.json").mkdir(parents=True)
        assert cli.main(["baselines", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot write results_manifest.json") and err.count("\n") == 1
        assert ("ZeroDivisionError" in err) == fails

    def test_runtime_failure_chains_its_cause(self, tmp_path, monkeypatch):
        _runner(monkeypatch, "trotter", _boom)
        cfg = cli.validate_config(None, experiment="trotter", out_override=tmp_path / "out")
        with pytest.raises(cli.RunError) as info:
            cli.run_config(cfg)
        assert isinstance(info.value.__cause__, ValueError)


class TestCommandLine:
    test_work_over_budget_is_a_config_error = _refused(
        "sweep-s-work-over-budget", "grid-km-work-over-budget", "sweep-theta-work-over-budget",
        "trajectory-work-over-budget", ids="{experiment}-{text}-{key}",
    )
    test_cells_over_budget_is_a_config_error = _refused(
        "sweep-s-cells-over-budget", "sweep-theta-cells-over-budget", ids="{experiment}-{text}"
    )
    test_accepted_failures_are_config_errors = _refused(
        "baselines-cells-over-budget", "trotter-cells-over-budget", "trajectory-cells-over-budget",
        "trajectory-cells-dme", ids="{experiment}-{text}-{key}",
    )

    def test_exit_zero_on_success(self, tmp_path):
        # the child imports dbac_lab from where this process did, installed or not
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        argv = [sys.executable, "-m", "dbac_lab.cli", "trotter", "--out", str(tmp_path / "out"), "--seed", "1"]
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        assert (tmp_path / "out" / "results_manifest.json").exists()

    test_exit_one_on_config_error = _refused("trotter-m-max-zero")


class TestIgnoredNoiseRejected:
    test_exit_one = _refused(
        "sweep-theta-t1-unapplied", "trajectory-t1-t2-unapplied", "trajectory-exact-noisy", "trajectory-exact-noisy-p2",
        "ptm-t2-without-t1", "ptm-p1-t2-without-t1", "grid-km-noisy", "grid-km-t1-zero", "grid-km-t1-negative-zero",
        ids="experiment = {experiment}\n{text}",
    )
    test_key_set_to_zero_is_set = _refused("grid-km-t1-zero", "grid-km-t1-negative-zero", ids="{value}")

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
        assert config(tmp_path, None, text).noise is not None


class TestUnusableValuesRejected:
    test_exit_one = _refused(
        "trajectory-theta-nan", "trajectory-exact-theta-inf", "sweep-theta-theta-stop-nan", "grid-km-theta-fixed-point",
        "grid-km-theta-pi", "ptm-t1-nan", "baselines-eps0-nan", "baselines-eps-bath-nan", "grid-km-k-list-zero",
        "grid-km-m-list-zero", "grid-km-m-list-negative", "grid-km-k-list-empty", "grid-km-m-list-empty",
        "ptm-phi-list-empty", "trotter-seed-negative", "sweep-theta-grid-span-overflow", "sweep-s-theta-span-overflow",
        "sweep-s-grid-span-reversed", "sweep-s-s-stop-overflow", "sweep-theta-s-overflow", "trajectory-s-overflow",
        "trajectory-exact-s-overflow", "sweep-theta-theta-count-huge", "sweep-theta-theta-count-2-62",
        "sweep-s-s-count-huge", "sweep-s-s-count-2-62", "trajectory-k-huge", "trajectory-k-2-62", "trotter-m-max-huge",
        "trotter-m-max-2-62", "sweep-theta-m-huge", "sweep-theta-m-2-62", "trajectory-m-huge", "trajectory-m-2-62",
        ids="experiment = {experiment}\n{text}-{line}",
    )


class TestDerivedValueErrorsNameKeys:
    test_message_names_keys = _refused(
        "ptm-t2-above-twice-t1", "ptm-t1-nan", "sweep-theta-s-overflow", "trajectory-s-overflow",
        "sweep-s-theta-span-overflow", "sweep-s-s-stop-overflow", "sweep-theta-theta-count-huge",
        "sweep-s-s-count-2-62", "sweep-theta-k-huge", "trajectory-k-2-62", "trotter-m-max-huge", "sweep-theta-m-2-62",
        "trajectory-m-huge", ids="experiment = {experiment}\n{text}-{key}",
    )


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
