import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from competelab import lab, solve
from competelab.cli import (ConfigError, main, normalize_run_config,
                            parse_domain, parse_solver)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_run_config(out, h=1 / 20):
    return {
        "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0, "h": h},
        "k": 1,
        "lambda": 80.0,
        "solver": {"restarts": 1, "max_iters": 5000, "seed": 11},
        "out": out,
    }


class TestConfigValidation:
    # One small valid config per command reader; each case below breaks it.
    COMMANDS = {
        "minimize": (["minimize"], {
            "domain": {"kind": "rectangle", "h": 1 / 8}, "k": 1,
            "lambda": 40.0, "solver": {"restarts": 0}}),
        "verify": (["verify", "wedge-bound"], {
            "m": 2.0, "lambda": 40.0, "h": 1 / 8, "solver": {"restarts": 0}}),
        "sweep": (["sweep"], {
            "domain": {"kind": "rectangle", "h": 1 / 8}, "k": 1,
            "lambdas": [40.0], "kappas": [0.0], "epss": [0.0],
            "solver": {"restarts": 0}}),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: [1], "config must be a JSON object"),
        (lambda cfg: {**cfg, "solver": [1]}, 'config key "solver" must be'),
        (lambda cfg: {**cfg, "solver": None}, 'config key "solver" must be'),
        (lambda cfg: {**cfg, "out": 5}, 'config key "out" must be'),
        (lambda cfg: {**cfg, "out": None}, 'config key "out" must be'),
        (lambda cfg: {**cfg, "out": ""}, 'config key "out" must be'),
    ], ids=["top-level-list", "solver-list", "solver-null", "out-number",
            "out-null", "out-empty"])
    def test_malformed_config_exits_1_without_output(
            self, tmp_path, capsys, monkeypatch, command, edit, message):
        # These used to end in a traceback, name the wrong key, run with
        # the default solver, or write a directory named 5 or None.
        argv, cfg = self.COMMANDS[command]
        monkeypatch.chdir(tmp_path)   # where "runs" or a stray directory lands
        path = write_config(tmp_path, "c.json", edit(cfg))
        assert main(argv + ["--config", path]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_missing_lambda_names_key(self, tmp_path, capsys):
        cfg = base_run_config(str(tmp_path / "o"))
        del cfg["lambda"]
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert "lambda" in capsys.readouterr().err

    def test_unknown_key_names_key(self, tmp_path, capsys):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["lambdaa"] = 1
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert "lambdaa" in capsys.readouterr().err

    def test_unknown_solver_key(self, tmp_path, capsys):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["solver"]["step"] = 1
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert "step" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["minimize", "--config", "/nonexistent/x.json"]) == 1

    def test_eps_count_checked(self, tmp_path):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["k"] = 3
        cfg["eps"] = [0.5]
        with pytest.raises(ConfigError):
            normalize_run_config(cfg)

    def test_scalar_eps_broadcast(self, tmp_path):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["k"] = 3
        cfg["eps"] = 0.4
        norm = normalize_run_config(cfg)
        assert norm["eps"] == [0.4, 0.4]

    def test_normalization_idempotent(self, tmp_path):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["k"] = 2
        cfg["eps"] = 0.5
        once = normalize_run_config(cfg)
        assert normalize_run_config(once) == once

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            parse_domain({"kind": "disc", "radius": 1.0})  # no h
        with pytest.raises(ConfigError):
            parse_domain({"kind": "disc", "h": 0.1, "m": 2.0})  # foreign key
        with pytest.raises(ConfigError):
            parse_domain({"kind": "blob", "h": 0.1})
        with pytest.raises(ConfigError):
            parse_domain({"kind": ["disc"], "h": 0.1})  # unhashable kind

    def test_solver_parse(self):
        cfg = parse_solver({"restarts": 2}, seed_override=99)
        assert cfg.seed == 99 and cfg.restarts == 2
        with pytest.raises(ConfigError):
            parse_solver({"tol_energy": -1.0})

    @pytest.mark.parametrize("key, value", [("restarts", 1.0), ("max_iters", 5e3),
                                            ("seed", 1.5), ("restarts", -3),
                                            ("max_iters", 0), ("restarts", True)])
    def test_solver_integer_settings_checked(self, tmp_path, capsys, key, value):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["solver"][key] = value
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid solver config" in err and key in err

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = base_run_config(str(tmp_path / "o"))
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["minimize", "--config", path, "--seed", "-1"]) == 1
        assert "invalid solver config" in capsys.readouterr().err

    def test_seed_without_a_solver_rejected(self, tmp_path, capsys):
        # verify eig has no solver: its --seed used to run and be ignored
        out = tmp_path / "eig"
        assert main(["verify", "eig", "--seed", "3", "--out", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tol_energy", "step0", "armijo_shrink",
                                     "armijo_c", "step_growth", "stall_window"])
    def test_solver_constant_is_not_a_key(self, tmp_path, capsys, key):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["solver"][key] = 1
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert f"unknown config key \"{key}\" in solver" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("nonlinearity", "logistic"),
                                            ("coupling", "quartic")])
    def test_removed_model_keys_are_unknown(self, tmp_path, capsys, key, value):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg[key] = value
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert f"unknown config key \"{key}\"" in capsys.readouterr().err

    @pytest.mark.parametrize("update, key", [
        ({"identical": "false"}, "identical"),
        ({"k": True}, "k"),
        ({"k": 2.7, "eps": 0.5}, "k"),
        ({"lambda": [50]}, "lambda"),
        ({"k": 2, "eps": "0.5"}, "eps"),
        ({"domain": {"kind": "disc", "h": "0.1"}}, "h"),
    ], ids=["identical-string", "k-bool", "k-float", "lambda-list",
            "eps-string", "h-string"])
    def test_wrongly_typed_value_exits_1_naming_key(self, tmp_path, capsys,
                                                    update, key):
        # Each of these used to run (bool("false") is True, int(2.7) is 2)
        # or end in an error that did not name the key.
        out = tmp_path / "o"
        cfg = base_run_config(str(out))
        cfg.update(update)
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert f"config key \"{key}\" must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "eig", "--jobs", "2"],
        ["verify", "eig", "--dump-fields"],
        ["sweep", "--config", "s.json", "--dump-fields"],
        ["minimize", "--config", "c.json", "--jobs", "2"],
        ["partition", "--config", "c.json", "--jobs", "2"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestMinimizeCommand:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        # "out" names another directory: --out wins, and config.json says so
        out = str(tmp_path / "run")
        cfg = base_run_config(str(tmp_path / "elsewhere"))
        rc = main(["minimize", "--config",
                   write_config(tmp_path, "c.json", cfg), "--dump-fields",
                   "--out", out])
        assert rc == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["verdict"] == "best" for r in rows)
        assert (tmp_path / "run" / "fields" / "u1.csv").exists()
        assert (tmp_path / "run" / "fields" / "u1.pgm").exists()
        # normalized config written and round-trips
        saved = json.load(open(out + "/config.json"))
        assert normalize_run_config(saved) == saved
        assert saved["out"] == out
        assert not (tmp_path / "elsewhere").exists()
        assert not (tmp_path / "run" / "manifest.txt").exists()

    def test_records_carry_wall_times(self, tmp_path):
        out = str(tmp_path / "run")
        path = write_config(tmp_path, "c.json", base_run_config(out))
        assert main(["minimize", "--config", path, "--quiet"]) == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["wall_time"]) > 0 for r in rows)

    def test_forced_nonconvergence_exits_2(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = base_run_config(out)
        cfg["solver"] = {"max_iters": 10, "tol_residual": 1e-15, "restarts": 0}
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("key", ["kappa", "lambda"])
    def test_nan_model_parameter_exits_1(self, tmp_path, capsys, key):
        # A NaN kappa used to run, writing rows with total nan marked best.
        out = tmp_path / "run"
        cfg = base_run_config(str(out), h=1 / 8)
        cfg.update(k=2, eps=0.5, kappa=200.0)
        cfg[key] = float("nan")
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        assert key.replace("lambda", "lam") in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("key", ["tol_residual"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_exits_1(self, tmp_path, capsys, key, value):
        cfg = base_run_config(str(tmp_path / "run"), h=1 / 8)
        cfg["solver"][key] = value
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid solver config" in err and key in err

    def test_seed_override(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = base_run_config(out)
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg),
                   "--seed", "123", "--quiet"])
        assert rc == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["seed"] == "123" for r in rows)

    def test_saved_config_reruns_the_seeded_run(self, tmp_path):
        # config.json holds the solver that ran, --seed and defaults in
        first, second = tmp_path / "first", tmp_path / "second"
        path = write_config(tmp_path, "c.json", base_run_config(str(first)))
        assert main(["minimize", "--config", path, "--seed", "123",
                     "--quiet"]) == 0
        saved = json.loads((first / "config.json").read_text())
        assert saved["solver"] == {"max_iters": 5000, "tol_residual": None,
                                   "restarts": 1, "seed": 123}
        assert normalize_run_config(saved) == saved
        assert main(["minimize", "--config", str(first / "config.json"),
                     "--out", str(second), "--quiet"]) == 0

        def rows(out):
            with open(out / "results.csv") as fh:
                return [{**r, "wall_time": None} for r in csv.DictReader(fh)]
        assert rows(first) and rows(first) == rows(second)


class TestPartitionCommand:
    def test_identical_pair_extinguishes(self, tmp_path, capsys):
        out = str(tmp_path / "part")
        cfg = base_run_config(out)
        cfg["k"] = 2
        cfg["identical"] = True
        rc = main(["partition", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "alive-count" in text
        count = int(text.split("alive-count")[1].split()[0])
        assert count <= 1

    def test_rows_name_the_partition_command(self, tmp_path):
        # a partition run used to write "minimize" into every row
        out = tmp_path / "part"
        cfg = base_run_config(str(out), h=1 / 8)
        cfg.update(k=2, identical=True)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["partition", "--config", path, "--quiet"]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["experiment"] == "partition" for r in rows)

    def test_kappa_rejected(self, tmp_path, capsys):
        # a partition run used to record a kappa that every row read as 0
        out = tmp_path / "part"
        cfg = base_run_config(str(out), h=1 / 8)
        cfg.update(k=2, eps=0.5, kappa=400.0)
        rc = main(["partition", "--config",
                   write_config(tmp_path, "c.json", cfg), "--quiet"])
        assert rc == 1
        assert 'unknown config key "kappa"' in capsys.readouterr().err
        assert not out.exists()

    def test_saved_config_reruns_the_run(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = base_run_config(str(first), h=1 / 8)
        cfg.update(k=2, eps=0.5)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["partition", "--config", path, "--quiet"]) == 0
        saved = json.loads((first / "config.json").read_text())
        assert "kappa" not in saved
        assert normalize_run_config(saved, partition=True) == saved
        assert main(["partition", "--config", str(first / "config.json"),
                     "--out", str(second), "--quiet"]) == 0

        def rows(out):
            with open(out / "results.csv") as fh:
                return [{**r, "wall_time": None} for r in csv.DictReader(fh)]
        assert rows(first) and rows(first) == rows(second)

    def test_identical_with_eps_rejected(self, tmp_path):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["k"] = 2
        cfg["identical"] = True
        cfg["eps"] = [0.5]
        with pytest.raises(ConfigError):
            normalize_run_config(cfg)

    def test_empty_domain_exits_1(self, tmp_path):
        cfg = base_run_config(str(tmp_path / "o"))
        cfg["domain"] = {"kind": "rectangle", "width": 0.15, "height": 0.15,
                        "h": 0.1}
        rc = main(["partition", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 1


class TestVerifyCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["verify", "unknown-exp"]) == 1
        assert "unknown-exp" in capsys.readouterr().err

    def test_eig_square_default(self, tmp_path, capsys):
        rc = main(["verify", "eig", "--out", str(tmp_path / "eig")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda1" in out and "PASS" in out
        assert (tmp_path / "eig" / "eig.json").exists()

    def test_eig_prints_each_value_once(self, tmp_path, capsys):
        assert main(["verify", "eig", "--out", str(tmp_path / "eig")]) == 0
        out = capsys.readouterr().out
        assert out.count("lambda1") == 1
        assert out.count("reference") == 1

    def test_eig_reports_steps(self, tmp_path, capsys):
        assert main(["verify", "eig", "--out", str(tmp_path / "eig")]) == 0
        assert "  steps = 0\n" in capsys.readouterr().out
        details = json.loads((tmp_path / "eig" / "eig.json").read_text())["details"]
        assert details["steps"] == 0
        assert details["residual"] <= 1e-10

    def test_eig_custom_reference_fail_path(self, tmp_path):
        cfg = {"domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                          "h": 1 / 16},
               "reference": 30.0, "rel_tol": 1e-4}
        rc = main(["verify", "eig", "--config",
                   write_config(tmp_path, "e.json", cfg),
                   "--out", str(tmp_path / "eig")])
        assert rc == 3

    def test_wedge_bound_verify(self, tmp_path):
        cfg = {"m": 2.0, "lambda": 120.0, "h": 1 / 32,
               "solver": {"restarts": 0, "max_iters": 8000}}
        rc = main(["verify", "wedge-bound", "--config",
                   write_config(tmp_path, "w.json", cfg),
                   "--out", str(tmp_path / "wb"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "wb" / "wedge-bound.csv").exists()

    def test_details_written_with_records(self, tmp_path):
        cfg = {"domain": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                          "h": 1 / 16},
               "lambdas": [100.0, 200.0, 400.0], "solver": {"restarts": 0}}
        out = tmp_path / "lim"
        rc = main(["verify", "limiti", "--config",
                   write_config(tmp_path, "l.json", cfg), "--out", str(out),
                   "--quiet"])
        payload = json.loads((out / "limiti.json").read_text())
        assert rc == {"PASS": 0, "FAIL": 3}[payload["status"]]
        details = payload["details"]
        assert len(details["values"]) == 3 and "fit_A" in details
        assert details["lam_list"] == [100.0, 200.0, 400.0]
        assert (out / "limiti.csv").exists()

    @pytest.mark.parametrize("name, cfg", [
        ("limiti", {"domain": {"kind": "rectangle", "h": 1 / 16}, "lambdas": []}),
        ("system2", {"domain": {"kind": "wedge", "m": 2.0, "h": 1 / 24},
                     "lambda": 200.0, "eps2": 0.6, "kappa_schedule": []}),
    ])
    def test_empty_list_exits_1(self, tmp_path, capsys, name, cfg):
        rc = main(["verify", name, "--config",
                   write_config(tmp_path, "e.json", cfg),
                   "--out", str(tmp_path / "e"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: empty")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("name, cfg, key", [
        ("extinction", {"domain": {"kind": "disc", "h": 1 / 8}, "k": True,
                        "lambda": 60.0}, "k"),
        ("wedge-bound", {"lambda": "120", "h": 1 / 32}, "lambda"),
        ("cutoff", {"lambda": 120.0, "h": 1 / 32, "deltas": 0.5}, "deltas"),
        ("eig", {"reference": "30"}, "reference"),
        # these reached the computation: a zero reference divided by
        # zero, and a negative or NaN tolerance ran to FAIL
        ("eig", {"reference": 0}, "reference"),
        ("eig", {"reference": float("inf")}, "reference"),
        ("eig", {"rel_tol": -1}, "rel_tol"),
        ("eig", {"rel_tol": float("nan")}, "rel_tol"),
    ], ids=["extinction-k", "wedge-bound-lambda", "cutoff-deltas",
            "eig-reference", "eig-reference-zero", "eig-reference-inf",
            "eig-rel_tol-negative", "eig-rel_tol-nan"])
    def test_wrongly_typed_value_exits_1_naming_key(self, tmp_path, capsys,
                                                    name, cfg, key):
        rc = main(["verify", name, "--config",
                   write_config(tmp_path, "v.json", cfg),
                   "--out", str(tmp_path / "v"), "--quiet"])
        assert rc == 1
        assert f"config key \"{key}\" must be" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_system2_inconclusive_exit_4(self, tmp_path):
        cfg = {"domain": {"kind": "wedge", "m": 2.0, "h": 1 / 24},
               "lambda": 200.0, "eps2": 0.6, "kappa_schedule": [10, 100],
               "solver": {"restarts": 0, "max_iters": 4,
                          "tol_residual": 1e-15}}
        rc = main(["verify", "system2", "--config",
                   write_config(tmp_path, "s.json", cfg),
                   "--out", str(tmp_path / "s2"), "--quiet"])
        assert rc == 4


class TestSweepCommand:
    def sweep_config(self, out, h=1 / 12):
        return {
            "domain": {"kind": "rectangle", "width": 1.0, "height": 1.0, "h": h},
            "k": 1,
            "lambdas": [40.0, 80.0],
            "kappas": [0.0, 1.0],
            "epss": [0.0],
            "solver": {"restarts": 0, "max_iters": 3000, "seed": 4},
            "out": out,
        }

    def test_grid_cardinality(self, tmp_path):
        out = str(tmp_path / "sw")
        rc = main(["sweep", "--config",
                   write_config(tmp_path, "s.json", self.sweep_config(out)),
                   "--quiet"])
        assert rc == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_rejected_domain_exits_1_without_output(self, tmp_path, capsys):
        # A domain build_domain rejects is a config error, as for minimize,
        # not a partial sweep (exit 2), and it leaves no output directory.
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        cfg["domain"] = {"kind": "rectangle", "width": 0.15, "height": 0.15,
                         "h": 0.1}
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_resume_skips_done(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        path = write_config(tmp_path, "s.json", self.sweep_config(out))
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        assert main(["sweep", "--config", path]) == 0
        assert "0 computed, 4 skipped" in capsys.readouterr().out

    def test_rows_alone_mark_coordinates_done(self, tmp_path, capsys):
        # results.csv is the only completion record: its rows are skipped
        # with no other file beside them, and an older run's leftover
        # manifest.txt is ignored.
        out = tmp_path / "sw"
        path = write_config(tmp_path, "s.json", self.sweep_config(str(out)))
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        assert [p.name for p in out.iterdir()] == ["results.csv"]
        assert main(["sweep", "--config", path]) == 0
        assert "0 computed, 4 skipped" in capsys.readouterr().out
        (out / "manifest.txt").write_text("")
        assert main(["sweep", "--config", path]) == 0
        assert "0 computed, 4 skipped" in capsys.readouterr().out

    def test_resume_recomputes_a_missing_row(self, tmp_path):
        out = str(tmp_path / "sw")
        path = write_config(tmp_path, "s.json", self.sweep_config(out))
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        with open(out + "/results.csv") as fh:
            full = fh.readlines()
        with open(out + "/results.csv", "w") as fh:
            fh.writelines(full[:2] + full[3:])   # drop one record
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        with open(out + "/results.csv") as fh:
            rows = fh.readlines()
        strip = lambda lines: [",".join(x.split(",")[:17]) for x in lines]
        assert strip(rows) == strip(full)

    def test_determinism_energy_columns(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        pa = write_config(tmp_path, "a.json", self.sweep_config(out_a))
        pb = write_config(tmp_path, "b.json", self.sweep_config(out_b))
        assert main(["sweep", "--config", pa, "--quiet"]) == 0
        assert main(["sweep", "--config", pb, "--quiet"]) == 0

        def energy_cols(path):
            with open(path) as fh:
                return [(r["lam"], r["kappa"], r["eps"], r["dirichlet"],
                         r["potential"], r["interaction"], r["total"])
                        for r in csv.DictReader(fh)]

        assert energy_cols(out_a + "/results.csv") == energy_cols(
            out_b + "/results.csv")

    @staticmethod
    def fail_solves(monkeypatch, **at):
        """Make every free solve whose system has the ``at`` values fail."""
        free_many = solve.minimize_free_many

        def failing(systems, *args, **kwargs):
            results = free_many(systems, *args, **kwargs)
            return [RuntimeError(f"solve failed at {at}")
                    if all(getattr(sys, key) == v for key, v in at.items())
                    else res for sys, res in zip(systems, results)]
        monkeypatch.setattr(solve, "minimize_free_many", failing)

    def test_partial_completion_exits_2(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        self.fail_solves(monkeypatch, lam=80.0)  # the second lambda fails
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2 points missing" in err or "missing" in err
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # the valid lambda's two kappa points completed

    @pytest.mark.parametrize("key,grid", [("kappas", [float("nan"), 50.0]),
                                          ("epss", [float("inf")])],
                             ids=["nan-kappa", "inf-eps"])
    def test_non_finite_grid_exits_1_without_output(self, tmp_path, capsys,
                                                    key, grid):
        # A non-finite grid value is a config error caught before any point
        # runs, as for minimize, not a partial sweep (exit 2).
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        cfg.update(domain={"kind": "disc", "radius": 1.0, "h": 1 / 8}, k=2,
                   lambdas=[60.0], kappas=[0.0], epss=[0.5])
        cfg[key] = grid
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert "sweep grid values must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key,grid", [("lambdas", [40.0, -1.0]),
                                          ("lambdas", [0.0]),
                                          ("kappas", [0.0, -1.0])],
                             ids=["negative-lam", "zero-lam", "negative-kappa"])
    def test_bad_rate_exits_1_without_output(self, tmp_path, capsys, recwarn,
                                             key, grid):
        # A rate no system accepts is a config error caught before any
        # point runs, not a failed point of a partial sweep (exit 2).
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        cfg[key] = grid
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert "lambdas must be positive and kappas nonnegative" in \
            capsys.readouterr().err
        assert not os.path.exists(out)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("key, value", [("k", 1.0), ("lambdas", 40.0),
                                            ("kappas", ["0"]), ("epss", ["0.5"]),
                                            ("epss", [[True]])])
    def test_wrongly_typed_value_exits_1_naming_key(self, tmp_path, capsys,
                                                    key, value):
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        cfg[key] = value
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert f"config key \"{key}\" must be" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_other_grids_rows_do_not_hide_a_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        # The directory holds two rows of an earlier grid; the new grid's
        # failed point must still make the sweep partial.
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out, h=1 / 8)
        cfg.update(lambdas=[40.0, 60.0], kappas=[0.0])
        assert main(["sweep", "--config", write_config(tmp_path, "a.json", cfg),
                     "--quiet"]) == 0
        cfg["lambdas"] = [80.0, 100.0]
        self.fail_solves(monkeypatch, lam=100.0)
        rc = main(["sweep", "--config", write_config(tmp_path, "b.json", cfg)])
        assert rc == 2
        out_text, err = capsys.readouterr()
        assert "1 computed, 0 skipped, 3 records" in out_text
        assert "1 points missing" in err

    def disc_config(self, out, **grids):
        cfg = self.sweep_config(out)
        cfg.update(domain={"kind": "disc", "radius": 1.0, "h": 1 / 8}, k=2,
                   lambdas=[60.0], kappas=[0.0], epss=[0.5],
                   solver={"restarts": 0})
        cfg.update(grids)
        return cfg

    @pytest.mark.parametrize("epss,message", [
        ([[0.3, 0.4]], "need one scale per species beyond the first"),
        ([1.5], "scales must lie in (0, 1)")], ids=["wrong-length", "outside"])
    def test_bad_eps_exits_1_without_output(self, tmp_path, capsys, epss,
                                            message):
        # A scale the species family rejects is a config error caught before
        # any point runs, not a partial sweep (exit 2).
        out = str(tmp_path / "sw")
        cfg = self.disc_config(out, epss=epss)
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("grids,name", [
        ({"lambdas": [40, 40]}, "lambdas"),
        ({"kappas": [0, 50, 0.0]}, "kappas"),
        ({"epss": [0.4, [0.4]]}, "epss")], ids=["lambda", "kappa", "eps"])
    def test_repeated_grid_value_exits_1_without_output(self, tmp_path, capsys,
                                                         grids, name):
        # A repeated value names one coordinate twice; it is a config error,
        # not a point solved twice (and skipped twice on a resume).
        out = str(tmp_path / "sw")
        cfg = self.disc_config(out, **grids)
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 1
        assert f"sweep {name} repeat a value" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_failing_kappa_fails_alone(self, tmp_path, capsys, monkeypatch):
        # kappa 50 fails inside its (lam, eps) group; the group's kappa 0
        # point is still written.
        out = str(tmp_path / "sw")
        cfg = self.disc_config(out, kappas=[0.0, 50.0], epss=[0.4])
        self.fail_solves(monkeypatch, kappa=50.0)
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 2
        assert "1 points missing" in capsys.readouterr().err
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["kappa"] for row in rows] == ["0"]

    def test_resume_recomputes_a_missing_row_of_a_group(self, tmp_path):
        # At eps 0.8 the best states for kappa 200 and 800 are the lone
        # `single` start, whose solve the group shares; recomputing the
        # kappa 800 row alone reproduces it.
        out = str(tmp_path / "sw")
        cfg = self.disc_config(out, lambdas=[100.0], kappas=[0.0, 200.0, 800.0],
                               epss=[0.8])
        path = write_config(tmp_path, "s.json", cfg)
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        with open(out + "/results.csv") as fh:
            full = fh.readlines()
        rows = list(csv.DictReader(full))
        assert [(r["kappa"], r["start"]) for r in rows][1:] == \
            [("200", "single"), ("800", "single")]
        with open(out + "/results.csv", "w") as fh:
            fh.writelines(full[:3])   # drop the kappa 800 record
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        with open(out + "/results.csv") as fh:
            again = fh.readlines()
        strip = lambda lines: [",".join(x.split(",")[:17]) for x in lines]
        assert strip(again) == strip(full)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1_without_output(self, tmp_path, capsys, jobs):
        out = str(tmp_path / "sw")
        path = write_config(tmp_path, "s.json", self.sweep_config(out))
        assert main(["sweep", "--config", path, "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_pool_starts_one_worker_per_task(self, tmp_path, monkeypatch):
        # Two (lam, eps) groups make two tasks, so --jobs 8 starts two
        # workers.  The pool here runs each task at once, in this process.
        import concurrent.futures
        started = []

        class Inline:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
        out = str(tmp_path / "sw")
        path = write_config(tmp_path, "s.json", self.sweep_config(out))
        assert main(["sweep", "--config", path, "--jobs", "8", "--quiet"]) == 0
        assert started == [2]
        with open(out + "/results.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_parallel_jobs_match_serial(self, tmp_path):
        out_a = str(tmp_path / "ser")
        out_b = str(tmp_path / "par")
        pa = write_config(tmp_path, "a.json", self.sweep_config(out_a))
        pb = write_config(tmp_path, "b.json", self.sweep_config(out_b))
        assert main(["sweep", "--config", pa, "--quiet"]) == 0
        assert main(["sweep", "--config", pb, "--quiet", "--jobs", "2"]) == 0
        a = open(out_a + "/results.csv").readlines()
        b = open(out_b + "/results.csv").readlines()
        strip = lambda lines: [",".join(x.split(",")[:17]) for x in lines]
        assert strip(a) == strip(b)


def test_import_loads_no_heavy_scipy_module(tmp_path):
    """The package imports and solves with numpy alone: after the import
    and one CLI minimize no scipy module is loaded, so neither the start-up
    nor a sweep's worker processes pay for one."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                      else [])))
    path = write_config(tmp_path, "c.json",
                        base_run_config(str(tmp_path / "run"), h=1 / 8))
    code = ("import sys, competelab, competelab.cli; "
            f"rc = competelab.cli.main(['minimize', '--config', {path!r}, "
            "'--quiet']); print(rc, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
