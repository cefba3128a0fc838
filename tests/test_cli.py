import csv
import json

import pytest

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

    def test_solver_parse(self):
        cfg = parse_solver({"restarts": 2}, seed_override=99)
        assert cfg.seed == 99 and cfg.restarts == 2
        with pytest.raises(ConfigError):
            parse_solver({"tol_energy": -1.0})


class TestMinimizeCommand:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cfg = base_run_config(out)
        rc = main(["minimize", "--config",
                   write_config(tmp_path, "c.json", cfg), "--dump-fields"])
        assert rc == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(r["verdict"] == "best" for r in rows)
        assert (tmp_path / "run" / "fields" / "u1.csv").exists()
        assert (tmp_path / "run" / "fields" / "u1.pgm").exists()
        # normalized config written and round-trips
        saved = json.load(open(out + "/config.json"))
        assert normalize_run_config(saved) == saved

    def test_rerun_adds_no_manifest_lines(self, tmp_path):
        # every start of a run shares one coordinate key
        out = str(tmp_path / "run")
        path = write_config(tmp_path, "c.json", base_run_config(out))
        for _ in range(2):
            assert main(["minimize", "--config", path, "--quiet"]) == 0
        with open(out + "/manifest.txt") as fh:
            assert len(fh.read().splitlines()) == 1

    def test_forced_nonconvergence_exits_2(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = base_run_config(out)
        cfg["solver"] = {"max_iters": 10, "tol_residual": 1e-15, "restarts": 0}
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg)])
        assert rc == 2

    def test_seed_override(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = base_run_config(out)
        rc = main(["minimize", "--config", write_config(tmp_path, "c.json", cfg),
                   "--seed", "123", "--quiet"])
        assert rc == 0
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["seed"] == "123" for r in rows)


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
        rc = main(["eig", "--out", str(tmp_path / "eig")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda1" in out and "PASS" in out
        assert (tmp_path / "eig" / "eig.json").exists()

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

    def test_resume_skips_done(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        path = write_config(tmp_path, "s.json", self.sweep_config(out))
        assert main(["sweep", "--config", path, "--quiet"]) == 0
        assert main(["sweep", "--config", path]) == 0
        assert "0 computed, 4 skipped" in capsys.readouterr().out

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

    def test_partial_completion_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        cfg = self.sweep_config(out)
        cfg["lambdas"] = [40.0, -1.0]  # second point is invalid
        rc = main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2 points missing" in err or "missing" in err
        with open(out + "/results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # the valid lambda's two kappa points completed

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
