import os

import numpy as np
import pytest

from competelab.energy import DensityField, SpeciesSystem, energy_total
from competelab.geometry import build_disc, build_rectangle, build_wedge
from competelab.model import ScaledFamily, logistic, scaled_family
from competelab.solve import MinimizeResult, SolverConfig, alive_flags
from competelab import lab

FAST = SolverConfig(restarts=1, max_iters=6000)


def fake_result(mask, values, lam=200.0):
    fam = ScaledFamily(base=logistic(), k=1, eps=())
    sys = SpeciesSystem([DensityField(mask, values)], fam, None, lam)
    return MinimizeResult(system=sys, report=energy_total(sys), iters=0,
                          converged=True, alive=alive_flags(sys, FAST),
                          start_label="fabricated", residual=0.0,
                          energies=np.array([energy_total(sys).total]))


class TestWedgeBound:
    def test_zero_field_satisfies_bound(self):
        mask = build_wedge(2.0, 1 / 24)
        chk = lab.check_wedge_bound(DensityField.zeros(mask), 2.0, 200.0)
        assert chk["ok"]

    def test_gamma_formula(self):
        assert lab.wedge_bound_gamma(2.0, 200.0, 0.25) == pytest.approx(200 * 0.25 / 6)
        with pytest.raises(ValueError):
            lab.wedge_bound_gamma(1.0, 200.0, 0.25)

    def test_fabricated_violation_fails(self):
        # slack 10*h*gamma must sit below the cap for a violation to exist
        h = 1 / 128
        mask = build_wedge(2.0, h)
        vals = np.zeros(mask.n_interior)
        vals[np.argmin(mask.xs)] = 1.0  # cap value at the node nearest the vertex
        verdict = lab.verify_wedge_bound(2.0, 200.0, h, FAST,
                                         minimizer=fake_result(mask, vals))
        assert verdict.status == lab.FAIL
        assert verdict.details["max_excess"] > 0

    def test_minimizer_passes_coarse(self):
        verdict = lab.verify_wedge_bound(2.0, 120.0, 1 / 32, FAST)
        assert verdict.status == lab.PASS
        assert verdict.details["max_excess"] <= 0


class TestCutoffScaling:
    def test_identity_cutoff_changes_nothing(self):
        mask = build_wedge(2.0, 1 / 24)
        rng = np.random.default_rng(0)
        u = DensityField(mask, rng.uniform(0, 1, mask.n_interior))
        # width so small that phi = 1 on every interior node
        tiny = float(mask.xs.min()) / 2.001
        ud = lab.cutoff_competitor(u, tiny)
        assert np.array_equal(ud.values, u.values)

    def test_cutoff_clears_strip(self):
        mask = build_wedge(2.0, 1 / 24)
        u = DensityField(mask, np.ones(mask.n_interior))
        ud = lab.cutoff_competitor(u, 0.25)
        assert np.all(ud.values[mask.xs <= 0.25] == 0.0)
        assert np.all(ud.values[mask.xs >= 0.5] == 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lab.verify_cutoff_scaling(2.0, 200.0, 1 / 24, [0.5, 0.4, 0.3], FAST)
        with pytest.raises(ValueError):
            lab.verify_cutoff_scaling(2.0, 200.0, 1 / 24,
                                      [0.01, 0.2, 0.3, 0.4], FAST)

    def test_slope_on_coarse_minimizer(self):
        verdict = lab.verify_cutoff_scaling(
            2.0, 200.0, 1 / 48, [4 / 48, 8 / 48, 16 / 48, 24 / 48], FAST)
        assert verdict.status == lab.PASS
        assert verdict.details["slope"] >= 3.0


class TestExtinction:
    def test_pass_on_square(self):
        mask = build_rectangle(1, 1, 1 / 20)
        verdict = lab.verify_extinction_identical(mask, 2, 60.0, FAST)
        assert verdict.status == lab.PASS
        assert verdict.details["best_alive_count"] <= 1
        assert verdict.details["merge_ok"]

    def test_k1_trivially_passes(self):
        mask = build_rectangle(1, 1, 1 / 16)
        verdict = lab.verify_extinction_identical(mask, 1, 50.0, FAST)
        assert verdict.status == lab.PASS

    def test_requires_supercritical_growth(self):
        mask = build_rectangle(1, 1, 1 / 16)
        with pytest.raises(ValueError):
            lab.verify_extinction_identical(mask, 2, 5.0, FAST)


class TestLimiti:
    def test_list_validation(self):
        mask = build_rectangle(1, 1, 1 / 16)
        with pytest.raises(ValueError):
            lab.verify_limiti_asymptotics(mask, [100.0, 50.0], FAST)
        with pytest.raises(ValueError):
            lab.verify_limiti_asymptotics(mask, [5.0, 50.0], FAST)

    def test_values_recorded_with_bound(self):
        mask = build_rectangle(1, 1, 1 / 16)
        verdict = lab.verify_limiti_asymptotics(mask, [60.0, 150.0], FAST)
        vals = verdict.details["values"]
        assert len(vals) == 2
        assert all(v >= verdict.details["target"] * 1.01 for v in vals)
        assert vals[1] < vals[0]
        assert verdict.details["monotone_ok"]


class TestLambdaZero:
    def test_scan_on_coarse_square(self):
        mask = build_rectangle(1, 1, 1 / 16)
        out = lab.estimate_lambda_zero(mask, 2, FAST, max_steps=18)
        assert out["lambda1"] > 0
        assert out["threshold"] == pytest.approx(
            -logistic().alpha * mask.measure * 0.75)
        assert out["lambda0"] is not None
        assert out["lambda0"] > out["lambda1"]
        # the located rate actually satisfies the dip condition
        assert out["scan"][-1][1] < out["threshold"]


class TestEpsilonScan:
    def test_decoupled_always_coexists(self):
        mask = build_disc(1.0, 1 / 12)
        verdict = lab.scan_epsilon_threshold(mask, 2, 60.0, 0.0,
                                             [0.2, 0.4, 0.6], FAST)
        assert verdict.status == lab.PASS
        assert verdict.details["coexisting"] == [0.2, 0.4, 0.6]
        assert verdict.details["eps_star"] is None

    def test_strong_suppression_degenerate(self):
        mask = build_disc(1.0, 1 / 12)
        verdict = lab.scan_epsilon_threshold(mask, 2, 60.0, 6e4,
                                             [0.4, 0.6], FAST)
        assert verdict.details["threshold"] is None
        assert verdict.details["degenerate"]
        assert verdict.status == lab.FAIL
        for rec in verdict.records:
            assert rec.verdict == "extinct"

    def test_coexists_at_moderate_competition(self):
        mask = build_disc(1.0, 1 / 12)
        verdict = lab.scan_epsilon_threshold(mask, 2, 200.0, 400.0,
                                             [0.1443, 0.4], FAST)
        assert 0.1443 in verdict.details["coexisting"]
        assert verdict.status == lab.PASS


class TestSystem2:
    def test_inconclusive_on_nonconvergence(self):
        mask = build_wedge(2.0, 1 / 24)
        tight = SolverConfig(restarts=0, max_iters=4, tol_residual=1e-15)
        verdict = lab.verify_system2(mask, 200.0, 0.6, [10.0, 100.0], tight)
        assert verdict.status == lab.INCONCLUSIVE
        assert verdict.details["failing_kappas"]

    def test_coarse_pass(self):
        mask = build_wedge(2.0, 1 / 32)
        cfg = SolverConfig(restarts=1, max_iters=20000)
        verdict = lab.verify_system2(mask, 200.0, 0.6,
                                     [10.0, 30.0, 100.0, 300.0, 1000.0], cfg)
        assert verdict.details["alive_ok"]
        assert verdict.details["monotone_ok"]
        assert verdict.details["overlap_drop"] > 1e3
        assert verdict.status == lab.PASS

    def test_undifferentiated_contrast_extinguishes(self):
        # nearly equal density scales: strong competition kills one species
        mask = build_wedge(2.0, 1 / 32)
        cfg = SolverConfig(restarts=1, max_iters=20000)
        verdict = lab.verify_system2(mask, 200.0, 0.95,
                                     [10.0, 100.0, 1000.0], cfg)
        assert verdict.status == lab.FAIL
        assert not verdict.details["alive_ok"]


class TestFirstComponentGap:
    def test_coexistence_run_first_species_dips_below_half_share(self):
        # past the growth threshold, the best state's first component
        # carries energy below -alpha*lam*|Omega|/(2k)
        mask = build_rectangle(1, 1, 1 / 16)
        cfg = SolverConfig(restarts=1, max_iters=20000)
        scan = lab.estimate_lambda_zero(mask, 2, cfg, max_steps=18)
        lam = 1.3 * scan["lambda0"]
        verdict = lab.scan_epsilon_threshold(mask, 2, lam, 50.0, [0.3], cfg)
        assert verdict.details["coexisting"] == [0.3]
        j1 = verdict.details["j1_values"][0]
        bound = -logistic().alpha * lam * mask.measure / (2 * 2)
        assert j1 < bound + 0.01 * abs(bound)


class TestEig:
    def test_pass_and_fail_paths(self):
        mask = build_rectangle(1, 1, 1 / 32)
        good = lab.verify_eigenvalue(mask, 2 * np.pi ** 2, 0.01)
        assert good.status == lab.PASS
        bad = lab.verify_eigenvalue(mask, 30.0, 0.001)
        assert bad.status == lab.FAIL


class TestRecords:
    def test_fmt_17_digits_roundtrip(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1e3, 1e3, 50):
            assert float(lab.fmt(float(x))) == float(x)
        assert lab.fmt(True) == "1"
        assert lab.fmt(7) == "7"

    def test_csv_roundtrip(self, tmp_path):
        mask = build_rectangle(1, 1, 1 / 16)
        from competelab.solve import minimize_multistart
        best, _ = minimize_multistart(mask, ScaledFamily(base=logistic(), k=1,
                                                         eps=()), 60.0, cfg=FAST)
        rec = lab.record_from_result("smoke", mask, best, seed=5, wall_time=0.1,
                                     verdict="best")
        path = tmp_path / "records.csv"
        lab.write_records_csv([rec], path)
        assert not os.path.exists(str(path) + ".tmp")
        back = lab.read_records_csv(path)
        assert len(back) == 1
        assert back[0].total == rec.total
        assert back[0].coordinate_key() == rec.coordinate_key()

    def test_manifest_resume_keys(self, tmp_path):
        mask = build_rectangle(1, 1, 1 / 16)
        rec = lab.RunRecord("sweep", lab.domain_label(mask), mask.h, 1, 50.0,
                            0.0, (), 3, "single", 10, True, (1.0,), (2.0,),
                            0.0, -1.0, (True,), 0.0, 0.5)
        manifest = tmp_path / "manifest.txt"
        lab.append_manifest(rec, manifest)
        keys = lab.read_manifest_keys(manifest)
        assert rec.coordinate_key() in keys

    def test_repeated_verify_adds_no_manifest_lines(self, tmp_path):
        for _ in range(3):
            lab.verify_wedge_bound(2.0, 100.0, 1 / 24, out=tmp_path)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(lines) == 1
        assert (tmp_path / "wedge-bound.csv").exists()


class TestSweep:
    def test_grid_and_resume(self, tmp_path):
        spec = lab.SweepSpec(
            domain={"kind": "rectangle", "width": 1.0, "height": 1.0, "h": 1 / 12},
            k=1, lam_grid=[40.0, 80.0], kappa_grid=[0.0], eps_grid=[0.0],
            solver=SolverConfig(restarts=0, max_iters=3000),
            outdir=str(tmp_path / "sweep"))
        out1 = lab.run_sweep(spec, log=lambda *_: None)
        assert out1["completed"] == 2
        recs = lab.read_records_csv(out1["results_csv"])
        assert len(recs) == 2
        out2 = lab.run_sweep(spec, log=lambda *_: None)
        assert out2["completed"] == 0
        assert out2["skipped"] == 2

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            lab.SweepSpec(domain={"kind": "disc", "radius": 1.0, "h": 0.1},
                          k=1, lam_grid=[], kappa_grid=[0.0], eps_grid=[0.0],
                          solver=SolverConfig(), outdir=str(tmp_path))


class TestDomainHelpers:
    def test_build_domain_kinds(self):
        assert lab.build_domain({"kind": "rectangle", "width": 1.0,
                                 "height": 2.0, "h": 0.1}).kind == "rectangle"
        assert lab.build_domain({"kind": "disc", "radius": 0.5,
                                 "h": 0.05}).kind == "disc"
        assert lab.build_domain({"kind": "wedge", "m": 2.0,
                                 "h": 0.05}).kind == "wedge"
        with pytest.raises(ValueError):
            lab.build_domain({"kind": "hexagon", "h": 0.1})

    def test_domain_labels(self):
        assert lab.domain_label(build_disc(1.0, 0.1)) == "disc(r=1)"
        assert lab.domain_label(build_wedge(2.0, 0.05)) == "wedge(m=2)"
