import os
import string
import tempfile
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competelab.energy import DensityField, SpeciesSystem, energy_total
from competelab.geometry import build_disc, build_rectangle, build_wedge
from competelab.model import (ScaledFamily, coupling_quartic, logistic,
                              scaled_family)
from competelab.solve import (MinimizeResult, SolverConfig, alive_flags,
                              minimize_multistart)
from competelab import lab, solve

FAST = SolverConfig(restarts=1, max_iters=6000)


def timed(monkeypatch, name):
    """Time each call of the batched solver ``solve.<name>``; returns the
    list the wall times go to."""
    walls, many = [], getattr(solve, name)

    def call(*args):
        t0 = time.perf_counter()
        out = many(*args)
        walls.append(time.perf_counter() - t0)
        return out
    monkeypatch.setattr(solve, name, call)
    return walls


def fake_result(mask, values, lam=200.0):
    fam = ScaledFamily(base=logistic(), k=1, eps=())
    sys = SpeciesSystem([DensityField(mask, values)], fam, None, lam)
    return MinimizeResult(system=sys, report=energy_total(sys), iters=0,
                          converged=True, alive=alive_flags(sys),
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

    def test_records_carry_per_start_wall_times(self, monkeypatch):
        # The starts are solved in one batch; a record's time is its start's
        # share of the batch's measured wall time, in proportion to its
        # iterations (times are written at 7 significant digits).
        walls = timed(monkeypatch, "minimize_partition_many")
        verdict = lab.verify_extinction_identical(build_rectangle(1, 1, 1 / 16),
                                                  2, 60.0, FAST)
        times = [r.wall_time for r in verdict.records]
        assert len(times) > 1 and all(t > 0 for t in times)
        per_iter = [t / r.iters for t, r in zip(times, verdict.records)]
        assert max(per_iter) == pytest.approx(min(per_iter), rel=2e-6)
        assert len(walls) == 1
        assert sum(times) == pytest.approx(walls[0], rel=1e-2)


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
        assert "fit_A" not in verdict.details

    def test_each_rate_takes_one_batch(self, monkeypatch):
        # limiti-square's rates, two starts of 3,969 values each: a rate's
        # starts share a batch, and its record's time covers that batch.
        walls = timed(monkeypatch, "minimize_free_many")
        verdict = lab.verify_limiti_asymptotics(build_rectangle(1, 1, 1 / 64),
                                                [200.0, 400.0, 800.0],
                                                SolverConfig(restarts=0))
        assert len(walls) == len(verdict.records) == 3
        assert all(r.wall_time >= (1 - 1e-6) * wall
                   for r, wall in zip(verdict.records, walls))

    def test_limit_fit_recovers_three_term_law(self):
        lams = [50.0, 100.0, 200.0, 400.0, 800.0]
        vals = [-0.16 + 1.5 / np.sqrt(lam) - 3.0 / lam for lam in lams]
        A, B, C = lab.limit_fit(lams, vals)
        assert (A, B, C) == pytest.approx((0.16, 1.5, -3.0), rel=1e-10)
        short = lab.limit_fit(lams, [0.85 * v for v in vals])
        assert short == pytest.approx((0.85 * A, 0.85 * B, 0.85 * C), rel=1e-10)

    def test_fit_in_details_with_three_rates(self):
        mask = build_rectangle(1, 1, 1 / 16)
        lams = [60.0, 150.0, 400.0]
        d = lab.verify_limiti_asymptotics(mask, lams, FAST).details
        assert (d["fit_A"], d["fit_B"], d["fit_C"]) == lab.limit_fit(lams, d["values"])
        assert d["fit_A_rel_gap"] == pytest.approx(
            abs(d["fit_A"] + d["target"]) / abs(d["target"]))


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
        # 1.3 lambda0, where lambda0 = 625.729869651192 is the first rate of
        # the scan lam = 1.05 lambda1 * 1.3^n (this mask and cfg) at which
        # the single-species minimum per unit rate dips below
        # -alpha |Omega| (1 - 1/(2k)); the first assertion checks that.
        lam = 813.4488305465496
        single, _ = minimize_multistart(mask, ScaledFamily(logistic(), 1),
                                        lam / 1.3, cfg=cfg)
        assert single.energy / (lam / 1.3) < \
            -logistic().alpha * mask.measure * (1 - 1 / (2 * 2))
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

    @pytest.mark.parametrize("reference,rel_tol,name", [
        (0.0, 0.01, "reference"), (np.inf, 0.01, "reference"),
        (2 * np.pi ** 2, np.nan, "rel_tol"), (2 * np.pi ** 2, -1.0, "rel_tol"),
    ], ids=["reference-zero", "reference-inf", "rel_tol-nan",
            "rel_tol-negative"])
    def test_rejects_a_bad_reference_or_tolerance(self, reference, rel_tol,
                                                  name):
        # A zero reference divided by zero; the others ran to FAIL.
        with pytest.raises(ValueError, match=name):
            lab.verify_eigenvalue(build_rectangle(1, 1, 1 / 16), reference,
                                  rel_tol)

    def test_details_carry_steps_and_residual(self):
        square = lab.verify_eigenvalue(build_rectangle(1, 1, 1 / 32),
                                       2 * np.pi ** 2, 0.01)
        assert square.details["steps"] == 0
        assert 0 <= square.details["residual"] <= 1e-10
        disc = lab.verify_eigenvalue(build_disc(1.0, 1 / 16), 5.783, 0.05)
        assert disc.details["steps"] > 0
        assert 0 < disc.details["residual"] <= np.sqrt(1e-8)


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
        rec = lab.record_from_result("smoke", best, seed=5, wall_time=0.1,
                                     verdict="best")
        path = tmp_path / "records.csv"
        lab.write_records_csv([rec], path)
        assert not os.path.exists(str(path) + ".tmp")
        back = lab.read_records_csv(path)
        assert len(back) == 1
        assert back[0].total == rec.total
        assert back[0].coordinate_key() == rec.coordinate_key()

    def test_wall_time_cell_has_a_fixed_width(self, tmp_path):
        mask = build_rectangle(1, 1, 1 / 8)
        res = fake_result(mask, np.zeros(mask.n_interior))
        col = lab.CSV_COLUMNS.index("wall_time")
        rec = lab.record_from_result("smoke", res, 0, 0.123456789)
        assert rec.to_row()[col] == "1.234568e-01"
        assert rec.wall_time == 0.1234568
        for t in (3e-7, 0.5, 2.0, 12345.678):
            cell = lab.record_from_result("smoke", res, 0, t).to_row()[col]
            assert len(cell) == 12 and float(cell) == pytest.approx(t, rel=1e-6)
        path = tmp_path / "records.csv"
        lab.write_records_csv([rec], path)
        assert lab.read_records_csv(path) == [rec]
        assert lab.read_records_csv(path)[0].to_row() == rec.to_row()

    def test_repeated_verify_keeps_one_record_file(self, tmp_path):
        for _ in range(3):
            lab.write_verdict(lab.verify_wedge_bound(2.0, 100.0, 1 / 24), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["wedge-bound.csv", "wedge-bound.json"]
        assert len(lab.read_records_csv(tmp_path / "wedge-bound.csv")) == 1


LABELS = st.text(string.ascii_letters + string.digits + "()=.-_ ", max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COUNTS = st.integers(0, 2 ** 31)


@st.composite
def run_records(draw):
    """RunRecords of k = 1..3 species: every float finite (any sign, full
    precision), eps empty for k = 1, one alive flag per species."""
    k = draw(st.integers(1, 3))
    floats = lambda n: st.tuples(*[FINITE] * n)
    return lab.RunRecord(
        draw(LABELS), draw(LABELS), draw(FINITE), k, draw(FINITE), draw(FINITE),
        draw(floats(k - 1)), draw(COUNTS), draw(LABELS), draw(COUNTS),
        draw(st.booleans()), draw(floats(k)), draw(floats(k)), draw(FINITE),
        draw(FINITE), draw(st.tuples(*[st.booleans()] * k)), draw(FINITE),
        draw(FINITE), draw(LABELS))


class TestRecordRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(run_records(), min_size=1, max_size=4))
    def test_csv_round_trip_is_exact(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            lab.write_records_csv(records, path)
            assert lab.read_records_csv(path) == records

    @settings(max_examples=60, deadline=None)
    @given(run_records())
    def test_coordinate_key_is_first_eight_cells(self, rec):
        assert rec.coordinate_key() == "|".join(rec.to_row()[:8])

    def test_columns_are_the_record_fields(self):
        assert lab.CSV_COLUMNS == [
            "experiment", "domain", "h", "k", "lam", "kappa", "eps", "seed",
            "start", "iters", "converged", "dirichlet", "potential",
            "interaction", "total", "alive", "overlap", "wall_time", "verdict"]


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

    def test_groups_match_multistart_per_point(self, tmp_path, monkeypatch):
        # A (lam, eps) group solves each lone-species start once, uncoupled,
        # and re-reports it at every kappa; each record still matches a
        # multistart at its own point.
        spec = lab.SweepSpec(
            domain={"kind": "disc", "radius": 1.0, "h": 1 / 12}, k=2,
            lam_grid=[60.0, 140.0], kappa_grid=[0.0, 200.0], eps_grid=[0.4],
            solver=SolverConfig(restarts=0), outdir=str(tmp_path / "sweep"))
        solves = []
        free_many = solve.minimize_free_many

        def counted(systems, cfg, labels):
            solves.extend(labels)
            return free_many(systems, cfg, labels)
        monkeypatch.setattr(solve, "minimize_free_many", counted)
        out = lab.run_sweep(spec, log=lambda *_: None)
        assert out["completed"] == 4
        # per group: single and single-2 once, seeded and uniform per kappa
        assert sorted(solves) == sorted(2 * ["single", "single-2"]
                                        + 4 * ["seeded", "uniform"])
        mask = lab.build_domain(spec.domain)
        fam = scaled_family(logistic(), 2, (0.4,))
        records = lab.read_records_csv(out["results_csv"])
        assert len(records) == 4
        for rec in records:
            best, _ = minimize_multistart(mask, fam, rec.lam,
                                          coupling=coupling_quartic(2),
                                          kappa=rec.kappa, cfg=spec.solver)
            want = lab.record_from_result(
                "sweep", best, spec.solver.seed, 0.0, eps=(0.4,),
                verdict="coexist" if best.alive_count == 2 else "extinct")
            for name in ("start", "verdict", "alive", "iters", "converged"):
                assert getattr(rec, name) == getattr(want, name)
            assert abs(rec.total - want.total) <= 1e-13 * abs(want.total)
            if rec.kappa == 0.0:
                for name in ("dirichlet", "potential", "interaction", "total",
                             "overlap"):
                    assert getattr(rec, name) == getattr(want, name)

    def test_oversized_group_follows_the_batch_rule(self, tmp_path,
                                                     monkeypatch):
        # One (lam, eps) group of 10 systems of 2 x 441 values, against a
        # batch of 4 such systems: the group's task is solved in 3 batches,
        # each within the rule, and its records are those of one batch.
        spec = lab.SweepSpec(
            domain={"kind": "disc", "radius": 1.0, "h": 1 / 12}, k=2,
            lam_grid=[100.0], kappa_grid=[0.0, 50.0, 200.0, 800.0],
            eps_grid=[0.4], solver=SolverConfig(restarts=0),
            outdir=str(tmp_path / "one"))
        want = lab.read_records_csv(
            lab.run_sweep(spec, log=lambda *_: None)["results_csv"])
        monkeypatch.setattr(solve, "BATCH_VALUES", 4 * 2 * 441)
        sizes, free_many = [], solve.minimize_free_many

        def counted(systems, cfg, labels):
            sizes.append(sum(s.k * s.mask.n_interior for s in systems))
            return free_many(systems, cfg, labels)
        monkeypatch.setattr(solve, "minimize_free_many", counted)
        spec.outdir = str(tmp_path / "cut")
        got = lab.read_records_csv(
            lab.run_sweep(spec, log=lambda *_: None)["results_csv"])
        assert len(sizes) == 3 and max(sizes) <= solve.BATCH_VALUES
        assert len(got) == len(want) == 4
        for rec, ref in zip(got, want):
            assert replace(rec, wall_time=0.0) == replace(ref, wall_time=0.0)

    def test_tasks_are_runs_of_whole_groups(self):
        groups = [(float(i), (0.4,), [0.0]) for i in range(12)]
        for sizes in ([8820] * 12, [100] * 12, [40000] * 12,
                      [5000, 30000, 100, 9000, 2, 33000, 1, 1, 1, 1, 7, 1]):
            for jobs in (1, 2, 3, 8, 20):
                tasks = lab.sweep_tasks(groups, sizes, jobs)
                assert [g for task in tasks for g in task] == groups
                assert len(tasks) >= min(jobs, len(groups))
                for task in tasks:
                    assert len(task) == 1 or sum(
                        sizes[int(g[0])] for g in task) <= solve.BATCH_VALUES
        # the benchmark's disc sweep: 12 groups of 10 systems x 2 x 441 nodes
        size = lab._group_values(2, 0, [0.0, 50.0, 200.0, 800.0], 441)
        assert size == 8820
        assert [len(t) for t in lab.sweep_tasks(groups, [size] * 12, 2)] == [3] * 4

    def test_operator_caches_stay_bounded(self, tmp_path, monkeypatch):
        # One task solves four groups (32 systems of 2 species, stacks of up
        # to 64 rows) as a shrinking batch; the stencil's and the box
        # solve's flat-index caches keep only stacks of at most 4 rows.
        masks, build = [], lab.build_domain
        monkeypatch.setattr(lab, "build_domain",
                            lambda spec: masks.append(build(spec)) or masks[-1])
        spec = lab.SweepSpec(
            domain={"kind": "disc", "radius": 1.0, "h": 1 / 12}, k=2,
            lam_grid=[60.0, 140.0], kappa_grid=[0.0, 200.0, 800.0],
            eps_grid=[0.4, 0.6], solver=SolverConfig(restarts=0),
            outdir=str(tmp_path / "sweep"))
        assert lab.run_sweep(spec, log=lambda *_: None)["completed"] == 12
        used = [m._ops for m in masks if m._ops is not None]
        assert len(used) == 1
        for cache in (used[0]._gather, used[0].box_solver()._scatter):
            assert cache and max(cache) <= 4

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
