import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competelab.energy import DensityField, SpeciesSystem, energy_total
from competelab.geometry import build_disc, build_rectangle, build_wedge
from competelab.model import (Nonlinearity, ScaledFamily, coupling_quartic,
                              identical_family, logistic, scaled_family)
from competelab.solve import (SolverConfig, alive_flags, default_initializers,
                              kappa_continuation, merged_system, minimize_free,
                              minimize_multistart, minimize_partition,
                              segregation_projection)


def single_fam():
    return ScaledFamily(base=logistic(), k=1, eps=())


def zero_system(mask, fam, lam, kappa=0.0, coupling=None):
    fields = [DensityField.zeros(mask) for _ in range(fam.k)]
    return SpeciesSystem(fields, fam, coupling, lam, kappa)


class TestMinimizeFree:
    def test_zero_is_fixed_point_below_lambda1(self):
        mask = build_rectangle(1, 1, 1 / 16)  # lambda1 ~ 19.7
        res = minimize_free(zero_system(mask, single_fam(), 10.0),
                            SolverConfig(max_iters=200))
        assert res.converged
        assert np.all(res.system.fields[0].values == 0.0)
        assert res.energy == 0.0

    def test_energy_monotone_and_box(self):
        mask = build_rectangle(1, 1, 1 / 24)
        fam = scaled_family(logistic(), 2, (0.3,))
        rng = np.random.default_rng(0)
        U = rng.uniform(0, 1, (2, mask.n_interior)) * fam.betas[:, None]
        sys0 = SpeciesSystem([DensityField(mask, U[i]) for i in range(2)],
                             fam, coupling_quartic(2), 150.0, 200.0)
        res = minimize_free(sys0, SolverConfig(max_iters=4000))
        assert np.all(np.diff(res.energies) <= 1e-12)
        final = res.system.stacked()
        assert np.all(final >= 0)
        assert np.all(final <= fam.betas[:, None] + 1e-15)

    def test_initial_iterate_is_projected(self):
        mask = build_rectangle(1, 1, 1 / 8)
        fam = single_fam()
        start = SpeciesSystem([DensityField(mask, np.full(mask.n_interior, 7.0))],
                              fam, None, 50.0)
        res = minimize_free(start, SolverConfig(max_iters=50))
        assert res.system.fields[0].values.max() <= 1.0

    def test_nonfinite_energy_rejected(self):
        from competelab.model import Nonlinearity
        bad = Nonlinearity(g=lambda s: np.full(np.shape(s), np.nan),
                           beta=1.0, gmax=1.0, alpha=1.0,
                           G=lambda s: np.full(np.shape(s), np.nan))
        fam = ScaledFamily(base=bad, k=1, eps=())
        mask = build_rectangle(1, 1, 1 / 8)
        start = SpeciesSystem([DensityField(mask, np.full(mask.n_interior, 0.5))],
                              fam, None, 50.0)
        with pytest.raises(ValueError):
            minimize_free(start, SolverConfig(max_iters=5))

    def test_nonconvergence_reported(self):
        mask = build_rectangle(1, 1, 1 / 16)
        res = minimize_free(zero_system(mask, single_fam(), 100.0).replace_values(
            np.full((1, mask.n_interior), 0.5)),
            SolverConfig(max_iters=3, tol_residual=1e-15))
        assert not res.converged

    def test_residual_reported_on_convergence(self):
        mask = build_rectangle(1, 1, 1 / 16)
        cfg = SolverConfig(max_iters=5000)
        res = minimize_free(zero_system(mask, single_fam(), 100.0).replace_values(
            np.full((1, mask.n_interior), 0.5)), cfg)
        assert res.converged
        assert res.residual <= 1e-6 * 100.0
        assert res.stop_reason == "residual"
        assert 0 <= res.fallback_steps < res.iters

    def test_max_iters_reported(self):
        mask = build_rectangle(1, 1, 1 / 16)
        res = minimize_free(zero_system(mask, single_fam(), 100.0).replace_values(
            np.full((1, mask.n_interior), 0.5)), SolverConfig(max_iters=3))
        assert res.iters == 3 and not res.converged
        assert res.stop_reason == "max_iters"

    def test_step_underflow_reported(self):
        # G is the negated antiderivative of g, so the gradient the solver
        # is handed points uphill: no preconditioned or Euclidean step
        # passes Armijo and the solve must say so instead of stalling.
        good = logistic()
        bad = Nonlinearity(g=good.g, beta=1.0, gmax=0.25, alpha=good.alpha,
                           G=lambda s: -good.G(s))
        mask = build_rectangle(1, 1, 1 / 4)
        start = SpeciesSystem([DensityField(mask, np.full(mask.n_interior, 0.5))],
                              ScaledFamily(base=bad, k=1, eps=()), None, 1e4)
        res = minimize_free(start, SolverConfig(max_iters=50))
        assert res.stop_reason == "step_underflow"
        assert res.iters == 1 and res.fallback_steps == 1
        assert not res.converged
        assert np.array_equal(res.system.fields[0].values, start.fields[0].values)


def single_start_solve(build, h, lam, max_iters):
    mask = build(h)
    starts = dict(default_initializers(mask, single_fam(), lam,
                                       cfg=SolverConfig(restarts=0)))
    return minimize_free(starts["single"],
                         SolverConfig(restarts=0, max_iters=max_iters))


class TestPreconditionedDescent:
    @pytest.mark.parametrize("lam", [50.0, 200.0, 800.0])
    @pytest.mark.parametrize("build", [lambda h: build_rectangle(1, 1, h),
                                       lambda h: build_disc(1.0, h)],
                             ids=["square", "disc"])
    def test_iterations_independent_of_mesh(self, build, lam):
        # Euclidean descent needs 1607 and 6379 iterations at lam = 50 on
        # the square at h = 1/32 and 1/64; the H^1 direction keeps the
        # count flat.  On the disc the box solve alone stalls at h = 1/128,
        # lam = 50, with the residual stuck above tolerance.
        for h in (1 / 32, 1 / 64, 1 / 128):
            res = single_start_solve(build, h, lam, max_iters=60)
            assert res.stop_reason == "residual", (h, res.iters)
            assert res.converged

    @pytest.mark.parametrize("kappa,seed_energy", [(400.0, -95.55591211732187),
                                                   (4000.0, -75.65372161575897)])
    def test_best_of_starts_matches_euclidean_descent(self, kappa, seed_energy):
        # seed_energy: the best over the same starts found by Euclidean
        # projected descent.  A single start may end in another local
        # minimum (at kappa = 4000 the seeded start loses species 2); the
        # best over starts may not be worse.
        mask = build_disc(1.0, 1 / 32)
        fam = scaled_family(logistic(), 2, (0.3,))
        best, results = minimize_multistart(mask, fam, 200.0,
                                            coupling=coupling_quartic(2),
                                            kappa=kappa,
                                            cfg=SolverConfig(restarts=0))
        assert best.energy <= seed_energy + 1e-9 * abs(seed_energy)
        assert best.alive == [True, True]
        assert all(r.converged for r in results)

    def test_partition_reports_stall(self):
        mask = build_wedge(2.0, 1 / 24)
        fam = scaled_family(logistic(), 2, (0.5,))
        starts = dict(default_initializers(mask, fam, 300.0,
                                           cfg=SolverConfig(restarts=0)))
        res = minimize_partition(starts["seeded"], SolverConfig())
        assert res.converged and res.stop_reason == "stall"
        capped = minimize_partition(starts["seeded"], SolverConfig(max_iters=2))
        assert capped.stop_reason == "max_iters" and not capped.converged

    @pytest.mark.parametrize("solver,start", [(minimize_free, "seeded"),
                                              (minimize_partition, "single")])
    def test_converged_result_is_a_fixed_point(self, solver, start):
        # A solve that ends on a flat unit step (every species flat, for
        # the partition solver) is a fixed point: a new solve from its
        # result takes that null step at once and returns U unchanged.
        # Coexisting partitions still end on the stall window, because the
        # segregation projection undoes their steps across the interface.
        mask = build_wedge(2.0, 1 / 24)
        fam = scaled_family(logistic(), 2, (0.5,))
        starts = dict(default_initializers(mask, fam, 300.0, coupling_quartic(2),
                                           100.0, cfg=SolverConfig(restarts=0)))
        res = solver(starts[start], SolverConfig())
        again = solver(res.system, SolverConfig())
        assert res.converged and again.converged
        assert again.iters == 1
        assert np.array_equal(again.system.stacked(), res.system.stacked())

    def test_no_round_off_tail(self):
        # The last steps of a converged solve sit at energy round-off,
        # where Armijo fails on noise; unless a flat unit step ends the
        # solve, each of them backtracks into the Euclidean fallback.
        res = single_start_solve(lambda h: build_rectangle(1, 1, h), 1 / 64,
                                 200.0, max_iters=60)
        assert res.converged and res.stop_reason == "residual"
        assert res.fallback_steps == 0
        assert res.evals <= res.iters + 1

    def test_flat_steps_need_the_residual_below_tolerance(self):
        mask = build_rectangle(1, 1, 1 / 32)
        starts = dict(default_initializers(mask, single_fam(), 200.0,
                                           cfg=SolverConfig(restarts=0)))
        res = minimize_free(starts["single"],
                            SolverConfig(tol_residual=1e-30, max_iters=200))
        assert not res.converged
        assert res.stop_reason in ("max_iters", "step_underflow")


MASKS = {"square": build_rectangle(1, 1, 1 / 10), "disc": build_disc(1.0, 1 / 6),
         "wedge": build_wedge(2.0, 1 / 20)}


@st.composite
def random_systems(draw):
    mask = MASKS[draw(st.sampled_from(sorted(MASKS)))]
    k = draw(st.integers(1, 3))
    eps = tuple(draw(st.floats(0.1, 0.9)) for _ in range(k - 1))
    fam = ScaledFamily(base=logistic(), k=k, eps=eps)
    lam = draw(st.floats(5.0, 400.0))
    kappa = draw(st.floats(0.0, 2000.0)) if k > 1 else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # starts may leave the box: the solvers project them first
    U = rng.uniform(-0.5, 1.5, (k, mask.n_interior)) * fam.betas[:, None]
    fields = [DensityField(mask, U[i]) for i in range(k)]
    coupling = coupling_quartic(k) if k > 1 else None
    return SpeciesSystem(fields, fam, coupling, lam, kappa)


def in_box(res):
    U = res.system.stacked()
    return bool(np.all(U >= 0.0) and np.all(U <= res.system.fam.betas[:, None]))


class TestSolverProperties:
    @given(random_systems())
    @settings(max_examples=30, deadline=None)
    def test_free_energy_never_rises_and_stays_in_box(self, sys0):
        res = minimize_free(sys0, SolverConfig(max_iters=150))
        assert np.all(np.diff(res.energies) <= 0.0)
        assert res.energies[-1] == pytest.approx(res.energy, rel=1e-12, abs=1e-12)
        assert in_box(res)
        assert res.stop_reason in ("residual", "max_iters", "step_underflow")

    @given(random_systems())
    @settings(max_examples=30, deadline=None)
    def test_partition_disjoint_and_in_box(self, sys0):
        res = minimize_partition(sys0, SolverConfig(max_iters=150))
        V = res.system.stacked()
        for i in range(V.shape[0]):
            for j in range(i + 1, V.shape[0]):
                assert np.all(V[i] * V[j] == 0.0)
        assert in_box(res)
        assert res.stop_reason in ("stall", "max_iters")


class TestInitializers:
    def test_roster_labels(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = scaled_family(logistic(), 2, (0.3,))
        starts = default_initializers(mask, fam, 200.0,
                                      coupling=coupling_quartic(2),
                                      cfg=SolverConfig(restarts=3))
        labels = [lbl for lbl, _ in starts]
        assert labels[0] == "single"
        assert "single-2" in labels
        assert "uniform" in labels
        assert sum(lbl.startswith("random") for lbl in labels) == 3

    def test_seeded_disjoint_supports(self):
        for mask in (build_wedge(2.0, 1 / 32), build_disc(1.0, 1 / 16),
                     build_rectangle(1, 1, 1 / 16)):
            fam = scaled_family(logistic(), 2, (0.3,))
            starts = dict(default_initializers(mask, fam, 200.0,
                                               cfg=SolverConfig(restarts=0)))
            if "seeded" not in starts:
                continue
            U = starts["seeded"].stacked()
            assert float(np.max(U[0] * U[1])) == 0.0
            assert U[1].max() > 0
            sys = starts["seeded"]
            sys = SpeciesSystem(sys.fields, fam, coupling_quartic(2), 200.0, 77.0)
            assert energy_total(sys).interaction == 0.0

    def test_bump_start_energy_negative_at_large_growth(self):
        mask = build_rectangle(1, 1, 1 / 32)
        starts = dict(default_initializers(mask, single_fam(), 200.0,
                                           cfg=SolverConfig(restarts=0)))
        assert energy_total(starts["single"]).total < 0

    def test_uniform_start_is_half_cap(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = scaled_family(logistic(), 3, (0.5, 0.25))
        starts = dict(default_initializers(mask, fam, 100.0,
                                           cfg=SolverConfig(restarts=0)))
        U = starts["uniform"].stacked()
        for i in range(3):
            assert np.all(U[i] == fam.betas[i] / 2)

    def test_random_starts_seeded_deterministically(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = single_fam()
        a = dict(default_initializers(mask, fam, 100.0, cfg=SolverConfig(
            restarts=2, seed=42)))
        b = dict(default_initializers(mask, fam, 100.0, cfg=SolverConfig(
            restarts=2, seed=42)))
        assert np.array_equal(a["random-1"].stacked(), b["random-1"].stacked())


class TestMultistart:
    def test_best_is_minimum_over_starts(self):
        mask = build_rectangle(1, 1, 1 / 24)
        cfg = SolverConfig(restarts=2, max_iters=4000)
        best, results = minimize_multistart(mask, single_fam(), 150.0, cfg=cfg)
        assert best.energy == min(r.energy for r in results)
        assert best.converged

    def test_k1_free_matches_single_species_minimum(self):
        mask = build_rectangle(1, 1, 1 / 24)
        cfg = SolverConfig(restarts=1, max_iters=6000)
        best, _ = minimize_multistart(mask, single_fam(), 150.0, cfg=cfg)
        from competelab.energy import single_species_energy
        J = single_species_energy(best.system.fields[0], 1, best.system.fam, 150.0)
        assert J == pytest.approx(best.energy, rel=1e-12)


class TestPartition:
    def test_output_segregated(self):
        mask = build_rectangle(1, 1, 1 / 24)
        fam = scaled_family(logistic(), 3, (0.5, 0.25))
        rng = np.random.default_rng(1)
        U = rng.uniform(0, 1, (3, mask.n_interior)) * fam.betas[:, None]
        sys0 = SpeciesSystem([DensityField(mask, U[i]) for i in range(3)],
                             fam, None, 120.0)
        res = minimize_partition(sys0, SolverConfig(max_iters=3000))
        V = res.system.stacked()
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.all(V[i] * V[j] == 0.0)

    def test_identical_laws_extinguish(self):
        mask = build_rectangle(1, 1, 1 / 24)
        fam = identical_family(logistic(), 2)
        cfg = SolverConfig(restarts=2, max_iters=6000)
        best, _ = minimize_multistart(mask, fam, 80.0, cfg=cfg, partition=True)
        assert best.alive_count <= 1

    def test_merge_never_raises_energy(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = identical_family(logistic(), 3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            U = segregation_projection(
                rng.uniform(0, 1, (3, mask.n_interior)))
            sys = SpeciesSystem([DensityField(mask, U[i]) for i in range(3)],
                                fam, None, 90.0)
            e = energy_total(sys).total
            e_merged = energy_total(merged_system(sys)).total
            assert e_merged <= e + 1e-12 * max(1.0, abs(e))

    def test_projection_keeps_largest_lowest_index(self):
        U = np.array([[0.5, 0.2, 0.0], [0.5, 0.7, 0.0]])
        P = segregation_projection(U)
        assert P[0, 0] == 0.5 and P[1, 0] == 0.0  # tie -> lowest index
        assert P[0, 1] == 0.0 and P[1, 1] == 0.7
        assert P[0, 2] == 0.0 and P[1, 2] == 0.0

    def test_wedge_partition_coexists_at_high_growth(self):
        # derived instance: past the wedge's growth threshold the corner
        # mechanism makes the two-component partition the best found
        mask = build_wedge(2.0, 1 / 64)
        fam = scaled_family(logistic(), 2, (0.3,))
        cfg = SolverConfig(restarts=0, max_iters=40000)
        best, results = minimize_multistart(mask, fam, 5000.0, cfg=cfg,
                                            partition=True)
        assert best.alive_count == 2
        assert best.start_label == "seeded"
        single_best = min(r.energy for r in results
                          if r.start_label.startswith(("single", "uniform")))
        assert best.energy < single_best


class TestContinuation:
    def test_schedule_must_increase(self):
        mask = build_rectangle(1, 1, 1 / 8)
        sys0 = zero_system(mask, scaled_family(logistic(), 2, (0.4,)), 100.0,
                           coupling=coupling_quartic(2))
        with pytest.raises(ValueError):
            kappa_continuation(sys0, [10.0, 10.0], SolverConfig())

    def test_estimates_monotone_and_overlap_decreasing(self):
        mask = build_disc(1.0, 1 / 12)
        fam = scaled_family(logistic(), 2, (0.45,))
        cfg = SolverConfig(restarts=1, max_iters=6000)
        best, _ = minimize_multistart(mask, fam, 150.0,
                                      coupling=coupling_quartic(2), kappa=10.0,
                                      cfg=cfg)
        results = kappa_continuation(best.system, [10.0, 100.0, 1000.0], cfg)
        energies = [r.energy for r in results]
        overlaps = [r.report.interaction for r in results]
        assert all(b >= a - 1e-8 for a, b in zip(energies, energies[1:]))
        assert overlaps[-1] < overlaps[0]
        assert all(r.system.kappa == k for r, k in
                   zip(results, [10.0, 100.0, 1000.0]))


class TestAliveFlags:
    def test_threshold_scaling(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = scaled_family(logistic(), 2, (0.2,))
        cfg = SolverConfig()
        eta2 = 1e-3 * fam.betas[1] * np.sqrt(mask.measure)
        U = np.zeros((2, mask.n_interior))
        sys = SpeciesSystem([DensityField(mask, U[i]) for i in range(2)],
                            fam, coupling_quartic(2), 100.0)
        assert alive_flags(sys, cfg) == [False, False]
        U[1, :] = 2 * eta2 / np.sqrt(mask.measure)
        sys = sys.replace_values(U)
        assert alive_flags(sys, cfg) == [False, True]

    def test_config_override(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = single_fam()
        U = np.full((1, mask.n_interior), 1e-4)
        sys = zero_system(mask, fam, 100.0).replace_values(U)
        assert alive_flags(sys, SolverConfig(coexist_eta=1e-9)) == [True]
        assert alive_flags(sys, SolverConfig(coexist_eta=1.0)) == [False]


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_energy=0.0)
        with pytest.raises(ValueError):
            SolverConfig(armijo_shrink=1.0)
        with pytest.raises(ValueError):
            SolverConfig(coexist_eta=-1.0)

    def test_with_override(self):
        cfg = SolverConfig().with_(restarts=3, seed=9)
        assert cfg.restarts == 3 and cfg.seed == 9
