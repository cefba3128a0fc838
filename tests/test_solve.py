import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from competelab.energy import (DensityField, Objective, SpeciesSystem, _ops,
                               energy_total)
from competelab.geometry import (DomainMask, Grid, build_disc, build_rectangle,
                                 build_wedge)
from competelab.model import (Nonlinearity, ScaledFamily, coupling_quartic,
                              identical_family, logistic, scaled_family)
from competelab import solve
from competelab.solve import (BATCH_VALUES, STEP, SolverConfig,
                              _distance_to_boundary, _newton_direction, _projected_step,
                              _search_direction, alive_flags,
                              batch_runs, default_initializers,
                              kappa_continuation, merged_system, minimize_free,
                              minimize_free_many, minimize_multistart,
                              minimize_partition, minimize_partition_many,
                              segregation_projection, solve_starts)


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
                           G=lambda s: np.full(np.shape(s), np.nan),
                           dg=lambda s: np.full(np.shape(s), np.nan))
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

    def test_max_iters_reported(self):
        mask = build_rectangle(1, 1, 1 / 16)
        res = minimize_free(zero_system(mask, single_fam(), 100.0).replace_values(
            np.full((1, mask.n_interior), 0.5)), SolverConfig(max_iters=3))
        assert res.iters == 3 and not res.converged
        assert res.stop_reason == "max_iters"

    def test_step_underflow_reported(self):
        # G is the negated antiderivative of g, so the gradient the solver
        # is handed points uphill: no trial step passes Armijo and the
        # solve must say so instead of stalling.
        res, start = uphill_solve(minimize_free)
        assert res.stop_reason == "step_underflow"
        assert res.iters == 1
        assert res.evals <= 11   # the start and at most ten trials
        assert not res.converged
        assert np.array_equal(res.system.fields[0].values, start.fields[0].values)


def uphill_solve(solver):
    """A k = 1 solve whose energy is the negated one of its gradient."""
    good = logistic()
    bad = Nonlinearity(g=good.g, beta=1.0, gmax=0.25, alpha=good.alpha,
                       G=lambda s: -good.G(s), dg=good.dg)
    mask = build_rectangle(1, 1, 1 / 4)
    start = SpeciesSystem([DensityField(mask, np.full(mask.n_interior, 0.5))],
                          ScaledFamily(base=bad, k=1, eps=()), None, 1e4)
    return solver(start, SolverConfig(max_iters=50)), start


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
        # the square at h = 1/32 and 1/64; the preconditioned Newton
        # direction keeps the count flat.  On the disc the H^1 direction by
        # the box solve alone stalls at h = 1/128, lam = 50, with the
        # residual stuck above tolerance; the Newton direction does not.
        for h in (1 / 32, 1 / 64, 1 / 128):
            res = single_start_solve(build, h, lam, max_iters=60)
            assert res.stop_reason == "residual", (h, res.iters)
            assert res.converged

    @pytest.mark.parametrize("kappa,seed_energy", [(400.0, -95.55591211732187),
                                                   (4000.0, -75.65372161575897)])
    def test_best_of_starts_matches_gradient_descent(self, kappa, seed_energy):
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

    def test_partition_reports_step_underflow(self):
        # No species can move (its only trial steps go uphill), so every
        # later iteration repeats the first: the solve stops at once and
        # is not converged, as the free solver's is.
        res, start = uphill_solve(minimize_partition)
        assert res.stop_reason == "step_underflow" and not res.converged
        assert res.iters == 1 and res.evals <= 11
        assert np.array_equal(res.system.fields[0].values, start.fields[0].values)

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
        # solve, each of them backtracks down to the step floor.
        res = single_start_solve(lambda h: build_rectangle(1, 1, h), 1 / 64,
                                 200.0, max_iters=60)
        assert res.converged and res.stop_reason == "residual"
        assert res.evals <= res.iters + 1

    def test_flat_steps_need_the_residual_below_tolerance(self):
        mask = build_rectangle(1, 1, 1 / 32)
        starts = dict(default_initializers(mask, single_fam(), 200.0,
                                           cfg=SolverConfig(restarts=0)))
        res = minimize_free(starts["single"],
                            SolverConfig(tol_residual=1e-30, max_iters=200))
        assert not res.converged
        assert res.stop_reason in ("max_iters", "step_underflow")


class TestNewtonStep:
    @pytest.mark.parametrize("h", [1 / 32, 1 / 64])
    def test_stiff_continuation_converges_in_few_steps(self, h):
        # The stiff end of criterion 9's continuation (wedge m = 2, lam 200,
        # eps2 0.6).  The H^1 direction needed 393 (h = 1/32) and 508
        # (h = 1/64) iterations at kappa = 1000: no positive shift of the
        # metric represents the negative curvature -lam f_i'(u_i).
        mask = build_wedge(2.0, h)
        fam = scaled_family(logistic(), 2, (0.6,))
        cfg = SolverConfig(restarts=0)
        best, _ = minimize_multistart(mask, fam, 200.0,
                                      coupling=coupling_quartic(2), kappa=10.0,
                                      cfg=cfg)
        results = kappa_continuation(best.system,
                                     [10.0, 30.0, 100.0, 300.0, 1000.0], cfg)
        iters = [r.iters for r in results]
        assert all(r.converged for r in results), iters
        assert max(iters) <= 20, iters
        assert all(r.cg_iters > 0 for r in results)

    def test_negative_curvature_at_once_takes_the_h1_step(self):
        # A small uniform density far above lambda1: the Hessian
        # L/h^2 - lam f'(u) is negative along the first preconditioned
        # residual, so the solver must take the H^1 step bit for bit.
        mask = build_disc(1.0, 1 / 32)
        fam = single_fam()
        h2, lam = mask.h ** 2, 200.0
        U = np.full((1, 1, mask.n_interior), 1e-3)
        sys0 = zero_system(mask, fam, lam).replace_values(U[0])
        obj, box = Objective.many([sys0]), _ops(mask).box_solver()
        caps = fam.betas[None, :, None]
        E, LU = obj.value(U)
        grad = obj.grad(U, LU)
        shifts = obj.shifts()
        _, cg, flagged, _ = _newton_direction(obj, box, U, grad, caps, shifts)
        assert cg == [1] and flagged == [True]
        D = -h2 * box.solve(grad, shifts)
        U_h1, E_h1, _, how, _ = _projected_step(obj, U, E, grad, D, caps,
                                                null_ok=[False])
        assert how == [STEP]
        res = minimize_free(sys0, SolverConfig(max_iters=1))
        assert np.array_equal(res.system.stacked(), U_h1[0])
        assert res.energies[-1] == E_h1[0]
        assert res.cg_iters == 1

    def test_partition_takes_cg_steps(self):
        mask = build_wedge(2.0, 1 / 24)
        fam = scaled_family(logistic(), 2, (0.5,))
        starts = dict(default_initializers(mask, fam, 300.0,
                                           cfg=SolverConfig(restarts=0)))
        assert minimize_partition(starts["seeded"], SolverConfig()).cg_iters > 0

    def test_partition_first_step_is_one_search_direction_step(self):
        # Each species takes one projected step along the shared search
        # direction on its own energy, then the segregation projection
        # restores disjoint supports, bit for bit.
        mask = build_wedge(2.0, 1 / 24)
        fam = scaled_family(logistic(), 2, (0.5,))
        starts = dict(default_initializers(mask, fam, 300.0,
                                           cfg=SolverConfig(restarts=0)))
        sys0 = starts["seeded"]
        k, n = sys0.k, mask.n_interior
        caps = fam.betas[:, None, None]
        U = segregation_projection(
            np.clip(sys0.stacked(), 0.0, fam.betas[:, None])).reshape(k, 1, n)
        obj, box = Objective.species_of([sys0]), _ops(mask).box_solver()
        Es, LU = obj.value(U)
        grad = obj.grad(U, LU)
        D, cg, _ = _search_direction(obj, box, U, grad, caps, obj.shifts())
        U_new, _, _, how, _ = _projected_step(obj, U, Es, grad, D, caps,
                                              null_ok=[True] * k)
        assert how == [STEP] * k
        V = segregation_projection(U_new.reshape(k, n))
        res = minimize_partition(sys0, SolverConfig(max_iters=1))
        assert np.array_equal(res.system.stacked(), V)
        assert res.energies[-1] == obj.value(V.reshape(k, 1, n))[0].sum()
        assert res.cg_iters == sum(cg) > 0

    def test_partition_start_does_not_spin(self):
        # Before the partition solver took the Newton direction, random-1
        # alternated between two totals near -23.44 for all 3000 iterations.
        cfg = SolverConfig(restarts=2, seed=0, max_iters=3000)
        best, results = minimize_multistart(
            build_disc(1.0, 1 / 32), identical_family(logistic(), 3), 150.0,
            cfg=cfg, partition=True)
        assert all(r.converged and r.iters <= 300 for r in results), \
            [(r.start_label, r.iters) for r in results]
        assert round(best.energy, 6) == -53.308058


class TestPinnedResults:
    """Iteration counts and energies of the free solver, pinned bit for bit.

    The counts (outer iterations, CG steps, energy evaluations) were taken
    from the solver before its inner loop froze the Hessian per direction
    and stacked the sparse products; that rewrite changes no arithmetic,
    so any change here is a change of the algorithm.
    """

    @pytest.mark.parametrize("lam,kappa,eps,label,iters,cg,evals,energy", [
        (100.0, 200.0, 0.4, "single", 6, 10, 6, -32.60096284343871),
        (100.0, 200.0, 0.4, "seeded", 12, 35, 13, -37.384460080971074),
        (140.0, 800.0, 0.2, "single", 6, 10, 6, -50.03410743818448),
        (140.0, 800.0, 0.2, "seeded", 29, 51, 31, -62.288694015667474),
    ], ids=["lam100-single", "lam100-seeded", "lam140-single", "lam140-seeded"])
    def test_sweep_disc_points(self, lam, kappa, eps, label, iters, cg, evals,
                               energy):
        # Two coordinates of the benchmark's disc sweep (r = 1, h = 1/12).
        cfg = SolverConfig(restarts=0)
        fam = scaled_family(logistic(), 2, (eps,))
        starts = dict(default_initializers(build_disc(1.0, 1 / 12), fam, lam,
                                           coupling_quartic(2), kappa, cfg))
        res = minimize_free(starts[label], cfg)
        assert (res.iters, res.cg_iters, res.evals) == (iters, cg, evals)
        assert abs(res.energy - energy) <= 1e-12 * abs(energy)

    def test_stiff_wedge_continuation_step(self):
        # The kappa = 1000 end of criterion 9's continuation (wedge m = 2,
        # h = 1/32, lam 200, eps2 0.6) from the deterministic starts.
        cfg = SolverConfig(restarts=0)
        fam = scaled_family(logistic(), 2, (0.6,))
        best, _ = minimize_multistart(build_wedge(2.0, 1 / 32), fam, 200.0,
                                      coupling=coupling_quartic(2), kappa=10.0,
                                      cfg=cfg)
        last = kappa_continuation(best.system,
                                  [10.0, 30.0, 100.0, 300.0, 1000.0], cfg)[-1]
        assert (last.iters, last.cg_iters, last.evals) == (10, 64, 11)
        energy = -4.14740410008495
        assert abs(last.energy - energy) <= 1e-12 * abs(energy)


class TestLoneStarts:
    """A start with one nonzero species never meets the coupling: the absent
    species stay exactly 0, so its solve is the uncoupled one at every
    kappa.  Sweeps rely on this to solve such starts once per (lam, eps)."""

    @pytest.mark.parametrize("k,eps,lam", [(2, (0.4,), 100.0),
                                           (3, (0.4, 0.6), 140.0)],
                             ids=["k2", "k3"])
    def test_lone_start_solve_does_not_depend_on_kappa(self, k, eps, lam):
        cfg = SolverConfig(restarts=0)
        fam = scaled_family(logistic(), k, eps)
        coupling = coupling_quartic(k)
        starts = default_initializers(build_disc(1.0, 1 / 12), fam, lam,
                                      coupling, 0.0, cfg)
        lone = [(label, sys0) for label, sys0 in starts
                if np.count_nonzero(sys0.stacked().any(axis=1)) == 1]
        assert [label for label, _ in lone] == \
            ["single"] + [f"single-{i}" for i in range(2, k + 1)]
        for label, sys0 in lone:
            absent = ~sys0.stacked().any(axis=1)
            ref = minimize_free(sys0, cfg, label)
            for kappa in (50.0, 800.0):
                res = minimize_free(SpeciesSystem(sys0.fields, fam, coupling,
                                                  lam, kappa), cfg, label)
                assert np.all(res.system.stacked()[absent] == 0.0)
                assert res.iters == ref.iters
                assert abs(res.energy - ref.energy) <= 1e-13 * abs(ref.energy)


def nan_law():
    """The logistic law with a NaN potential above 0.9."""
    good = logistic()
    return Nonlinearity(g=good.g, beta=1.0, gmax=0.25, alpha=good.alpha,
                        G=lambda s: np.where(np.asarray(s) > 0.9, np.nan,
                                             good.G(s)), dg=good.dg)


def non_finite_start_fails_alone(many, single):
    """The uniform 0.95 start cannot begin (nan_law) and fails alone; the
    0.5 start below lambda1 descends to 0 without meeting the NaN."""
    fam = ScaledFamily(base=nan_law(), k=1, eps=())
    mask = build_rectangle(1, 1, 1 / 8)
    start = lambda v: SpeciesSystem(
        [DensityField(mask, np.full(mask.n_interior, v))], fam, None, 10.0)
    cfg = SolverConfig(max_iters=200)
    bad, ok = many([start(0.95), start(0.5)], cfg, ["bad", "ok"])
    assert isinstance(bad, ValueError) and "non-finite" in str(bad)
    assert_same_solve(ok, single(start(0.5), cfg, "ok"))
    assert ok.converged
    with pytest.raises(ValueError):
        single(start(0.95), cfg)


def assert_same_solve(got, want):
    """``got`` is, bit for bit, the solve ``want``."""
    assert got.start_label == want.start_label
    assert (got.iters, got.cg_iters, got.evals, got.stop_reason,
            got.converged) == (want.iters, want.cg_iters, want.evals,
                               want.stop_reason, want.converged)
    assert repr(got.energy) == repr(want.energy)
    assert repr(got.residual) == repr(want.residual)
    assert np.array_equal(got.system.stacked(), want.system.stacked())
    assert np.array_equal(got.energies, want.energies)
    assert got.alive == want.alive


def assert_batch_equals_single_solves(many, single, starts, cfg):
    """The batch solve of labeled starts equals each start's lone solve,
    and shares its wall time out in proportion to iterations.  Returns the
    batch's results."""
    batch = many([s for _, s in starts], cfg, [label for label, _ in starts])
    assert len(batch) == len(starts)
    for (label, sys0), got in zip(starts, batch):
        assert_same_solve(got, single(sys0, cfg, label))
    per_iter = [r.seconds / r.iters for r in batch]
    assert max(per_iter) == pytest.approx(min(per_iter), rel=1e-9)
    return batch


def sweep_group_systems(mask, base, coupling, lam, eps, kappas, cfg):
    """The systems a sweep solves for one (lam, eps) group: each lone start
    once at kappa 0, every other start at each kappa."""
    fam = ScaledFamily(base=base, k=2, eps=(eps,))
    starts = default_initializers(mask, fam, lam, coupling, 0.0, cfg)
    lone = [np.count_nonzero(s.stacked().any(axis=1)) <= 1 for _, s in starts]
    systems = [(label, s) for (label, s), one in zip(starts, lone) if one]
    for kappa in kappas:
        systems += [(label, SpeciesSystem(s.fields, fam, coupling, lam, kappa))
                    for (label, s), one in zip(starts, lone) if not one]
    return systems


class TestBatch:
    """``minimize_free_many`` advances many systems as one stack; each gets
    exactly the solve it gets alone."""

    def test_two_sweep_groups_equal_the_single_solves(self):
        # Two (lam, eps) groups of the benchmark's disc sweep (r = 1,
        # h = 1/12, kappas 0 / 50 / 200 / 800), 20 systems in one batch.
        cfg = SolverConfig(restarts=0)
        mask, base = build_disc(1.0, 1 / 12), logistic()
        coupling = coupling_quartic(2)
        systems = []
        for lam, eps in ((100.0, 0.4), (140.0, 0.2)):
            systems += sweep_group_systems(mask, base, coupling, lam, eps,
                                           (0.0, 50.0, 200.0, 800.0), cfg)
        batch = assert_batch_equals_single_solves(
            minimize_free_many, minimize_free, systems, cfg)
        assert len(batch) == 20

    def test_non_finite_start_fails_alone(self):
        non_finite_start_fails_alone(minimize_free_many, minimize_free)

    def test_non_finite_partition_start_fails_alone(self):
        non_finite_start_fails_alone(minimize_partition_many,
                                     minimize_partition)

    @pytest.mark.parametrize("partition", [False, True])
    def test_multistart_raises_the_failed_start(self, partition):
        # The first-species bump reaches the cap 1, where nan_law's
        # potential is NaN; the uniform start at 0.5 could run.
        fam = ScaledFamily(base=nan_law(), k=1, eps=())
        with pytest.raises(ValueError, match="non-finite"):
            minimize_multistart(build_rectangle(1, 1, 1 / 8), fam, 50.0,
                                cfg=SolverConfig(restarts=0),
                                partition=partition)

    def test_systems_must_share_a_mask(self):
        cfg = SolverConfig(restarts=0)
        one = zero_system(build_rectangle(1, 1, 1 / 8), single_fam(), 10.0)
        two = zero_system(build_rectangle(1, 1, 1 / 8), single_fam(), 10.0)
        for many in (minimize_free_many, minimize_partition_many):
            with pytest.raises(ValueError):
                many([one, two], cfg)

    def test_wedge_partition_starts_equal_the_single_solves(self):
        # The partition multistart of the system2-wedge benchmark (wedge
        # m = 2, h = 1/32, lam 200, eps2 0.6, restarts=2, seed 7).
        cfg = SolverConfig(restarts=2, seed=7)
        fam = scaled_family(logistic(), 2, (0.6,))
        starts = default_initializers(build_wedge(2.0, 1 / 32), fam, 200.0,
                                      coupling_quartic(2), 0.0, cfg)
        batch = assert_batch_equals_single_solves(
            minimize_partition_many, minimize_partition, starts, cfg)
        assert [r.iters for r in batch] == [5, 8, 13, 6, 7, 7]

    def test_k3_partition_starts_equal_the_single_solves(self):
        cfg = SolverConfig(restarts=3, max_iters=3000)
        fam = scaled_family(logistic(), 3, (0.5, 0.25))
        starts = default_initializers(build_rectangle(1, 1, 1 / 24), fam,
                                      120.0, cfg=cfg)
        assert_batch_equals_single_solves(minimize_partition_many,
                                          minimize_partition, starts, cfg)


class TestBatchRuns:
    """Multistarts reach the batched solvers in runs cut by one size rule."""

    @given(st.lists(st.integers(1, 3 * BATCH_VALUES), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_runs_keep_order_and_the_size_rule(self, sizes):
        runs = batch_runs(sizes)
        assert [i for run in runs for i in run] == list(range(len(sizes)))
        for run, after in zip(runs, runs[1:] + [None]):
            used = sum(sizes[i] for i in run)
            assert len(run) == 1 or used <= BATCH_VALUES
            # a run ends only where the next start does not fit
            assert after is None or used + sizes[after[0]] > BATCH_VALUES

    def test_scan_mask_solves_one_start_at_a_time(self, monkeypatch):
        # Criterion 7's scan (disc r = 1, h = 1/64, k = 2, restarts=2): a
        # start is 25,698 values, so no two share a batch.
        calls = []
        monkeypatch.setattr(solve, "minimize_free_many",
                            lambda systems, cfg, labels: calls.append(labels)
                            or [None] * len(systems))
        cfg = SolverConfig(restarts=2, seed=7)
        starts = default_initializers(build_disc(1.0, 1 / 64),
                                      scaled_family(logistic(), 2, (0.4,)),
                                      200.0, coupling_quartic(2), 400.0, cfg)
        assert len(solve_starts(starts, cfg)) == 6
        assert calls == [[label] for label, _ in starts]

    @pytest.mark.parametrize("partition", [False, True])
    def test_small_multistart_takes_one_batch(self, monkeypatch, partition):
        # system2-wedge's multistarts: six starts of 2 x 481 values.
        name = "minimize_partition_many" if partition else "minimize_free_many"
        calls, many = [], getattr(solve, name)
        monkeypatch.setattr(solve, name, lambda systems, *a: calls.append(
            len(systems)) or many(systems, *a))
        fam = scaled_family(logistic(), 2, (0.6,))
        _, results = minimize_multistart(
            build_wedge(2.0, 1 / 32), fam, 200.0, coupling=coupling_quartic(2),
            kappa=10.0, cfg=SolverConfig(restarts=2, seed=7),
            partition=partition)
        assert calls == [6] and len(results) == 6


LOGISTIC = logistic()   # one base law, so drawn systems can share a batch
MASKS = {"square": build_rectangle(1, 1, 1 / 10), "disc": build_disc(1.0, 1 / 6),
         "wedge": build_wedge(2.0, 1 / 20)}


@st.composite
def random_systems(draw):
    mask = MASKS[draw(st.sampled_from(sorted(MASKS)))]
    return draw_system(draw, mask, draw(st.integers(1, 3)))


@st.composite
def random_batches(draw):
    """One to three systems on one mask, with one species count."""
    mask = MASKS[draw(st.sampled_from(sorted(MASKS)))]
    k = draw(st.integers(1, 3))
    return [draw_system(draw, mask, k) for _ in range(draw(st.integers(1, 3)))]


def draw_system(draw, mask, k):
    """A system of k species on mask with drawn scales, rates and start."""
    eps = tuple(draw(st.floats(0.1, 0.9)) for _ in range(k - 1))
    fam = ScaledFamily(base=LOGISTIC, k=k, eps=eps)
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

    @given(random_batches())
    @settings(max_examples=20, deadline=None)
    def test_partition_batch_disjoint_and_in_box(self, systems):
        for res in minimize_partition_many(systems, SolverConfig(max_iters=150)):
            assert np.all(np.count_nonzero(res.system.stacked(), axis=0) <= 1)
            assert in_box(res)


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


def random_holed_mask(seed):
    """A custom mask on a random grid: a full interior with random holes."""
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(5, 40, size=2)
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior &= rng.random((nx, ny)) > rng.uniform(0.0, 0.3)
    interior[rng.integers(1, nx - 1), 1:-1] = True   # keep one interior row
    return DomainMask(Grid(nx, ny, 1 / 16), interior)


class TestBoundaryDistance:
    @pytest.mark.parametrize("build", [
        lambda: build_rectangle(1.5, 0.75, 1 / 12), lambda: build_disc(1.0, 1 / 16),
        lambda: build_disc(1.0, 1 / 64), lambda: build_wedge(2.0, 1 / 24),
        lambda: random_holed_mask(0)] + [
        (lambda s=s: random_holed_mask(s)) for s in range(1, 21)],
        ids=["rectangle", "disc", "disc-fine", "wedge"]
        + [f"holed-{s}" for s in range(21)])
    def test_same_bits_as_scipy(self, build):
        mask = build()
        want = ndimage.distance_transform_edt(mask.interior)[mask.interior] * mask.h
        assert _distance_to_boundary(mask).tobytes() == want.tobytes()

    def test_cached_per_mask(self):
        mask = build_disc(1.0, 1 / 8)
        first = _distance_to_boundary(mask)
        assert _distance_to_boundary(mask) is first
        assert not first.flags.writeable


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

    @pytest.mark.parametrize("h,seed,reference", [(1 / 32, 0, -4.146295219987554),
                                                  (1 / 96, 8, -4.256698820254886)])
    def test_wedge_partition_minimum_pinned(self, h, seed, reference):
        # The partition solves of the system2-wedge benchmark (h = 1/32) and
        # of criterion 8 (h = 1/96).  reference: the best found when the
        # direction refined the box solve by CG on the mask.  The plain box
        # solve may take more steps on curved masks but not end higher.
        fam = scaled_family(logistic(), 2, (0.6,))
        cfg = SolverConfig(restarts=2, max_iters=60000, seed=seed)
        best, results = minimize_multistart(build_wedge(2.0, h), fam, 200.0,
                                            coupling=coupling_quartic(2),
                                            cfg=cfg, partition=True)
        assert best.energy <= reference + 1e-9 * abs(reference)
        assert all(r.converged for r in results)

    @pytest.mark.parametrize("lam", [60.0, 200.0, 800.0])
    @pytest.mark.parametrize("mask", [build_rectangle(1, 1, 1 / 32),
                                      build_disc(1.0, 1 / 32),
                                      build_wedge(2.0, 1 / 32)],
                             ids=["square", "disc", "wedge"])
    def test_k1_partition_agrees_with_free(self, mask, lam):
        # One species has nothing to segregate, so both solvers minimize the
        # same energy, whose positive minimizer is unique.
        cfg = SolverConfig(restarts=0)
        starts = dict(default_initializers(mask, single_fam(), lam, cfg=cfg))
        for label in ("single", "uniform"):
            free = minimize_free(starts[label], cfg)
            part = minimize_partition(starts[label], cfg)
            assert free.converged and part.converged, label
            assert part.energy == pytest.approx(free.energy, rel=1e-8), label


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
        eta2 = 1e-3 * fam.betas[1] * np.sqrt(mask.measure)
        U = np.zeros((2, mask.n_interior))
        sys = SpeciesSystem([DensityField(mask, U[i]) for i in range(2)],
                            fam, coupling_quartic(2), 100.0)
        assert alive_flags(sys) == [False, False]
        U[1, :] = 2 * eta2 / np.sqrt(mask.measure)
        sys = sys.replace_values(U)
        assert alive_flags(sys) == [False, True]


class TestConfigValidation:
    def test_bad_values(self):
        for bad in ({"tol_residual": 0.0},
                    {"max_iters": 5e3}, {"max_iters": 0}, {"restarts": 1.0},
                    {"restarts": -3}, {"restarts": True}, {"seed": 1.5},
                    {"seed": -1}, {"tol_residual": float("nan")},
                    {"tol_residual": float("inf")}, {"tol_residual": True},
                    {"tol_residual": "1e-6"}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)

    def test_with_override(self):
        cfg = SolverConfig().with_(restarts=3, seed=9)
        assert cfg.restarts == 3 and cfg.seed == 9
