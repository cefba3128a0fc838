import numpy as np
import pytest
import scipy.sparse as sp

from competelab.energy import (DensityField, Objective, SpeciesSystem,
                               _lambda1_run, _ops, bilinear_sample, energy_gradient,
                               energy_total, field_to_csv, field_to_pgm, lambda1,
                               rescaled_copy, single_species_energy)
from competelab.geometry import (DomainMask, Grid, build_disc, build_rectangle,
                                 build_wedge)
from competelab.model import (LawStack, ScaledFamily, coupling_quartic,
                              identical_family, logistic, scaled_family)
from competelab.solve import segregation_projection


def csr_laplacian(mask):
    """The five-point matrix L = -h^2 Laplacian as a sparse CSR matrix,
    assembled from ``mask.neighbors``: the reference for the stencil."""
    n = mask.n_interior
    nbr = mask.neighbors
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0)]
    for d in range(4):
        has = nbr[:, d] >= 0
        rows.append(np.nonzero(has)[0])
        cols.append(nbr[has, d])
        vals.append(np.full(int(has.sum()), -1.0))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def holed_mask():
    """A custom 13 x 11 mask with a two-node hole and a one-node hole."""
    interior = np.zeros((13, 11), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior[5, 4:6] = False
    interior[8, 7] = False
    return DomainMask(Grid(13, 11, 0.1), interior)


def make_system(mask, k, lam, kappa, eps=None, rng=None, fill="random"):
    base = logistic()
    if k == 1:
        fam = ScaledFamily(base=base, k=1, eps=())
        coupling = None
    else:
        fam = scaled_family(base, k, eps or tuple([0.3] * (k - 1)))
        coupling = coupling_quartic(k)
    betas = fam.betas
    n = mask.n_interior
    if fill == "random":
        rng = rng or np.random.default_rng(0)
        U = rng.uniform(0.05, 0.95, (k, n)) * betas[:, None]
    else:
        U = np.zeros((k, n))
    fields = [DensityField(mask, U[i]) for i in range(k)]
    return SpeciesSystem(fields, fam, coupling, lam, kappa)


def dense_energy_oracle(sys):
    """Direct evaluation on the zero-extended dense grids (independent path)."""
    h = sys.mask.h
    dense = np.stack([f.to_grid() for f in sys.fields])
    F = LawStack.of([sys.fam]).F(dense.reshape(1, sys.k, -1))[0]
    e = 0.0
    for d, Fd in zip(dense, F):
        e += 0.5 * (np.sum(np.diff(d, axis=0) ** 2) + np.sum(np.diff(d, axis=1) ** 2))
        e -= sys.lam * h * h * np.sum(Fd)
    if sys.coupling is not None and sys.k > 1:
        e += sys.kappa * h * h * np.sum(sys.coupling.H(dense))
    return e


def stencil_laplacian(mask, v):
    """The five-point discrete Laplacian -L v / h^2 of the stencil."""
    return -_ops(mask).apply(v) / mask.h ** 2


class TestLaplacian:
    def test_zero_field(self):
        mask = build_rectangle(1, 1, 0.1)
        assert np.all(stencil_laplacian(mask, np.zeros(mask.n_interior)) == 0)

    def test_single_node_stencil(self):
        mask = build_rectangle(1, 1, 0.5)  # one interior node
        lap = stencil_laplacian(mask, np.array([1.0]))
        assert lap[0] == pytest.approx(-4 / 0.25)

    def test_eigenfunction(self):
        mask = build_rectangle(1, 1, 0.01)
        u = np.sin(np.pi * mask.xs) * np.sin(np.pi * mask.ys)
        ratio = -stencil_laplacian(mask, u) / u
        assert np.max(np.abs(ratio / (2 * np.pi ** 2) - 1)) < 1e-3


STENCIL_MASKS = [lambda: build_rectangle(1.5, 0.75, 1 / 12),
                 lambda: build_disc(1.0, 1 / 16), lambda: build_wedge(2.0, 1 / 24),
                 holed_mask]


class TestStencil:
    @pytest.mark.parametrize("build", STENCIL_MASKS,
                             ids=["rectangle", "disc", "wedge", "holed"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_bits_as_the_sparse_product(self, build, k):
        # Zeros of both signs and negative entries included: every entry,
        # signed zeros too, must equal the CSR row sum.
        mask = build()
        L = csr_laplacian(mask)
        X = np.random.default_rng(k).normal(size=(k, mask.n_interior))
        X[:, ::5] = 0.0
        X[:, 2::7] = -0.0
        X[:, 10:20] = -0.0
        got = _ops(mask).apply(X)
        want = np.stack([L @ x for x in X])
        assert got.shape == X.shape
        assert got.tobytes() == want.tobytes()
        assert _ops(mask).apply(X[0]).tobytes() == (L @ X[0]).tobytes()


class TestEnergyTotal:
    def test_zero_state(self):
        sys = make_system(build_rectangle(1, 1, 0.1), 2, 100.0, 50.0, fill="zero")
        rep = energy_total(sys)
        assert rep.total == 0.0
        assert rep.interaction == 0.0

    def test_matches_dense_oracle(self):
        for k, kappa in ((1, 0.0), (2, 130.0), (3, 40.0)):
            sys = make_system(build_disc(0.5, 0.1), k, 80.0, kappa,
                              rng=np.random.default_rng(k))
            rep = energy_total(sys)
            assert rep.total == pytest.approx(dense_energy_oracle(sys), rel=1e-12)

    def test_report_identity(self):
        sys = make_system(build_rectangle(1, 1, 0.125), 3, 90.0, 70.0)
        rep = energy_total(sys)
        assert rep.total == pytest.approx(
            float(rep.dirichlet.sum() - rep.potential.sum()
                  + rep.kappa * rep.interaction), rel=1e-14)
        assert rep.interaction >= 0.0

    def test_dead_species_kills_interaction(self):
        mask = build_rectangle(1, 1, 0.1)
        sys = make_system(mask, 2, 100.0, 50.0)
        U = sys.stacked()
        U[1] = 0.0
        assert energy_total(sys.replace_values(U)).interaction == 0.0

    def test_lower_bound(self):
        base = logistic()
        rng = np.random.default_rng(3)
        for k in (2, 3):
            mask = build_rectangle(1, 1, 1 / 16)
            fam = scaled_family(base, k, tuple(rng.uniform(0.1, 0.9, k - 1)))
            lam = 150.0
            floor = -lam * base.alpha * mask.measure * (1 + (k - 1) / k)
            for _ in range(25):
                U = rng.uniform(0, 1, (k, mask.n_interior)) * fam.betas[:, None]
                sys = SpeciesSystem([DensityField(mask, U[i]) for i in range(k)],
                                    fam, coupling_quartic(k), lam, 0.0)
                assert energy_total(sys).total >= floor * 1.01

    def test_interaction_zero_iff_segregated(self):
        mask = build_rectangle(1, 1, 0.125)
        rng = np.random.default_rng(11)
        sys = make_system(mask, 2, 100.0, 1.0, rng=rng)
        assert energy_total(sys).interaction > 0
        seg = sys.replace_values(segregation_projection(sys.stacked()))
        assert energy_total(seg).interaction == 0.0


class TestGradient:
    def test_zero_state_zero_gradient(self):
        sys = make_system(build_rectangle(1, 1, 0.1), 2, 100.0, 50.0, fill="zero")
        assert np.all(energy_gradient(sys) == 0.0)

    def test_directional_derivative(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            k = 2 + trial % 2
            sys = make_system(build_rectangle(1, 1, 1 / 24), k, 200.0, 60.0,
                              rng=rng)
            U = sys.stacked()
            grad = energy_gradient(sys)
            d = rng.uniform(-1, 1, U.shape) * sys.fam.betas[:, None]
            t = 1e-5
            Ep = energy_total(sys.replace_values(U + t * d)).total
            Em = energy_total(sys.replace_values(U - t * d)).total
            fd = (Ep - Em) / (2 * t)
            an = sys.mask.h ** 2 * float(np.sum(grad * d))
            assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-6

    def test_capped_patch_nonnegative(self):
        mask = build_rectangle(1, 1, 1 / 16)
        sys = make_system(mask, 2, 100.0, 30.0, fill="zero")
        U = sys.stacked()
        U[:] = sys.fam.betas[:, None]  # both species capped everywhere
        sys = sys.replace_values(U)
        grad = energy_gradient(sys)
        inner = np.all(sys.mask.neighbors >= 0, axis=1)
        assert np.all(grad[:, inner] >= -1e-12)


class TestTruncationMonotonicity:
    def test_clip_at_cap_never_raises_energy(self):
        rng = np.random.default_rng(4)
        mask = build_rectangle(1, 1, 1 / 12)
        for _ in range(100):
            sys = make_system(mask, 2, 120.0, 80.0, rng=rng)
            U = sys.stacked() * rng.uniform(1.0, 2.5)
            betas = sys.fam.betas
            e_raw = energy_total(sys.replace_values(U)).total
            e_cut = energy_total(sys.replace_values(
                np.minimum(U, betas[:, None]))).total
            assert e_cut <= e_raw + 1e-12 * max(1.0, abs(e_raw))

    def test_positive_part_never_raises_energy(self):
        rng = np.random.default_rng(5)
        mask = build_rectangle(1, 1, 1 / 12)
        for _ in range(100):
            sys = make_system(mask, 2, 120.0, 80.0, rng=rng)
            U = sys.stacked() - rng.uniform(0.0, 0.3)
            e_raw = energy_total(sys.replace_values(U)).total
            e_cut = energy_total(sys.replace_values(np.maximum(U, 0.0))).total
            assert e_cut <= e_raw + 1e-12 * max(1.0, abs(e_raw))


class TestSingleSpeciesEnergy:
    def test_zero_field(self):
        mask = build_rectangle(1, 1, 0.1)
        fam = ScaledFamily(base=logistic(), k=1, eps=())
        assert single_species_energy(DensityField.zeros(mask), 1, fam, 100.0) == 0.0

    def test_matches_system_energy(self):
        mask = build_disc(0.5, 0.05)
        fam = scaled_family(logistic(), 2, (0.4,))
        rng = np.random.default_rng(6)
        v = rng.uniform(0, fam.betas[1], mask.n_interior)
        field = DensityField(mask, v)
        U = np.zeros((2, mask.n_interior))
        U[1] = v
        sys = SpeciesSystem([DensityField(mask, U[i]) for i in range(2)],
                            fam, coupling_quartic(2), 75.0, kappa=123.0)
        assert single_species_energy(field, 2, fam, 75.0) == pytest.approx(
            energy_total(sys).total, rel=1e-12)

    def test_lower_bound_per_species(self):
        mask = build_rectangle(1, 1, 1 / 16)
        fam = scaled_family(logistic(), 3, (0.5, 0.2))
        lam = 140.0
        rng = np.random.default_rng(7)
        for i in (2, 3):
            floor = -lam * (logistic().alpha / 3) * mask.measure
            for _ in range(20):
                v = rng.uniform(0, fam.betas[i - 1], mask.n_interior)
                J = single_species_energy(DensityField(mask, v), i, fam, lam)
                assert J >= floor * 1.01

    def test_species_index_out_of_range_raises(self):
        mask = build_rectangle(1, 1, 1 / 4)
        field = DensityField(mask, np.full(mask.n_interior, 0.1))
        for k, eps in ((1, ()), (2, (0.5,))):
            fam = scaled_family(logistic(), k, eps)
            for i in (0, k + 1):
                with pytest.raises(IndexError, match="out of range"):
                    single_species_energy(field, i, fam, 50.0)


SEAM_CASES = [(1, 0.0), (2, 0.0), (2, 250.0), (3, 40.0)]


class TestObjective:
    """The solvers' objective against the public energy functions."""

    @pytest.mark.parametrize("k,kappa", SEAM_CASES)
    @pytest.mark.parametrize("build", [lambda: build_rectangle(1, 1, 1 / 16),
                                       lambda: build_disc(0.8, 0.05),
                                       lambda: build_wedge(2.0, 0.05)],
                             ids=["square", "disc", "wedge"])
    def test_value_and_grad_match(self, build, k, kappa):
        sys = make_system(build(), k, 90.0, kappa, rng=np.random.default_rng(k))
        obj = Objective.many([sys])
        U = sys.stacked()
        E, LU = obj.value(U[None])
        assert E[0] == pytest.approx(energy_total(sys).total, rel=1e-12)
        assert np.array_equal(obj.grad(U[None], LU)[0], energy_gradient(sys))
        L = csr_laplacian(sys.mask)
        assert np.array_equal(LU[0], np.stack([L @ u for u in U]))

    @pytest.mark.parametrize("k,kappa", SEAM_CASES)
    def test_report_is_energy_total(self, k, kappa):
        sys = make_system(build_disc(0.8, 0.05), k, 90.0, kappa)
        rep, ref = Objective.many([sys]).report(sys.stacked()), energy_total(sys)
        assert rep.total == ref.total
        assert rep.interaction == ref.interaction
        assert np.array_equal(rep.dirichlet, ref.dirichlet)
        assert np.array_equal(rep.potential, ref.potential)

    def test_species_terms_are_single_species_energy(self):
        sys = make_system(build_wedge(2.0, 0.05), 3, 70.0, 15.0)
        E, LU = Objective.species_of([sys]).value(sys.stacked()[:, None])
        L = csr_laplacian(sys.mask)
        for i, f in enumerate(sys.fields):
            assert E[i] == single_species_energy(f, i + 1, sys.fam, sys.lam)
            assert np.array_equal(LU[i, 0], L @ f.values)

    def test_uncoupled_objective_ignores_kappa(self):
        sys = make_system(build_rectangle(1, 1, 0.1), 2, 90.0, 300.0)
        U = sys.stacked()[None]
        bare = Objective.many([SpeciesSystem(sys.fields, sys.fam, None,
                                             sys.lam)])
        E, LU = bare.value(U)
        Es, _ = Objective.species_of([sys]).value(U.reshape(2, 1, -1))
        assert E[0] == sum(Es.tolist())
        coupled = Objective.many([sys])
        assert coupled.value(U)[0][0] > E[0]
        assert np.array_equal(bare.grad(U, LU) + 300.0 * sys.coupling.dH(U[0]),
                              coupled.grad(U, LU))

    def test_report_shows_the_interaction_at_zero_kappa(self):
        # A coupling at kappa = 0 is reported but does not enter the total.
        sys = make_system(build_disc(0.8, 0.05), 2, 90.0, 0.0)
        rep = energy_total(sys)
        assert rep.interaction > 0
        assert rep.total == rep.dirichlet.sum() - rep.potential.sum()

    def test_shifts_are_the_slopes_at_the_caps(self):
        # s_i h^2 = lam a_i c_i h^2 with (a_i, c_i) = (1, 1) for species 1
        # and (1/(sqrt(k) eps_i), sqrt(k)/eps_i) beyond it.
        mask, base = build_wedge(2.0, 0.05), logistic()
        fields = [DensityField.zeros(mask)] * 3
        systems = [SpeciesSystem(fields, scaled_family(base, 3, eps), None, lam)
                   for lam, eps in ((90.0, (0.4, 0.7)), (130.0, (0.3, 0.2)),
                                    (70.0, (0.9, 0.05)))]
        h2, root = mask.h ** 2, np.sqrt(3)
        want = [[s.lam * a * c * h2 for a, c in
                 [(1.0, 1.0)] + [(1.0 / (root * e), root / e)
                                 for e in s.fam.eps]]
                for s in systems]
        stacked = Objective.many(systems).shifts()
        assert stacked.shape == (3, 3, 1)
        assert stacked[:, :, 0].tolist() == want
        species = Objective.species_of(systems).shifts()
        assert species.shape == (9, 1, 1)
        assert species.ravel().tolist() == sum(want, [])


    @pytest.mark.parametrize("k,kappa", [(1, 0.0), (2, 0.0), (2, 250.0),
                                         (3, 0.0), (3, 40.0)])
    @pytest.mark.parametrize("build", [lambda: build_rectangle(1, 1, 1 / 16),
                                       lambda: build_wedge(2.0, 0.05)],
                             ids=["square", "wedge"])
    def test_hessp_matches_gradient_differences(self, build, k, kappa):
        # States in (0.05, 0.95) beta_i sit on no kink of the growth laws,
        # so central differences of grad are second-order accurate.
        sys = make_system(build(), k, 90.0, kappa, eps=(0.4, 0.7)[:k - 1],
                          rng=np.random.default_rng(10 + k))
        obj = Objective.many([sys])
        U = sys.stacked()
        V = np.random.default_rng(k).normal(size=U.shape) * sys.fam.betas[:, None]
        t = 1e-6
        L = csr_laplacian(sys.mask)
        grad = lambda W: obj.grad(W[None], np.stack([L @ w for w in W])[None])[0]
        fd = (grad(U + t * V) - grad(U - t * V)) / (2 * t)
        HV = obj.hessian(U[None])(V[None])[0]
        assert np.max(np.abs(HV - fd)) <= 1e-6 * np.max(np.abs(HV))

    def test_hessp_is_symmetric(self):
        sys = make_system(build_wedge(2.0, 0.05), 3, 90.0, 40.0)
        obj = Objective.many([sys])
        U = sys.stacked()[None]
        rng = np.random.default_rng(5)
        V, W = rng.normal(size=U.shape), rng.normal(size=U.shape)
        hess = obj.hessian(U)
        assert np.sum(W * hess(V)) == pytest.approx(
            np.sum(V * hess(W)), rel=1e-12)

    @pytest.mark.parametrize("k,kappa", [(1, 0.0), (2, 250.0), (3, 40.0)])
    def test_hessian_is_repeatable(self, k, kappa):
        # The operator freezes only what depends on U: applying it again,
        # to the same V or after another V, gives the same bits.
        sys = make_system(build_wedge(2.0, 0.05), k, 90.0, kappa,
                          eps=(0.4, 0.7)[:k - 1])
        hess = Objective.many([sys]).hessian(sys.stacked()[None])
        V, W = np.random.default_rng(6).normal(
            size=(2, 1, k, sys.mask.n_interior))
        first = hess(V)
        hess(W)
        assert np.array_equal(hess(V), first)


class TestLambda1:
    def test_square_analytic(self):
        lam = lambda1(build_rectangle(1, 1, 1 / 32))
        assert abs(lam - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 0.01

    def test_positive_on_any_mask(self):
        for mask in (build_rectangle(1, 1, 0.5), build_disc(0.4, 0.05),
                     build_wedge(3.0, 0.05)):
            assert lambda1(mask) > 0

    def test_single_node_value(self):
        mask = build_rectangle(1, 1, 0.5)
        assert lambda1(mask) == pytest.approx(4 / 0.25)

    def test_iteration_cap(self):
        with pytest.raises(RuntimeError):
            lambda1(build_rectangle(1, 1, 1 / 16), tol=0.0, max_iters=2)

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 0.5)])
    def test_rectangle_closed_form(self, width, height):
        h = 1 / 32
        nx, ny = round(width / h) - 1, round(height / h) - 1
        want = (4 - 2 * np.cos(np.pi / (nx + 1))
                - 2 * np.cos(np.pi / (ny + 1))) / h ** 2
        got = lambda1(build_rectangle(width, height, h))
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("mask", [build_disc(0.4, 0.05), build_disc(1.0, 1 / 16),
                                      build_wedge(3.0, 0.05), build_wedge(2.0, 1 / 24)],
                             ids=["disc-0.4", "disc-1", "wedge-3", "wedge-2"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_curved_masks_match_dense_spectrum(self, mask, tol):
        # The residual rule |Lx - mu x| <= sqrt(tol) mu bounds the error of
        # the Rayleigh quotient mu by Kato-Temple: mu - l1 <= tol mu^2/(l2 - mu).
        # Both sides carry round-off of about eps * |L| / l1, near 1e-12.
        h2 = mask.h ** 2
        l1, l2 = np.linalg.eigvalsh(csr_laplacian(mask).toarray())[:2] / h2
        got = lambda1(mask, tol=tol)
        slack = 1e-11 * l1
        assert got >= l1 - slack
        assert got - l1 <= tol * got ** 2 / (l2 - got) + slack
        if tol <= 1e-12:
            assert abs(got - l1) <= 1e-10 * l1


class TestLambda1Preconditioner:
    """The box's low-mode inverse that preconditions lambda1, and the
    iteration's steps, stencil products and values."""

    def test_truncated_operator_is_symmetric_positive_definite(self):
        mask = build_wedge(2.0, 1 / 40)   # a 39-node box axis keeps 32 modes
        T = _ops(mask).box_solver().low_mode_inverse()
        assert T.inv_sigma > 0
        n = mask.n_interior
        dense = np.empty((n, n))
        for j, e in enumerate(np.eye(n)):
            dense[:, j] = T(e)
        assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0

    @pytest.mark.parametrize("mask", [build_disc(1.0, 1 / 16), build_wedge(2.0, 1 / 32),
                                      build_rectangle(1, 0.5, 1 / 32)],
                             ids=["disc", "wedge", "rectangle"])
    def test_small_boxes_keep_the_box_solve(self, mask):
        box = _ops(mask).box_solver()
        assert max(box.eig.shape) <= 32
        T = box.low_mode_inverse()
        assert T.inv_sigma == 0.0
        r = np.random.default_rng(9).normal(size=mask.n_interior)
        want = box.solve(r, 0.0)
        assert np.linalg.norm(T(r) - want) <= 1e-13 * np.linalg.norm(want)

    @staticmethod
    def counted(mask):
        """Count the mask's stencil products from here on."""
        ops = _ops(mask)
        calls, apply = [], ops.apply
        ops.apply = lambda X: calls.append(1) or apply(X)
        return calls

    def test_one_stencil_product_per_step_and_a_fresh_one_to_stop(self):
        mask = build_disc(1.0, 1 / 32)
        calls = self.counted(mask)
        lambda1(mask)
        steps, residual = _lambda1_run(mask)
        assert steps > 0
        # the start's product, one per step, and the stop's fresh product
        assert len(calls) == steps + 2
        assert 0 < residual <= np.sqrt(1e-8)

    def test_rectangle_takes_no_step_and_builds_no_preconditioner(self):
        mask = build_rectangle(1, 1, 1 / 64)
        calls = self.counted(mask)
        lambda1(mask)
        assert _lambda1_run(mask)[0] == 0
        assert len(calls) == 1
        assert _ops(mask).box_solver()._low is None

    @pytest.mark.parametrize("mask,want,max_steps", [
        (build_disc(1.0, 1 / 96), 5.746258847628859, 30),
        (build_wedge(2.0, 1 / 128), 45.622208809560156, 36)], ids=["disc", "wedge"])
    def test_fine_masks_keep_their_values_in_few_steps(self, mask, want, max_steps):
        # want: the value of the box-solve-preconditioned iteration
        got = lambda1(mask)
        assert abs(got - want) <= 1e-10 * want
        assert _lambda1_run(mask)[0] <= max_steps

    def test_matches_shift_invert_on_the_disc(self):
        from scipy.sparse.linalg import eigsh
        mask = build_disc(1.0, 1 / 64)
        want = eigsh(csr_laplacian(mask).tocsc(), k=1, sigma=0,
                     return_eigenvectors=False)[0] / mask.h ** 2
        assert abs(lambda1(mask) - want) <= 1e-9 * want


class TestBoxSolver:
    @pytest.mark.parametrize("width,height,h", [(1, 1, 1 / 16), (1.5, 0.75, 1 / 12),
                                                (2, 1, 1 / 10)])
    @pytest.mark.parametrize("s", [0.0, 50.0, 5000.0])
    def test_exact_on_rectangles(self, width, height, h, s):
        mask = build_rectangle(width, height, h)
        L = csr_laplacian(mask).toarray()
        A = L + s * h * h * np.eye(mask.n_interior)
        b = np.random.default_rng(3).normal(size=mask.n_interior)
        want = np.linalg.solve(A, b)
        got = _ops(mask).box_solver().solve(b, s * h * h)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rows_take_their_own_shifts(self):
        mask = build_rectangle(1, 1, 1 / 12)
        box = _ops(mask).box_solver()
        B = np.random.default_rng(4).normal(size=(3, mask.n_interior))
        shifts = [0.0, 0.3, 7.0]
        stacked = box.solve(B, shifts)
        for i in range(3):
            assert np.array_equal(stacked[i], box.solve(B[i], shifts[i]))

    @pytest.mark.parametrize("mask", [build_disc(1.0, 1 / 12), build_wedge(2.0, 1 / 24),
                                      build_disc(0.5, 1 / 20)], ids=repr)
    def test_symmetric_positive_on_curved_masks(self, mask):
        box = _ops(mask).box_solver()
        rng = np.random.default_rng(5)
        for s in (0.0, 2.0):
            x, y = rng.normal(size=(2, mask.n_interior))
            Px, Py = box.solve(x, s), box.solve(y, s)
            assert float(x @ Py) == pytest.approx(float(y @ Px), rel=1e-12)
            assert float(x @ Px) > 0
            assert float(y @ Py) > 0

    @pytest.mark.parametrize("mask", [build_disc(1.0, 1 / 12), build_wedge(2.0, 1 / 24),
                                      build_disc(0.5, 1 / 20)], ids=repr)
    def test_matches_the_dst_formula(self, mask):
        # (L_box + s I)^-1 by the 2-D DST-I of the zero-padded bounding box
        from scipy.fft import dstn
        ii, jj = np.nonzero(mask.interior)
        ii, jj = ii - ii.min(), jj - jj.min()
        nx, ny = ii.max() + 1, jj.max() + 1
        ex = 2 - 2 * np.cos(np.pi * np.arange(1, nx + 1) / (nx + 1))
        ey = 2 - 2 * np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))
        B = np.random.default_rng(8).normal(size=(2, mask.n_interior))
        shifts = [0.0, 3.0]
        got = _ops(mask).box_solver().solve(B, shifts)
        for b, s, x in zip(B, shifts, got):
            box = np.zeros((nx, ny))
            box[ii, jj] = b
            coef = dstn(box, type=1, norm="ortho") / (ex[:, None] + ey[None, :] + s)
            want = dstn(coef, type=1, norm="ortho")[ii, jj]
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("mask", [build_disc(1.0, 1 / 12),
                                      build_wedge(2.0, 1 / 24)], ids=["disc", "wedge"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_is_row_by_row(self, mask, k):
        box = _ops(mask).box_solver()
        B = np.random.default_rng(k).normal(size=(k, mask.n_interior))
        shifts = [0.0, 0.78, 4.0][:k]
        stacked = box.solve(B, shifts)
        assert stacked.shape == B.shape
        for i in range(k):
            assert np.array_equal(stacked[i], box.solve(B[i], shifts[i]))
        one = box.solve(B[0], shifts[0])
        assert one.shape == (mask.n_interior,)
        assert np.array_equal(one, box.solve(B[:1], shifts[:1])[0])

    def test_cached_per_mask(self):
        mask = build_disc(1.0, 1 / 8)
        first = _ops(mask).box_solver()
        assert _ops(mask).box_solver() is first
        assert _ops(build_disc(1.0, 1 / 8)).box_solver() is not first

    @pytest.mark.parametrize("mask,shift", [
        (build_rectangle(1, 1, 1 / 8), 0.0), (build_disc(1.0, 1 / 8), 0.78),
        (build_disc(1.0, 1 / 8), 0.0), (build_disc(1.0, 1 / 16), 0.0),
        (build_disc(1.0, 1 / 16), 2.0), (build_wedge(2.0, 1 / 24), 0.0),
        (build_wedge(2.0, 1 / 24), 0.5)], ids=str)
    def test_preconditioned_spectrum_is_at_least_one(self, mask, shift):
        # P (L + shift I) from the dense generalized eigenproblem: the box
        # solve never undershoots the mask's own inverse
        ops = _ops(mask)
        n = mask.n_interior
        P = ops.box_solver().solve(np.eye(n), shift)
        A = csr_laplacian(mask).toarray() + shift * np.eye(n)
        mu = np.linalg.eigvals(P @ A).real
        assert mu.min() > 1 - 1e-9


class TestRescaledCopy:
    def test_exact_on_aligned_nodes(self):
        mask = build_rectangle(1, 1, 1 / 32)
        u = DensityField(mask, mask.xs * (1 - mask.xs) * mask.ys)
        w = rescaled_copy(u, 0.25, 2, x0=(0.25, 0.25))
        xq = (mask.xs - 0.25) / 0.25
        yq = (mask.ys - 0.25) / 0.25
        expect = np.zeros_like(w.values)
        inside = mask.contains(xq, yq)
        expect[inside] = (0.25 / np.sqrt(2)) * xq[inside] * (1 - xq[inside]) * yq[inside]
        assert np.allclose(w.values, expect, atol=1e-12)

    def test_support_in_scaled_region(self):
        mask = build_wedge(2.0, 0.05)
        u = DensityField(mask, np.ones(mask.n_interior))
        w = rescaled_copy(u, 0.5, 2, x0=(0.0, 0.0))
        # bilinear fringe extends at most one source cell beyond 0.5*Omega
        grown = 0.5 * (1 + 3 * mask.h)
        strictly_out = ~mask.contains(mask.xs / grown, mask.ys / grown)
        assert np.all(w.values[strictly_out] == 0.0)
        assert w.values.max() > 0

    def test_nonnegativity_preserved(self):
        mask = build_disc(1.0, 0.05)
        rng = np.random.default_rng(8)
        u = DensityField(mask, rng.uniform(0, 1, mask.n_interior))
        w = rescaled_copy(u, 0.37, 2, x0=(0.1, -0.05))
        assert np.all(w.values >= 0)

    def test_scaling_identity_on_smooth_field(self):
        # J_i(eps-copy) = (eps^2/k) J_1(u) for aligned eps = 1/4
        mask = build_rectangle(1, 1, 1 / 64)
        fam = scaled_family(logistic(), 2, (0.25,))
        lam = 100.0
        u = DensityField(mask, np.sin(np.pi * mask.xs) * np.sin(np.pi * mask.ys))
        w = rescaled_copy(u, 0.25, 2, x0=(0.375, 0.375))
        J1 = single_species_energy(u, 1, fam, lam)
        J2 = single_species_energy(w, 2, fam, lam)
        assert J2 == pytest.approx((0.25 ** 2 / 2) * J1, rel=0.02)

    def test_bilinear_hits_nodes(self):
        mask = build_rectangle(1, 1, 0.125)
        rng = np.random.default_rng(9)
        u = DensityField(mask, rng.uniform(0, 1, mask.n_interior))
        assert np.allclose(bilinear_sample(u, mask.xs, mask.ys), u.values,
                           atol=1e-14)


class TestSpeciesSystem:
    @pytest.mark.parametrize("lam,kappa", [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0),
                                           (90.0, np.nan), (90.0, np.inf),
                                           (90.0, -1.0)])
    def test_rejects_bad_parameters(self, lam, kappa):
        with pytest.raises(ValueError):
            make_system(build_rectangle(1, 1, 0.25), 2, lam, kappa)


class TestFieldBasics:
    def test_validation(self):
        mask = build_rectangle(1, 1, 0.25)
        with pytest.raises(ValueError):
            DensityField(mask, np.zeros(3))
        with pytest.raises(ValueError):
            DensityField(mask, np.full(mask.n_interior, np.nan))

    def test_l2_mass(self):
        mask = build_rectangle(1, 1, 0.25)
        f = DensityField(mask, np.ones(mask.n_interior))
        assert f.l2_mass() == pytest.approx(np.sqrt(mask.measure))

    def test_csv_export(self, tmp_path):
        mask = build_rectangle(1, 1, 0.25)
        rng = np.random.default_rng(10)
        f = DensityField(mask, rng.uniform(0, 1, mask.n_interior))
        p = tmp_path / "u.csv"
        field_to_csv(f, p)
        back = np.loadtxt(p, delimiter=",")
        assert np.array_equal(back, f.to_grid())

    def test_pgm_export(self, tmp_path):
        mask = build_rectangle(1, 1, 0.25)
        f = DensityField(mask, np.full(mask.n_interior, 0.5))
        p = tmp_path / "u.pgm"
        field_to_pgm(f, p, cap=1.0)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n")
        header, rest = raw.split(b"255\n", 1)
        assert len(rest) == mask.grid.nx * mask.grid.ny

    def test_dirichlet_energy_nonnegative(self):
        mask = build_disc(0.5, 0.1)
        rng = np.random.default_rng(12)
        f = DensityField(mask, rng.uniform(-1, 1, mask.n_interior))
        sys = SpeciesSystem([f], ScaledFamily(base=logistic(), k=1, eps=()),
                            None, 1.0)
        assert energy_total(sys).dirichlet[0] >= 0
