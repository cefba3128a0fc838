import numpy as np
import pytest

from competelab.energy import (MASK_SOLVE_TOL, DensityField, SpeciesSystem,
                               _ops, bilinear_sample, dirichlet_energy,
                               energy_gradient, energy_total, field_to_csv,
                               field_to_pgm, lambda1, laplacian, rescaled_copy,
                               single_species_energy)
from competelab.geometry import build_disc, build_rectangle, build_wedge
from competelab.model import (F_eval, ScaledFamily, coupling_quartic,
                              identical_family, logistic, scaled_family)
from competelab.solve import segregation_projection


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
    e = 0.0
    for i, f in enumerate(sys.fields, start=1):
        d = f.to_grid()
        e += 0.5 * (np.sum(np.diff(d, axis=0) ** 2) + np.sum(np.diff(d, axis=1) ** 2))
        e -= sys.lam * h * h * np.sum(F_eval(sys.fam, i, d))
    if sys.coupling is not None and sys.k > 1:
        dense = np.stack([f.to_grid() for f in sys.fields])
        e += sys.kappa * h * h * np.sum(sys.coupling.H(dense))
    return e


class TestLaplacian:
    def test_zero_field(self):
        mask = build_rectangle(1, 1, 0.1)
        assert np.all(laplacian(DensityField.zeros(mask)).values == 0)

    def test_single_node_stencil(self):
        mask = build_rectangle(1, 1, 0.5)  # one interior node
        f = DensityField(mask, np.array([1.0]))
        assert laplacian(f).values[0] == pytest.approx(-4 / 0.25)

    def test_eigenfunction(self):
        mask = build_rectangle(1, 1, 0.01)
        u = DensityField.from_function(
            mask, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        ratio = -laplacian(u).values / u.values
        assert np.max(np.abs(ratio / (2 * np.pi ** 2) - 1)) < 1e-3


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


class TestBoxSolver:
    @pytest.mark.parametrize("width,height,h", [(1, 1, 1 / 16), (1.5, 0.75, 1 / 12),
                                                (2, 1, 1 / 10)])
    @pytest.mark.parametrize("s", [0.0, 50.0, 5000.0])
    def test_exact_on_rectangles(self, width, height, h, s):
        mask = build_rectangle(width, height, h)
        L = _ops(mask).L.toarray()
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
    def test_overshoot_test_matches_dense_spectrum(self, mask, shift):
        # mu_max of P (L + shift I) from the dense generalized eigenproblem
        ops = _ops(mask)
        n = mask.n_interior
        P = ops.box_solver().solve(np.eye(n), shift)
        A = ops.L.toarray() + shift * np.eye(n)
        mu = np.linalg.eigvals(P @ A).real
        assert mu.min() > 1 - 1e-9
        assert ops.box_solver()._overshoots(shift) == (mu.max() > 2.0)

    def test_mask_solve_is_box_solve_where_stable(self):
        for mask, shifts in ((build_rectangle(1, 1, 1 / 16), [0.0, 3.0]),
                             (build_disc(1.0, 1 / 8), [0.78, 5.0])):
            box = _ops(mask).box_solver()
            b = np.random.default_rng(6).normal(size=(2, mask.n_interior))
            assert np.array_equal(box.mask_solve(b, shifts), box.solve(b, shifts))

    @pytest.mark.parametrize("mask", [build_disc(1.0, 1 / 32),
                                      build_wedge(2.0, 1 / 64)], ids=repr)
    def test_mask_solve_refines_where_box_overshoots(self, mask):
        ops = _ops(mask)
        box = ops.box_solver()
        shifts = [0.0, 0.01]
        assert all(box._overshoots(s) for s in shifts)
        B = np.random.default_rng(7).normal(size=(2, mask.n_interior))
        X = box.mask_solve(B, shifts)
        for i, s in enumerate(shifts):
            residual = B[i] - (ops.L @ X[i] + s * X[i])
            assert np.linalg.norm(residual) <= MASK_SOLVE_TOL * np.linalg.norm(B[i])
            assert float(B[i] @ X[i]) > 0  # a descent direction
            unrefined = B[i] - (ops.L @ box.solve(B[i], s) + s * box.solve(B[i], s))
            assert np.linalg.norm(residual) < np.linalg.norm(unrefined)


class TestRescaledCopy:
    def test_exact_on_aligned_nodes(self):
        mask = build_rectangle(1, 1, 1 / 32)
        u = DensityField.from_function(mask, lambda x, y: x * (1 - x) * y)
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
        u = DensityField.from_function(
            mask, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
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
        assert dirichlet_energy(f) >= 0
