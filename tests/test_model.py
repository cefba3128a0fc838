import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from competelab.model import (LawStack, ScaledFamily, coupling_quartic,
                              cutoff_phi, identical_family, logistic,
                              scaled_family)


def law(fam, name, i, s):
    """Law ``name`` ("f", "df" or "F") of species i (1-based) at s, from the
    family's ``LawStack``: s is given to every species' row, and row i is
    read back."""
    s = np.asarray(s, dtype=float)
    S = np.broadcast_to(s.reshape(1, 1, -1), (1, fam.k, s.size))
    return getattr(LawStack.of([fam]), name)(S)[0, i - 1].reshape(s.shape)[()]


def composite_simpson(f, a, b, n=4096):
    """Independent fixed-step Simpson oracle (n even)."""
    xs = np.linspace(a, b, n + 1)
    ys = np.array([float(f(x)) for x in xs])
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * n) * float(w @ ys)


class TestLogistic:
    def test_point_values(self):
        g = logistic()
        assert g.g(0.5) == 0.25
        assert g.g(-1.0) == 0.0
        assert g.g(0.0) == 0.0
        assert g.beta == 1.0
        assert g.gmax == 0.25

    def test_alpha_analytic(self):
        assert logistic().alpha == pytest.approx(1 / 6, abs=0)

    def test_antiderivative(self):
        g = logistic()
        assert g.G(1.0) == pytest.approx(1 / 6)
        assert g.G(-2.0) == 0.0
        assert g.G(0.5) == pytest.approx(0.5 ** 2 / 2 - 0.5 ** 3 / 3)

    def test_first_species_potential(self):
        fam = ScaledFamily(base=logistic(), k=2, eps=(0.5,))
        assert law(fam, "F", 1, 1.0) == pytest.approx(1 / 6)


class TestScaledFamily:
    def test_caps(self):
        fam = scaled_family(logistic(), 4, (0.5, 0.25, 1 / 7))
        betas = fam.betas
        assert betas[0] == 1.0
        for i, e in enumerate(fam.eps):
            assert betas[i + 1] == pytest.approx(e / np.sqrt(4))

    def test_cap_zero_crossing(self):
        fam = scaled_family(logistic(), 4, (0.5, 0.25, 1 / 7))
        for i in (2, 3, 4):
            bi = fam.betas[i - 1]
            assert law(fam, "f", i, bi) == pytest.approx(0.0, abs=1e-15)
            assert law(fam, "f", i, 2 * bi) < 0
            assert law(fam, "f", i, 0.5 * bi) > 0

    def test_potential_at_cap_is_alpha_over_k(self):
        fam = scaled_family(logistic(), 4, (0.5, 0.25, 1 / 7))
        for i in (2, 3, 4):
            assert law(fam, "F", i, fam.betas[i - 1]) == pytest.approx(
                fam.base.alpha / 4, abs=1e-15)

    def test_integral_oracle(self):
        fam = scaled_family(logistic(), 4, (0.5, 0.25, 1 / 7))
        b2 = fam.betas[1]
        val = composite_simpson(lambda s: law(fam, "f", 2, s), 0.0, b2)
        assert val == pytest.approx(fam.base.alpha / 4, abs=1e-8)

    def test_closed_form_matches_quadrature(self):
        fam = scaled_family(logistic(), 3, (0.4, 0.2))
        rng = np.random.default_rng(5)
        for i in (1, 2, 3):
            cap = fam.betas[i - 1]
            for s in rng.uniform(0.0, 2 * cap, 34):
                quad = composite_simpson(lambda t: law(fam, "f", i, t), 0.0, s, 64)
                assert law(fam, "F", i, float(s)) == pytest.approx(quad, abs=1e-9)

    def test_vanishes_on_negatives(self):
        fam = scaled_family(logistic(), 3, (0.5, 0.1))
        for i in (1, 2, 3):
            assert law(fam, "f", i, -0.3) == 0.0
            assert law(fam, "F", i, -0.3) == 0.0

    @given(st.floats(-0.5, 1.5), st.sampled_from([0.9, 0.5, 0.25, 0.1, 0.03]))
    @settings(max_examples=200, deadline=None)
    def test_rescaling_identity_exact(self, s, eps):
        k = 3
        fam = scaled_family(logistic(), k, (eps, eps))
        c = np.sqrt(k) / eps
        ref = (1.0 / (np.sqrt(k) * eps)) * law(fam, "f", 1, c * s)
        assert law(fam, "f", 2, s) == ref

    def test_caps_shrink_with_eps(self):
        caps = [scaled_family(logistic(), 2, (e,)).betas[1]
                for e in (0.8, 0.4, 0.2, 0.05)]
        assert all(b > a for a, b in zip(caps[1:], caps))

    def test_identical_family(self):
        fam = identical_family(logistic(), 3)
        assert np.all(fam.betas == 1.0)
        s = np.linspace(-1, 2, 31)
        for i in (1, 2, 3):
            assert np.array_equal(law(fam, "f", i, s), logistic().g(s))

    def test_index_out_of_range(self):
        fam = scaled_family(logistic(), 2, (0.5,))
        with pytest.raises(IndexError):
            fam._scale(0)
        with pytest.raises(IndexError):
            fam._scale(3)

    def test_bad_scales(self):
        with pytest.raises(ValueError):
            scaled_family(logistic(), 3, (0.5,))
        with pytest.raises(ValueError):
            scaled_family(logistic(), 2, (1.5,))


class TestQuarticCoupling:
    def test_pair_value(self):
        C = coupling_quartic(2)
        assert C.H(np.array([[1.0], [1.0]]))[0] == 1.0

    def test_vanishes_with_one_species(self):
        C = coupling_quartic(3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = np.zeros((3, 1))
            s[rng.integers(3), 0] = rng.uniform(0, 2)
            assert C.H(s)[0] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_partials_match_finite_differences(self, k):
        C = coupling_quartic(k)
        rng = np.random.default_rng(k)
        s = rng.uniform(0.0, 1.0, size=(k, 50))
        dH = C.dH(s)
        t = 1e-6
        for i in range(k):
            sp = s.copy(); sp[i] += t
            sm = s.copy(); sm[i] -= t
            fd = (C.H(sp) - C.H(sm)) / (2 * t)
            rel = np.abs(fd - dH[i]) / np.maximum(np.abs(fd), 1e-9)
            assert rel.max() < 1e-6

    def test_monotonicity_h2(self):
        C = coupling_quartic(3)
        rng = np.random.default_rng(7)
        s = rng.uniform(0.0, 2.0, size=(3, 1000))
        assert np.all(s * C.dH(s) >= 0)

    def test_needs_two_species(self):
        with pytest.raises(ValueError):
            coupling_quartic(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hessian_matches_differences_of_partials(self, k):
        C = coupling_quartic(k)
        rng = np.random.default_rng(k)
        s = rng.uniform(0.0, 1.0, size=(k, 50))
        v = rng.normal(size=(k, 50))
        t = 1e-6
        fd = (C.dH(s + t * v) - C.dH(s - t * v)) / (2 * t)
        assert np.max(np.abs(C.d2H(s, v) - fd)) < 1e-7
        # the Hessian applied to a unit vector is a column of second partials
        e = np.zeros((k, 50))
        e[0] = 1.0
        col = C.d2H(s, e)
        assert np.allclose(col[1:], 4.0 * s[0] * s[1:], rtol=1e-14)


class TestSecondDerivatives:
    def test_logistic_slope_closed_form(self):
        dg = logistic().dg
        assert dg(0.25) == 0.5 and dg(1.0) == -1.0
        assert dg(0.0) == 0.0 and dg(-2.0) == 0.0

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_species_slope_matches_differences(self, i):
        fam = scaled_family(logistic(), 3, (0.4, 0.7))
        s = np.linspace(0.05, 0.95, 19) * fam.betas[i - 1]
        t = 1e-7
        fd = (law(fam, "f", i, s + t) - law(fam, "f", i, s - t)) / (2 * t)
        assert np.allclose(law(fam, "df", i, s), fd, rtol=0, atol=1e-6)


class TestCutoff:
    def test_ramp_plateaus(self):
        t = np.array([-3.0, 0.0, 1.0, 1.5, 2.0, 5.0])
        phi = cutoff_phi(t)
        assert phi[0] == 0.0 and phi[1] == 0.0 and phi[2] == 0.0
        assert 0.0 < phi[3] < 1.0
        assert phi[4] == 1.0 and phi[5] == 1.0

    def test_monotone(self):
        t = np.linspace(0.5, 2.5, 400)
        assert np.all(np.diff(cutoff_phi(t)) >= 0)
